// Package tagset provides the fundamental data types of the system: interned
// tags and canonical, immutable sets of tags ("tagsets") as they annotate
// social-media documents.
//
// Tags are interned into dense uint32 identifiers by a Dictionary so that the
// hot paths of the pipeline (partitioning, dissemination, counting) operate
// on integer sets rather than strings. A Tagset is stored sorted and
// deduplicated, which makes equality, hashing, subset tests and set algebra
// cheap and canonical.
package tagset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Tag is the dense, interned identifier of a single tag (hashtag).
type Tag uint32

// Dictionary interns tag strings to dense Tag identifiers and back.
// It is safe for concurrent use.
type Dictionary struct {
	mu    sync.RWMutex
	byStr map[string]Tag
	byID  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byStr: make(map[string]Tag)}
}

// Intern returns the Tag for s, assigning a fresh identifier on first use.
func (d *Dictionary) Intern(s string) Tag {
	d.mu.RLock()
	id, ok := d.byStr[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byStr[s]; ok {
		return id
	}
	id = Tag(len(d.byID))
	d.byStr[s] = id
	d.byID = append(d.byID, s)
	return id
}

// Lookup returns the Tag for s if it has been interned.
func (d *Dictionary) Lookup(s string) (Tag, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byStr[s]
	return id, ok
}

// String returns the string form of t. It panics if t was not issued by d.
func (d *Dictionary) String(t Tag) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byID[t]
}

// Len reports the number of distinct tags interned so far.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// Name returns the string form of t, or a stable "#<id>" placeholder when
// t was never interned in this dictionary. This is the render-safe variant
// for data read back from an archive: a segment written by a previous
// process (or after the last checkpoint) can reference tags the rebuilt
// dictionary does not know yet, and rendering them must not panic.
func (d *Dictionary) Name(t Tag) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(t) < len(d.byID) {
		return d.byID[t]
	}
	return fmt.Sprintf("#%d", uint32(t))
}

// Names maps a Set to strings via Name (placeholders for unknown tags).
func (d *Dictionary) Names(s Set) []string {
	out := make([]string, 0, s.Len())
	for _, t := range s {
		out = append(out, d.Name(t))
	}
	return out
}

// Snapshot returns every interned tag string in identifier order, so a
// dictionary can be persisted and rebuilt with identical Tag assignments
// (intern the returned strings, in order, into a fresh Dictionary).
func (d *Dictionary) Snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.byID...)
}

// InternSet interns every string in tags and returns the canonical Tagset.
func (d *Dictionary) InternSet(tags []string) Set {
	ids := make([]Tag, 0, len(tags))
	for _, s := range tags {
		ids = append(ids, d.Intern(s))
	}
	return New(ids...)
}

// Strings maps a Set back to its (sorted-by-id) tag strings.
func (d *Dictionary) Strings(s Set) []string {
	out := make([]string, 0, s.Len())
	for _, t := range s {
		out = append(out, d.String(t))
	}
	return out
}

// Set is a canonical tagset: strictly increasing, duplicate-free Tag slice.
// The zero value is the empty set. A Set must not be mutated after creation;
// all operations return fresh sets.
type Set []Tag

// New builds the canonical Set of the given tags, sorting and deduplicating.
func New(tags ...Tag) Set {
	if len(tags) == 0 {
		return nil
	}
	s := make(Set, len(tags))
	copy(s, tags)
	slices.Sort(s)
	// Deduplicate in place.
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// FromSorted adopts an already strictly-increasing slice as a Set without
// copying. The caller must guarantee sortedness and uniqueness and must not
// mutate the slice afterwards.
func FromSorted(tags []Tag) Set { return Set(tags) }

// Len reports the number of tags in the set.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether the set has no tags.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether t is a member of s.
func (s Set) Contains(t Tag) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= t })
	return i < len(s) && s[i] == t
}

// Equal reports whether s and o contain exactly the same tags.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tag of s is contained in o.
func (s Set) SubsetOf(o Set) bool {
	if len(s) > len(o) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			i++
			j++
		case s[i] > o[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// IntersectLen returns |s ∩ o| without allocating.
func (s Set) IntersectLen(o Set) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			n++
			i++
			j++
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Intersects reports whether s and o share at least one tag.
func (s Set) Intersects(o Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			return true
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Union returns the set of tags present in either s or o.
func (s Set) Union(o Set) Set {
	out := make(Set, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, o[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Key returns a compact byte-string usable as a map key. Two sets have the
// same Key iff they are Equal.
func (s Set) Key() Key {
	return Key(s.AppendKey(make([]byte, 0, 4*len(s))))
}

// AppendKey appends the bytes of s.Key() to dst and returns the extended
// slice. With a reused dst, m[Key(dst)] looks a set up in a Key-indexed
// map without allocating. It is the one encoder of the key format: four
// little-endian bytes per tag, in set order.
func (s Set) AppendKey(dst []byte) []byte {
	for _, t := range s {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	return dst
}

// Fold is a fixed-width, pointer-free fold of a set's tags: one 64-bit
// sum, over the set's tags, of a mix of each tag (FoldTag). Equal sets have
// equal folds; distinct sets almost always have distinct ones, but not
// always, so a table keyed by Fold must confirm a hit against the tags it
// stores. Because the fold is a sum, it does not depend on tag order, and
// the fold of S ∪ {t} (t ∉ S) is Fold(S).Add(FoldTag(t)): the folds of all
// 2ⁿ subsets of a set cost one addition each. The empty set folds to the
// zero value. A FoldIndex reads its low 32 bits; no byte of it is persisted
// or served.
type Fold struct{ A uint64 }

// FoldTag returns the fold of the one-tag set {t}.
func FoldTag(t Tag) Fold { return Fold{A: mix64(uint64(t) ^ 0x243f6a8885a308d3)} }

// Add returns the fold of the union of two disjoint sets folded to f and g.
func (f Fold) Add(g Fold) Fold { return Fold{A: f.A + g.A} }

// FoldIndex is an open-addressed index from a Fold to an int32 slot in
// its caller's own entries, for tables that store each entry's tags and can
// confirm a hit against them. It never hashes a fold again: a bucket is one
// word, fp<<32 | (slot+1), where fp is the fold's low 32 bits (uint32(f.A)),
// and 0 marks an empty bucket. A fold's home bucket is fp·0x9e3779b1 in its
// top log2(len) bits (Fibonacci hashing), and a probe walks on linearly.
// Equal fingerprints are only candidates: Find confirms each one through
// its caller, so a collision, of folds or of fingerprints, costs a longer
// probe and never a wrong slot.
//
// The index never empties one bucket, only all of them (Reset). That makes
// a miss exact: an entry sits somewhere in the run from its home bucket to
// the first empty bucket after it, and Find stops only at an empty bucket,
// so it has seen every entry that could hold the tags. The index fills to
// at most 3/4 of its buckets and then doubles; growth re-homes every bucket
// from its fp alone. The zero value is an empty index. A FoldIndex is not
// safe for concurrent use.
type FoldIndex struct {
	buckets []uint64
	n       int  // entries
	shift   uint // 32 − log2(len(buckets))
}

// NewFoldIndex returns an empty index presized to hold n entries before it
// grows.
func NewFoldIndex(n int) FoldIndex {
	var x FoldIndex
	x.Reserve(n)
	return x
}

// Reserve makes the index hold n entries in all before it grows: when its
// buckets do not, it replaces them by the fewest that do and re-homes every
// entry by its fingerprint.
func (x *FoldIndex) Reserve(n int) {
	if 4*n <= 3*len(x.buckets) {
		return
	}
	old := x.buckets
	x.alloc(n)
	for _, b := range old {
		if b != 0 {
			x.place(b)
		}
	}
}

// alloc replaces the buckets by empty ones, the fewest (a power of two, at
// least 8) that hold n entries within the 3/4 load.
func (x *FoldIndex) alloc(n int) {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	x.buckets = make([]uint64, size)
	x.shift = uint(32 - bits.TrailingZeros(uint(size)))
}

// home returns the first bucket of the probe run for fingerprint fp.
func (x *FoldIndex) home(fp uint32) int { return int(fp * 0x9e3779b1 >> x.shift) }

// Find returns the first slot stored under a fingerprint equal to f's that
// eq confirms, or −1 when there is none. eq is called only on fingerprint
// matches and must compare the slot's tags with the ones being looked up.
func (x *FoldIndex) Find(f Fold, eq func(slot int32) bool) int32 {
	if x.n == 0 { // the zero value has no buckets to probe
		return -1
	}
	fp := uint32(f.A)
	last := len(x.buckets) - 1
	for i := x.home(fp); ; i = (i + 1) & last {
		b := x.buckets[i]
		if b == 0 {
			return -1
		}
		if uint32(b>>32) == fp {
			if slot := int32(uint32(b)) - 1; eq(slot) {
				return slot
			}
		}
	}
}

// Insert stores slot (>= 0) under f. Call it only after Find missed for the
// same tags: the index does not look for an entry already there.
func (x *FoldIndex) Insert(f Fold, slot int32) {
	if 4*(x.n+1) > 3*len(x.buckets) {
		x.Reserve(x.n + 1)
	}
	x.n++
	x.place(uint64(uint32(f.A))<<32 | uint64(slot+1))
}

// place puts bucket word b in the first empty bucket of its probe run.
func (x *FoldIndex) place(b uint64) {
	last := len(x.buckets) - 1
	i := x.home(uint32(b >> 32))
	for x.buckets[i] != 0 {
		i = (i + 1) & last
	}
	x.buckets[i] = b
}

// Reset empties the index and keeps its buckets.
func (x *FoldIndex) Reset() {
	clear(x.buckets)
	x.n = 0
}

// mix64 is the splitmix64 finalizer, a bijection of uint64 whose output
// bits each depend on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Hash returns the 64-bit FNV-1a hash of the key's bytes.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * fnvPrime64
	}
	return h
}

// KeyHash returns s.Key().Hash() without building the key: FNV-1a over
// each tag's four key bytes in turn.
func (s Set) KeyHash() uint64 {
	h := uint64(fnvOffset64)
	for _, t := range s {
		for range 4 {
			h = (h ^ uint64(t&0xff)) * fnvPrime64
			t >>= 8
		}
	}
	return h
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Compare orders a and b exactly as their Keys compare as strings, without
// building either key: -1 if a.Key() < b.Key(), 0 if the sets are Equal, +1
// otherwise. That order is bytewise over the little-endian tag encoding —
// the first differing tags decide by their byte-reversed values, so tag 256
// (bytes 00 01 00 00) sorts before tag 1 (01 00 00 00) — with a proper
// prefix first. It is not numeric tag order; every persisted and served tie
// order (/topk, checkpoints, archived segments) depends on it staying so.
func Compare(a, b Set) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if bits.ReverseBytes32(uint32(a[i])) < bits.ReverseBytes32(uint32(b[i])) {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SortBy sorts s by Compare on each element's set, into the order
// slices.SortFunc with Compare gives when the sets are distinct. It is a
// radix sort three tags (twelve key bytes) at a time: LSD passes over those
// bytes order s, and each run of elements whose sets share them is sorted
// on the next three tags the same way, down to runs short enough for
// Compare. Each set is read once per level, so unlike a comparison sort of
// sets scattered over the heap, almost no step chases a set's backing
// array.
func SortBy[T any](s []T, set func(T) Set) { sortByFrom(s, set, 0) }

// radixMin is the shortest run SortBy radix-sorts; shorter ones go to
// Compare.
const radixMin = 32

// sortByFrom is SortBy for elements whose sets share their first from tags.
func sortByFrom[T any](s []T, set func(T) Set, from int) {
	byCompare := func(a, b T) int { return Compare(set(a), set(b)) }
	if len(s) < radixMin {
		slices.SortFunc(s, byCompare)
		return
	}
	keys := make([]sortKey, len(s))
	deeper := false // some set has tags beyond the three keyed here
	for i, v := range s {
		tags := set(v)
		keys[i] = newSortKey(tags[min(from, len(tags)):], i)
		deeper = deeper || len(tags) > from+3
	}
	tmp := make([]sortKey, len(s))
	for d := 0; d < 12; d++ { // least significant key byte first
		digit := func(k sortKey) byte {
			if d < 4 {
				return byte(k.lo >> (8 * d))
			}
			return byte(k.hi >> (8 * (d - 4)))
		}
		var count [256]int
		for _, k := range keys {
			count[digit(k)]++
		}
		if count[digit(keys[0])] == len(keys) {
			continue // every key has this byte
		}
		pos := 0
		for b, n := range count {
			count[b] = pos
			pos += n
		}
		for _, k := range keys {
			b := digit(k)
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	out := make([]T, len(s))
	for i, k := range keys {
		out[i] = s[k.index]
	}
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && keys[j].hi == keys[i].hi && keys[j].lo == keys[i].lo {
			j++
		}
		switch {
		case j-i == 1:
		case deeper:
			sortByFrom(out[i:j], set, from+3)
		default: // equal sets, or a zero tag out of canonical order
			slices.SortFunc(out[i:j], byCompare)
		}
		i = j
	}
	copy(s, out)
}

// sortKey is the key bytes of three tags of a set as a big-endian number,
// zero padded (hi the first eight, lo the next four), and its element's
// index.
// Two sets whose numbers differ compare as the numbers do; equal numbers
// leave the order to Compare.
type sortKey struct {
	hi    uint64
	lo    uint32
	index uint32
}

func newSortKey(s Set, index int) sortKey {
	var b [3]uint32
	for i := 0; i < len(s) && i < len(b); i++ {
		b[i] = bits.ReverseBytes32(uint32(s[i]))
	}
	return sortKey{hi: uint64(b[0])<<32 | uint64(b[1]), lo: b[2], index: uint32(index)}
}

// Key is the map-key form of a Set, produced by Set.Key.
type Key string

// Set decodes the key back into its canonical Set.
func (k Key) Set() Set { return k.AppendSet(make(Set, 0, len(k)/4)) }

// AppendSet appends the tags of k's set to dst and returns the extended
// set. With a dst on the stack, a set is decoded without allocating.
func (k Key) AppendSet(dst Set) Set {
	for i := 0; i+4 <= len(k); i += 4 {
		dst = append(dst, Tag(uint32(k[i])|uint32(k[i+1])<<8|uint32(k[i+2])<<16|uint32(k[i+3])<<24))
	}
	return dst
}

// String renders the set as "{1,5,9}" using raw tag identifiers.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", uint32(t))
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets calls fn for every non-empty subset of s with at least minSize
// tags, in an unspecified order. The Set passed to fn is reused between
// calls; fn must Clone it if it retains it. Enumeration uses bitmask
// iteration and therefore requires s.Len() <= 30; larger sets panic, which
// in this system cannot happen because documents carry few tags (the paper
// observes <10 and the parser enforces a cap). jaccard.CounterTable.Observe
// enforces the same limit: a document of n tags creates up to 2ⁿ−1
// counters.
func (s Set) Subsets(minSize int, fn func(Set)) {
	n := len(s)
	if n > 30 {
		panic(fmt.Sprintf("tagset: Subsets on set of %d tags", n))
	}
	if n == 0 {
		return
	}
	buf := make(Set, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		if bits.OnesCount32(uint32(mask)) < minSize {
			continue
		}
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				buf = append(buf, s[i])
			}
		}
		fn(buf)
	}
}
