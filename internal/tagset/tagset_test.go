package tagset

import (
	"hash/fnv"
	"math/big"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Intersect returns the set of tags present in both s and o: the oracle
// IntersectLen and Union are checked against.
func (s Set) Intersect(o Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	if a == b {
		t.Fatalf("distinct strings interned to same id %d", a)
	}
	if got := d.Intern("a"); got != a {
		t.Errorf("re-intern of a = %d, want %d", got, a)
	}
	if d.String(a) != "a" || d.String(b) != "b" {
		t.Errorf("round trip failed: %q %q", d.String(a), d.String(b))
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup("c"); ok {
		t.Error("Lookup of unseen tag succeeded")
	}
	if id, ok := d.Lookup("b"); !ok || id != b {
		t.Errorf("Lookup(b) = %d,%v", id, ok)
	}
}

func TestDictionaryConcurrent(t *testing.T) {
	d := NewDictionary()
	done := make(chan struct{})
	words := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				w := words[i%len(words)]
				id := d.Intern(w)
				if d.String(id) != w {
					t.Errorf("round trip mismatch for %q", w)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if d.Len() != len(words) {
		t.Errorf("Len = %d, want %d", d.Len(), len(words))
	}
}

func TestNewCanonicalises(t *testing.T) {
	s := New(5, 1, 3, 5, 1)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New = %v, want %v", s, want)
	}
	if New().Len() != 0 {
		t.Error("New() not empty")
	}
}

func TestSetOps(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(2, 3, 7)
	tests := []struct {
		name string
		got  Set
		want Set
	}{
		{"intersect", a.Intersect(b), New(2, 3)},
		{"union", a.Union(b), New(1, 2, 3, 5, 7)},
		{"intersect empty", a.Intersect(New(9)), nil},
	}
	for _, tt := range tests {
		if !tt.got.Equal(tt.want) {
			t.Errorf("%s = %v, want %v", tt.name, tt.got, tt.want)
		}
	}
	if a.IntersectLen(b) != 2 {
		t.Errorf("IntersectLen = %d, want 2", a.IntersectLen(b))
	}
	if !a.Intersects(b) || a.Intersects(New(8, 9)) {
		t.Error("Intersects wrong")
	}
}

func TestSubsetContains(t *testing.T) {
	a := New(1, 2, 3)
	if !New(1, 3).SubsetOf(a) {
		t.Error("{1,3} should be subset of {1,2,3}")
	}
	if New(1, 4).SubsetOf(a) {
		t.Error("{1,4} should not be subset of {1,2,3}")
	}
	if !Set(nil).SubsetOf(a) {
		t.Error("empty set should be subset of anything")
	}
	if !a.Contains(2) || a.Contains(4) {
		t.Error("Contains wrong")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	s := New(0, 7, 1<<20, 1<<31)
	back := s.Key().Set()
	if !back.Equal(s) {
		t.Errorf("round trip = %v, want %v", back, s)
	}
	if New(1, 2).Key() == New(1, 3).Key() {
		t.Error("distinct sets share a key")
	}
}

func TestSubsetsEnumeration(t *testing.T) {
	s := New(1, 2, 3)
	var got []string
	s.Subsets(2, func(sub Set) {
		got = append(got, sub.String())
	})
	sort.Strings(got)
	want := []string{"{1,2,3}", "{1,2}", "{1,3}", "{2,3}"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Subsets(2) = %v, want %v", got, want)
	}

	n := 0
	s.Subsets(1, func(Set) { n++ })
	if n != 7 {
		t.Errorf("Subsets(1) visited %d, want 7", n)
	}
}

func TestSubsetsPanicsOnHugeSet(t *testing.T) {
	big := make(Set, 31)
	for i := range big {
		big[i] = Tag(i)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 31-tag set")
		}
	}()
	big.Subsets(2, func(Set) {})
}

func TestInternSetAndStrings(t *testing.T) {
	d := NewDictionary()
	s := d.InternSet([]string{"beer", "munich", "beer"})
	if s.Len() != 2 {
		t.Fatalf("InternSet len = %d, want 2", s.Len())
	}
	names := d.Strings(s)
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"beer", "munich"}) {
		t.Errorf("Strings = %v", names)
	}
}

// Property-based tests on the canonical-set invariants.

func randomSet(r *rand.Rand) Set {
	n := r.Intn(10)
	tags := make([]Tag, n)
	for i := range tags {
		tags[i] = Tag(r.Intn(40))
	}
	return New(tags...)
}

func TestQuickCanonical(t *testing.T) {
	f := func(raw []uint32) bool {
		tags := make([]Tag, len(raw))
		for i, v := range raw {
			tags[i] = Tag(v % 100)
		}
		s := New(tags...)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		// Every input tag must be present.
		for _, tg := range tags {
			if !s.Contains(tg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b := randomSet(r), randomSet(r)
		inter, uni := a.Intersect(b), a.Union(b)
		if inter.Len()+uni.Len() != a.Len()+b.Len() {
			t.Fatalf("|A∩B|+|A∪B| != |A|+|B| for %v %v", a, b)
		}
		if a.IntersectLen(b) != inter.Len() {
			t.Fatalf("counting mismatch for %v %v", a, b)
		}
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) || !a.SubsetOf(uni) {
			t.Fatalf("subset laws violated for %v %v", a, b)
		}
		if a.Intersects(b) != (inter.Len() > 0) {
			t.Fatalf("Intersects mismatch for %v %v", a, b)
		}
		if !a.Key().Set().Equal(a) {
			t.Fatalf("key round trip failed for %v", a)
		}
	}
}

func TestQuickSubsetsCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		s := randomSet(r)
		for minSize := 1; minSize <= 3; minSize++ {
			n := 0
			s.Subsets(minSize, func(sub Set) {
				if sub.Len() < minSize || !sub.SubsetOf(s) {
					t.Fatalf("bad subset %v of %v", sub, s)
				}
				n++
			})
			want := int64(0)
			for k := minSize; k <= s.Len(); k++ {
				want += new(big.Int).Binomial(int64(s.Len()), int64(k)).Int64()
			}
			if int64(n) != want {
				t.Fatalf("enumerated %d, want %d subsets of %v", n, want, s)
			}
		}
	}
}

func TestDictionaryNameUnknown(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	if got := d.Name(a); got != "alpha" {
		t.Errorf("Name(known) = %q", got)
	}
	// Tags beyond the interned range render as placeholders instead of
	// panicking — the /history path can see ids from a previous process.
	if got := d.Name(Tag(99)); got != "#99" {
		t.Errorf("Name(unknown) = %q", got)
	}
	if got := d.Names(New(a, Tag(7))); len(got) != 2 || got[1] != "#7" {
		t.Errorf("Names = %v", got)
	}
}

func TestDictionarySnapshotRoundTrip(t *testing.T) {
	d := NewDictionary()
	for _, s := range []string{"x", "y", "z"} {
		d.Intern(s)
	}
	rebuilt := NewDictionary()
	for _, s := range d.Snapshot() {
		rebuilt.Intern(s)
	}
	for _, s := range []string{"x", "y", "z"} {
		want, _ := d.Lookup(s)
		got, ok := rebuilt.Lookup(s)
		if !ok || got != want {
			t.Errorf("rebuilt id for %q = %d (ok=%v), want %d", s, got, ok, want)
		}
	}
}

// TestCompareMatchesKeyOrder checks that Compare orders sets exactly as
// their Keys compare as strings: on tags around every byte boundary of the
// little-endian encoding (where that order and numeric tag order disagree),
// on proper prefixes, on equal sets and on random pairs.
func TestCompareMatchesKeyOrder(t *testing.T) {
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	check := func(a, b Set) {
		t.Helper()
		want := strings.Compare(string(a.Key()), string(b.Key()))
		if got := Compare(a, b); sign(got) != want {
			t.Errorf("Compare(%v, %v) = %d, keys compare %d", a, b, got, want)
		}
		if got := Compare(b, a); sign(got) != -want {
			t.Errorf("Compare(%v, %v) = %d, keys compare %d", b, a, got, -want)
		}
	}
	if Compare(New(256), New(1)) >= 0 {
		t.Error("tag 256 (bytes 00 01 00 00) must sort before tag 1 (01 00 00 00)")
	}
	edges := []Tag{0, 1, 2, 255, 256, 257, 511, 512, 65535, 65536, 65537, 1 << 24, 1<<24 + 1, 1<<32 - 1}
	r := rand.New(rand.NewSource(5))
	randomWide := func() Set {
		tags := make([]Tag, r.Intn(7))
		for i := range tags {
			tags[i] = edges[r.Intn(len(edges))]
		}
		return New(tags...)
	}
	for i := 0; i < 5000; i++ {
		a, b := randomWide(), randomWide()
		check(a, b)
		check(a, a[:r.Intn(len(a)+1)]) // proper prefix, or a itself
		check(randomSet(r), randomSet(r))
	}
}

// TestSortByMatchesCompare checks SortBy against a comparison sort by
// Compare on distinct sets drawn around the byte boundaries of the key
// encoding, so that many share leading tags — past three and six, where
// SortBy recurses — or are proper prefixes of others (the empty set and tag
// 0 included), in lists short and long.
func TestSortByMatchesCompare(t *testing.T) {
	edges := []Tag{0, 1, 2, 3, 4, 255, 256, 257, 512, 65535, 65536, 1 << 24, 1<<24 + 1, 1<<32 - 1}
	r := rand.New(rand.NewSource(9))
	type item struct {
		tags Set
		id   int
	}
	for _, n := range []int{0, 1, 2, 3, 50, 3000} {
		seen := map[Key]bool{}
		var items []item
		for len(items) < n {
			tags := make([]Tag, r.Intn(9)) // runs sharing three or six tags recurse
			if r.Intn(2) == 0 {
				copy(tags, edges[:3]) // many share their first tags
			}
			for i := range tags {
				tags[i] = edges[r.Intn(len(edges))]
			}
			if s := New(tags...); !seen[s.Key()] {
				seen[s.Key()] = true
				items = append(items, item{s, len(items)})
			}
		}
		want := slices.Clone(items)
		slices.SortFunc(want, func(a, b item) int { return Compare(a.tags, b.tags) })
		SortBy(items, func(it item) Set { return it.tags })
		if !reflect.DeepEqual(items, want) {
			t.Fatalf("n=%d: SortBy order differs from Compare:\n got %v\nwant %v", n, items, want)
		}
	}
}

// TestCompareAllocations guards the point of Compare: it builds no key. The
// collector is off while it counts: a cycle allocates on its own account.
func TestCompareAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a, b := New(1, 256, 70000, 1<<24), New(1, 256, 70000, 1<<24+1)
	sink := 0
	if got := testing.AllocsPerRun(100, func() { sink += Compare(a, b) }); got != 0 {
		t.Errorf("Compare allocates %.0f times per call", got)
	}
	if sink >= 0 {
		t.Errorf("Compare(%v, %v) sums to %d over the runs, want negative", a, b, sink)
	}
}

// TestKeyForms checks every form of the key against Key itself on sets with
// tags in every byte of the encoding: AppendKey appends Key's bytes after
// what dst already holds, and KeyHash is Key.Hash, the FNV-1a of hash/fnv.
func TestKeyForms(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tags := make([]Tag, r.Intn(7))
		for j := range tags {
			tags[j] = Tag(r.Uint32() >> (8 * r.Intn(4)))
		}
		s := New(tags...)
		if got := string(s.AppendKey([]byte("x"))); got != "x"+string(s.Key()) {
			t.Fatalf("AppendKey(%v) = %q, want x + %q", s, got, s.Key())
		}
		want := fnv.New64a()
		want.Write([]byte(s.Key()))
		if got := s.KeyHash(); got != s.Key().Hash() || got != want.Sum64() {
			t.Fatalf("KeyHash(%v) = %#x, Key.Hash = %#x, fnv.New64a = %#x", s, got, s.Key().Hash(), want.Sum64())
		}
	}
}

// fold sums FoldTag over s, the definition of a set's Fold.
func fold(s Set) Fold {
	var f Fold
	for _, t := range s {
		f = f.Add(FoldTag(t))
	}
	return f
}

// TestFold checks the properties the counter table relies on: a set's fold
// does not depend on the order its tags are added in, the empty set folds
// to zero, and distinct sets of a small universe with tags in every byte of
// the encoding get distinct folds (equal folds would be legal, but at 2⁻⁶⁴
// per pair they would point to a broken mix).
func TestFold(t *testing.T) {
	if fold(nil) != (Fold{}) {
		t.Fatalf("empty set folds to %v", fold(nil))
	}
	universe := New(0, 1, 2, 255, 256, 257, 65535, 65536, 1<<24, 1<<24+1, 1<<31, 1<<32-1)
	seenA := map[uint64]Set{}
	universe.Subsets(1, func(sub Set) {
		f := fold(sub)
		var back Fold
		for i := len(sub) - 1; i >= 0; i-- {
			back = FoldTag(sub[i]).Add(back)
		}
		if back != f {
			t.Fatalf("fold of %v depends on tag order: %v and %v", sub, f, back)
		}
		if prev, ok := seenA[f.A]; ok {
			t.Fatalf("%v and %v share their fold", prev, sub)
		}
		seenA[f.A] = sub.Clone()
	})
}
