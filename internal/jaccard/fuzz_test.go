package jaccard

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/tagset"
	"repro/internal/topselect"
)

// wideTags is a small tag universe (so co-occurrence is dense) whose ids
// straddle every byte boundary of the little-endian key encoding, where key
// order and numeric tag order disagree.
var wideTags = [16]tagset.Tag{
	0, 1, 2, 255, 256, 257, 511, 512,
	65535, 65536, 65537, 1 << 24, 1<<24 + 1, 1<<24 + 256, 1<<32 - 2, 1<<32 - 1,
}

// decodeDocs turns fuzz bytes into a deterministic document stream: each
// byte contributes one tag of wideTags and a high bit that ends the current
// document.
func decodeDocs(data []byte) [][]tagset.Tag {
	var docs [][]tagset.Tag
	var cur []tagset.Tag
	for _, b := range data {
		cur = append(cur, wideTags[b&0x0f])
		if b&0x80 != 0 || len(cur) >= 6 {
			docs = append(docs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		docs = append(docs, cur)
	}
	return docs
}

// referenceCoefficients is the definitional report Coefficients must equal
// as a set: Eq. 2 evaluated one tagset at a time through Count and
// UnionCount, over every distinct subset of at least two tags of the
// observed documents, ordered by descending J and then by the tagset key
// itself.
func referenceCoefficients(ct *CounterTable, docs []tagset.Set, minCN int64) []Coefficient {
	out := []Coefficient{}
	seen := map[tagset.Key]bool{}
	for _, d := range docs {
		d.Subsets(2, func(sub tagset.Set) {
			if seen[sub.Key()] {
				return
			}
			seen[sub.Key()] = true
			cn, union := ct.Count(sub), ct.UnionCount(sub)
			if cn < minCN || union <= 0 {
				return
			}
			out = append(out, Coefficient{Tags: sub.Clone(), J: float64(cn) / float64(union), CN: cn})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].J != out[j].J {
			return out[i].J > out[j].J
		}
		return out[i].Tags.Key() < out[j].Tags.Key()
	})
	return out
}

// sorted returns Coefficients' report in the reference's order.
func sorted(cs []Coefficient) []Coefficient {
	sortCoefficients(cs)
	return cs
}

// FuzzCounterTableCoefficients feeds arbitrary document streams into a
// CounterTable and checks the invariants of the Calculator's report: every
// coefficient is internally consistent with the table's counters (CN =
// intersection count, J = CN / inclusion–exclusion union, J in (0, 1]), the
// per-set Jaccard query round-trips to the same value, and the list is
// complete and duplicate-free: sorted, it equals referenceCoefficients
// element for element, and no two neighbours share a tagset. The report
// AppendCoefficients gives is the same one, with one fold per coefficient,
// the topselect.Fold of its tags that a Tracker indexes it by; after a
// Reset, the same documents observed in reverse order report the same
// coefficients, and the folds written over the first report's are again
// each one's topselect.Fold.
func FuzzCounterTableCoefficients(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x82})
	f.Add([]byte{0x01, 0x02, 0x83, 0x01, 0x02, 0x83})
	f.Add([]byte{0x11, 0x12, 0x93, 0x11, 0x94, 0x12, 0x94})
	f.Add([]byte{0x01, 0x01, 0x81, 0x02, 0x03, 0x04, 0x85, 0x0f, 0x8f})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		ct := NewCounterTable()
		var observed []tagset.Set
		var docs int64
		for _, tags := range decodeDocs(data) {
			s := tagset.New(tags...)
			ct.Observe(s)
			observed = append(observed, s)
			if !s.IsEmpty() {
				docs++
			}
		}
		if ct.Docs() != docs {
			t.Fatalf("Docs() = %d, observed %d non-empty documents", ct.Docs(), docs)
		}

		coeffs := sorted(ct.Coefficients(1))
		if want := referenceCoefficients(ct, observed, 1); !reflect.DeepEqual(coeffs, want) {
			t.Fatalf("Coefficients(1) = %v\nreference      = %v", coeffs, want)
		}
		for i, c := range coeffs {
			if c.Tags.Len() < 2 {
				t.Fatalf("coefficient %d over %d tags", i, c.Tags.Len())
			}
			if c.CN < 1 || c.CN > docs {
				t.Fatalf("coefficient %d: CN = %d with %d documents", i, c.CN, docs)
			}
			if c.CN != ct.Count(c.Tags) {
				t.Fatalf("coefficient %d: CN = %d, table counts %d", i, c.CN, ct.Count(c.Tags))
			}
			union := ct.UnionCount(c.Tags)
			if union < c.CN {
				t.Fatalf("coefficient %d: union %d below intersection %d", i, union, c.CN)
			}
			if want := float64(c.CN) / float64(union); c.J != want {
				t.Fatalf("coefficient %d: J = %g, want %d/%d", i, c.J, c.CN, union)
			}
			if c.J <= 0 || c.J > 1 {
				t.Fatalf("coefficient %d: J = %g outside (0, 1]", i, c.J)
			}
			if j, ok := ct.Jaccard(c.Tags); !ok || j != c.J {
				t.Fatalf("coefficient %d: Jaccard round-trip = (%g, %v), want (%g, true)", i, j, ok, c.J)
			}
			if i > 0 {
				prev := coeffs[i-1]
				if prev.J < c.J || (prev.J == c.J && prev.Tags.Key() >= c.Tags.Key()) {
					t.Fatalf("sorted report not strictly ordered at %d: {J:%g %v} after {J:%g %v}",
						i, c.J, c.Tags, prev.J, prev.Tags)
				}
			}
		}

		out, arena, folds := ct.AppendCoefficients(nil, nil, nil, 1)
		checkFolds(t, "first report", out, folds, coeffs)
		ct.Reset()
		for i := len(observed) - 1; i >= 0; i-- {
			ct.Observe(observed[i])
		}
		out, _, folds = ct.AppendCoefficients(out[:0], arena[:0], folds[:0], 1)
		checkFolds(t, "after a Reset", out, folds, coeffs)
	})
}

// checkFolds requires a report from AppendCoefficients to hold the sorted
// coefficients want and one fold per coefficient, its tags' topselect.Fold.
func checkFolds(t *testing.T, label string, out []Coefficient, folds []tagset.Fold, want []Coefficient) {
	t.Helper()
	if len(folds) != len(out) {
		t.Fatalf("%s: %d folds for %d coefficients", label, len(folds), len(out))
	}
	for i, c := range out {
		if want := topselect.Fold(c.Tags); folds[i] != want {
			t.Fatalf("%s: coefficient %d %v: fold %#x, topselect.Fold %#x", label, i, c.Tags, folds[i].A, want.A)
		}
	}
	if got := sorted(append([]Coefficient{}, out...)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AppendCoefficients = %v\nCoefficients      = %v", label, got, want)
	}
}
