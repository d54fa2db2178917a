package archive

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/jaccard"
	"repro/internal/tagset"
	"repro/internal/trend"
)

const decodePeriod int64 = 42

// segmentBytes frames records into a segment file image for decodePeriod.
func segmentBytes(records ...[]byte) []byte {
	data := append([]byte(segMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(data[8:], uint64(decodePeriod))
	for _, r := range records {
		data = append(data, r...)
	}
	return data
}

func coeffRecord(c jaccard.Coefficient) []byte {
	return appendRecord(nil, recCoeff, encodeCoeff(nil, c))
}

func trendRecord(ev trend.Event) []byte {
	return appendRecord(nil, recTrend, encodeTrend(nil, ev))
}

// referenceDecode is what decodeSegment must equal: the records taken one
// by one through readRecord and the allocating single-record decoders,
// last record per tagset winning in a plain map, ordered by sort.Slice.
func referenceDecode(data []byte, period int64) (coeffs []jaccard.Coefficient, trends []trend.Event, torn bool) {
	if len(data) < 16 || string(data[:8]) != segMagic ||
		int64(binary.LittleEndian.Uint64(data[8:16])) != period {
		return nil, nil, len(data) > 0
	}
	byKey := map[tagset.Key]jaccard.Coefficient{}
	evByKey := map[tagset.Key]trend.Event{}
	for off := 16; off < len(data); {
		kind, payload, next, ok := readRecord(data, off)
		if !ok {
			torn = true
			break
		}
		switch kind {
		case recCoeff:
			if c, err := decodeCoeff(payload); err == nil {
				byKey[c.Tags.Key()] = c
			} else {
				torn = true
			}
		case recTrend:
			if ev, err := decodeTrend(payload, period); err == nil {
				evByKey[ev.Tags.Key()] = ev
			} else {
				torn = true
			}
		}
		off = next
	}
	for _, c := range byKey {
		coeffs = append(coeffs, c)
	}
	sort.Slice(coeffs, func(i, j int) bool {
		x, y := coeffs[i], coeffs[j]
		if x.J != y.J {
			return x.J > y.J
		}
		if x.CN != y.CN {
			return x.CN > y.CN
		}
		return x.Tags.Key() < y.Tags.Key()
	})
	for _, ev := range evByKey {
		trends = append(trends, ev)
	}
	sort.Slice(trends, func(i, j int) bool {
		x, y := trends[i], trends[j]
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		return x.Tags.Key() < y.Tags.Key()
	})
	return coeffs, trends, torn
}

// TestDecodeSegmentMatchesReference holds the arena decode to the record
// by record one on the shapes that exercise it: re-reports (in-place
// overwrite, no second key), tag ids that fill one, two, three and four
// bytes (Compare's byte order is not numeric order), ties on J and CN that
// only the tag order breaks, a torn tail, an undecodable payload mid-file,
// and enough records to cross arena chunks.
func TestDecodeSegmentMatchesReference(t *testing.T) {
	set := func(tags ...tagset.Tag) tagset.Set { return tagset.New(tags...) }
	wide := []tagset.Set{
		set(1, 2), set(1, 256), set(255, 256), set(256, 65536), set(65535, 65536, 1<<24),
		set(1<<24, 1<<31), set(3, 300, 70000, 1<<25), set(2, 1),
	}
	var mixed [][]byte
	for i, s := range wide {
		mixed = append(mixed, coeffRecord(jaccard.Coefficient{Tags: s, J: 0.5, CN: 4})) // all tied: tag order decides
		mixed = append(mixed, trendRecord(trend.Event{Tags: s, Period: decodePeriod, Predicted: 0.1, Observed: 0.4, Score: 1.5, Rising: i%2 == 0, CN: 4}))
	}
	for _, s := range wide[:5] { // re-reports: CN upgrades and a corrected event
		mixed = append(mixed, coeffRecord(jaccard.Coefficient{Tags: s, J: 0.5, CN: 9}))
		mixed = append(mixed, trendRecord(trend.Event{Tags: s, Period: decodePeriod, Predicted: 0.1, Observed: 0.9, Score: 3, CN: 9}))
	}

	rng := rand.New(rand.NewSource(1))
	var many [][]byte
	for i := 0; i < 3*arenaChunk; i++ { // pairs and triples: well past one chunk of tags
		s := set(tagset.Tag(rng.Intn(400)), tagset.Tag(1000+rng.Intn(400)))
		if i%3 == 0 {
			s = set(s[0], s[1], tagset.Tag(1<<20+rng.Intn(50)))
		}
		many = append(many, coeffRecord(jaccard.Coefficient{Tags: s, J: float64(rng.Intn(20)) / 20, CN: int64(rng.Intn(5))}))
	}

	badPayload := appendRecord(nil, recCoeff, []byte{2, 0, 1, 0, 0, 0}) // announces two tags, carries one: framed fine, undecodable
	tornTail := coeffRecord(jaccard.Coefficient{Tags: set(7, 8), J: 0.9, CN: 1})
	tornTail = tornTail[:len(tornTail)-3]

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"header only", segmentBytes()},
		{"foreign period", append([]byte(segMagic), make([]byte, 8)...)},
		{"re-reports and wide tags", segmentBytes(mixed...)},
		{"undecodable payload mid-file", segmentBytes(append(append(mixed[:6:6], badPayload), mixed[6:]...)...)},
		{"torn tail", segmentBytes(append(mixed[:9:9], tornTail)...)},
		{"across arena chunks", segmentBytes(many...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := decodeSegment(tc.data, decodePeriod)
			coeffs, trends, torn := referenceDecode(tc.data, decodePeriod)
			if seg.Period != decodePeriod || seg.Torn != torn {
				t.Errorf("period %d torn %v, want %d and %v", seg.Period, seg.Torn, decodePeriod, torn)
			}
			if len(seg.Coeffs) != len(coeffs) || len(coeffs) > 0 && !reflect.DeepEqual(seg.Coeffs, coeffs) {
				t.Errorf("coefficients differ from the reference:\n%v\n%v", seg.Coeffs, coeffs)
			}
			if len(seg.Trends) != len(trends) || len(trends) > 0 && !reflect.DeepEqual(seg.Trends, trends) {
				t.Errorf("trend events differ from the reference:\n%v\n%v", seg.Trends, trends)
			}
			for _, want := range coeffs {
				if got, ok := seg.Coefficient(want.Tags.Key()); !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("Coefficient(%v) = %v, %v; want %v", want.Tags, got, ok, want)
				}
			}
			if _, ok := seg.Coefficient(set(1<<30, 1<<30+1).Key()); ok {
				t.Error("Coefficient answers for a tagset the segment never held")
			}

			// Arena hygiene: no slice has room a caller's append could
			// grow into, so a neighbour's tags cannot be scribbled over.
			var all []tagset.Set
			for _, c := range seg.Coeffs {
				all = append(all, c.Tags)
			}
			for _, ev := range seg.Trends {
				all = append(all, ev.Tags)
			}
			for _, s := range all {
				if cap(s) != len(s) {
					t.Fatalf("decoded tags %v have cap %d, len %d", s, cap(s), len(s))
				}
			}
			before := make([]tagset.Set, len(all))
			for i, s := range all {
				before[i] = s.Clone()
				_ = append(s, 0xdead)
			}
			for i, s := range all {
				if !s.Equal(before[i]) {
					t.Fatalf("an append to a neighbour changed %v into %v", before[i], s)
				}
			}
		})
	}
}

// benchSegment is a generated segment of n coefficient records over
// distinct pairs and triples, the shape of a sealed period's file.
func benchSegment(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	data := segmentBytes()
	var payload []byte
	for i := 0; i < n; i++ {
		tags := []tagset.Tag{tagset.Tag(i), tagset.Tag(n + rng.Intn(n))}
		if i%4 == 0 {
			tags = append(tags, tagset.Tag(2*n+rng.Intn(n)))
		}
		payload = encodeCoeff(payload[:0], jaccard.Coefficient{
			Tags: tagset.FromSorted(tags), J: rng.Float64(), CN: int64(1 + rng.Intn(50)),
		})
		data = appendRecord(data, recCoeff, payload)
	}
	return data
}

// BenchmarkDecodeSegment is the cold read of one sealed period: what a
// /history request pays on a segment-cache miss and the compactor pays per
// period it folds.
func BenchmarkDecodeSegment(b *testing.B) {
	data := benchSegment(45000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var seg *Segment
	for b.Loop() {
		seg = decodeSegment(data, decodePeriod)
	}
	if len(seg.Coeffs) != 45000 {
		b.Fatalf("decoded %d coefficients", len(seg.Coeffs))
	}
}
