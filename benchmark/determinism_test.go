package main

import (
	"reflect"
	"testing"

	"repro/benchmark/kit"
)

// Equal seeds must give the same inputs: the same stream, document for
// document, and the same query schedules. Another seed must give others.
func TestStreamDeterminism(t *testing.T) {
	for _, shape := range []kit.Shape{kit.Narrow, kit.Wide} {
		a, err := kit.Generate(shape, 1, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kit.Generate(shape, 1, 5000)
		if err != nil {
			t.Fatal(err)
		}
		c, err := kit.Generate(shape, 2, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash {
			t.Errorf("%s: seed 1 hashed to %x and %x", shape, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", shape, a.Hash)
		}
	}
	narrow, _ := kit.Generate(kit.Narrow, 1, 5000)
	wide, _ := kit.Generate(kit.Wide, 1, 5000)
	if narrow.Hash == wide.Hash {
		t.Error("the narrow and the wide stream are the same")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	schedules := map[string]func(seed int64) []request{
		"live":  func(seed int64) []request { return liveSchedule(seed, 50, 4) },
		"hist":  func(seed int64) []request { return histSchedule(seed, 5, 4) },
		"storm": func(seed int64) []request { return stormSchedule(seed, 1000) },
	}
	for name, gen := range schedules {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave two schedules", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
	}
}

// An open-loop schedule holds exactly rate times window requests, all due
// inside the window, in order, every route of the mix in every deal.
func TestOpenScheduleShape(t *testing.T) {
	const qps, seconds = 50.0, 4.0
	s := liveSchedule(1, qps, seconds)
	if len(s) != int(qps*seconds) {
		t.Fatalf("%d requests, want %d", len(s), int(qps*seconds))
	}
	counts := make(map[route]int)
	for i, rq := range s {
		if rq.Due < 0 || rq.Due.Seconds() >= seconds {
			t.Errorf("request %d is due at %v, outside the %gs window", i, rq.Due, seconds)
		}
		if i > 0 && rq.Due < s[i-1].Due {
			t.Errorf("request %d is due before request %d", i, i-1)
		}
		counts[rq.Route]++
	}
	if counts[rTopK100] == 0 || counts[rTopK100] > int(seconds)+1 {
		t.Errorf("%d /topk?k=100 requests in %gs, want about one a second", counts[rTopK100], seconds)
	}
	for _, r := range []route{rTrends20, rPair, rTrendLookup, rStats} {
		if counts[r] != len(s)/len(liveRoutes) {
			t.Errorf("route %s: %d requests, want %d", routeNames[r], counts[r], len(s)/len(liveRoutes))
		}
	}
}

func TestStormMixSharesSumToHundred(t *testing.T) {
	total := 0
	for _, m := range stormMix {
		total += m.Share
	}
	if total != 100 {
		t.Errorf("storm mix shares sum to %d", total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q2, q3 := kit.Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}
