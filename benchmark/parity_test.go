package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"repro/benchmark/kit"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program's tables must say the same thing: the
// same workloads with the same reasons, the same metrics with the same
// units, directions and bounds, the same window.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default window is %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

func sortedNames(m map[string]kit.Value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct {
		t.Errorf("report is not correct: %d of %d operations failed: %v", rep.OpsFailed, rep.OpsAttempted, rep.Problems)
	}
	got, want := sortedNames(rep.Metrics), defNames(defs)
	if len(got) != len(want) {
		t.Fatalf("run reported %d metrics, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("metric %d is %q, want %q", i, got[i], want[i])
		}
	}
	for name, v := range rep.Metrics {
		d, _ := defByName(defs, name)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s is %v", name, v.Value)
		}
		if v.N < 1 {
			t.Errorf("%s carries no sample count", name)
		}
		if v.Unit != d.Unit {
			t.Errorf("%s has unit %q, want %q", name, v.Unit, d.Unit)
		}
	}
}

// A short run must report exactly the end-to-end metrics BENCHMARK.json
// names, each a finite number with a sample count.
func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	w, err := lookupWorkload("ingest-durable")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runUntraced(w, options{seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, endToEnd)
}

// The same for -trace 1 and the per-layer metrics, with the layer replay
// built into a scratch directory, where the run must also leave its trace.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the layer replay and runs it: about 20 s")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, layersBinary)
	if out, err := exec.Command("go", "build", "-o", bin, "./layers").CombinedOutput(); err != nil {
		t.Fatalf("building the layer replay: %v\n%s", err, out)
	}
	w, err := lookupWorkload("serve-paced")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced(w, options{seed: 1, seconds: 9, trace: 1, out: dir, layers: bin})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, perLayer)
	data, err := os.ReadFile(filepath.Join(dir, "trace-serve-paced.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf kit.TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, sp := range tf.Spans {
		seen[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
	}
	for _, name := range []string{"gate", "feed.period", "period.close", "alert", "snapshot.poll",
		"restore.load", "restore.adopt", "query.stats", "layers.replay", "Tracker.Execute", "server/stats", "server/history/topk(live)"} {
		if !seen[name] {
			t.Errorf("trace holds no %q span", name)
		}
	}
}
