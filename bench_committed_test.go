package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readJSON decodes a file of the repository root into v.
func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCommittedBaselinesMatchTheBenchmark keeps the committed baselines from
// going stale silently: BENCH_<workload>.json must be a runs.json of the
// benchmark BENCHMARK.json declares — one file per workload and no others,
// at least ten runs, every run correct with no failed operation, and one
// summary per end-to-end metric, no more and no fewer. It is the parity
// benchmark/parity_test.go checks for a run, applied to what is committed;
// CI's bench gate compares a fresh run against these files.
func TestCommittedBaselinesMatchTheBenchmark(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	var wantFiles, wantMetrics []string
	for _, w := range decl.Workloads {
		wantFiles = append(wantFiles, "BENCH_"+w.Name+".json")
	}
	for _, m := range decl.EndToEnd {
		wantMetrics = append(wantMetrics, m.Name)
	}
	slices.Sort(wantFiles)
	slices.Sort(wantMetrics)

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	if !slices.Equal(files, wantFiles) {
		t.Fatalf("committed baselines are %v, BENCHMARK.json's workloads need %v", files, wantFiles)
	}

	for _, file := range files {
		workload := strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json")
		var set struct {
			Runs    int
			Summary []struct{ Workload, Metric string }
			Reports []struct {
				Workload  string
				Correct   bool
				OpsFailed int64 `json:"ops_failed"`
			}
		}
		readJSON(t, file, &set)
		if set.Runs < 10 || len(set.Reports) != set.Runs {
			t.Errorf("%s: runs = %d with %d reports, want at least 10 and as many reports", file, set.Runs, len(set.Reports))
		}
		for i, rep := range set.Reports {
			if rep.Workload != workload || !rep.Correct || rep.OpsFailed != 0 {
				t.Errorf("%s: report %d is of %q, correct %v, %d operations failed", file, i, rep.Workload, rep.Correct, rep.OpsFailed)
			}
		}
		var metrics []string
		for _, sm := range set.Summary {
			if sm.Workload != workload {
				t.Errorf("%s: summary of %s on workload %q", file, sm.Metric, sm.Workload)
			}
			metrics = append(metrics, sm.Metric)
		}
		slices.Sort(metrics)
		if !slices.Equal(metrics, wantMetrics) {
			t.Errorf("%s summarises %v, BENCHMARK.json's end-to-end metrics are %v", file, metrics, wantMetrics)
		}
	}
}
