package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/kit"
)

func runSetOf(workload, metric, unit string, values ...float64) *runSet {
	s := &runSet{Runs: len(values)}
	for i, v := range values {
		s.Reports = append(s.Reports, report{
			Workload: workload,
			Seed:     int64(i + 1),
			Metrics:  map[string]kit.Value{metric: {Value: v, Unit: unit, N: 1}},
		})
	}
	s.summarise()
	return s
}

func writeRunSet(t *testing.T, dir, name string, s *runSet) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -compare must call a change inside the bound ok, one beyond it worse (in
// the metric's own direction), and refuse a verdict when the runs of either
// side spread wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := writeRunSet(t, dir, "base.json", runSetOf("serve-paced", "rss_peak_mb", "MB", 100, 101, 99, 100, 102))
	for _, tc := range []struct {
		name    string
		change  *runSet
		verdict string
		status  int
	}{
		{"same", runSetOf("serve-paced", "rss_peak_mb", "MB", 101, 100, 102, 99, 100), "ok", 0},
		{"better", runSetOf("serve-paced", "rss_peak_mb", "MB", 50, 51, 49, 50, 52), "ok", 0},
		{"worse", runSetOf("serve-paced", "rss_peak_mb", "MB", 140, 141, 139, 140, 142), "worse", 1},
		{"noisy", runSetOf("serve-paced", "rss_peak_mb", "MB", 60, 100, 140, 180, 220), "unresolved", 0},
	} {
		change := writeRunSet(t, dir, tc.name+".json", tc.change)
		var out, errs bytes.Buffer
		status := compareFiles(base, change, &out, &errs)
		if status != tc.status {
			t.Errorf("%s: exit status %d, want %d\n%s%s", tc.name, status, tc.status, out.String(), errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasSuffix(last, tc.verdict) {
			t.Errorf("%s: verdict line %q, want it to end in %q", tc.name, last, tc.verdict)
		}
	}

	// A metric that only one side reports is an error, whichever side.
	other := writeRunSet(t, dir, "other.json", runSetOf("serve-paced", "setup_s", "s", 1, 1, 1, 1, 1))
	for _, pair := range [][2]string{{base, other}, {other, base}} {
		var out, errs bytes.Buffer
		if status := compareFiles(pair[0], pair[1], &out, &errs); status != 1 ||
			!strings.Contains(out.String(), "missing in change") || !strings.Contains(out.String(), "missing in base") {
			t.Errorf("comparing sets with different metrics: status %d\n%s", status, out.String())
		}
	}

	// "higher is better" flips the direction.
	base = writeRunSet(t, dir, "qps.json", runSetOf("read-storm", "ingest_docs_per_s", "docs/s", 1000, 1010, 990, 1000, 1020))
	drop := writeRunSet(t, dir, "drop.json", runSetOf("read-storm", "ingest_docs_per_s", "docs/s", 600, 610, 590, 600, 620))
	var out, errs bytes.Buffer
	if status := compareFiles(base, drop, &out, &errs); status != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% drop of ingest_docs_per_s: status %d\n%s", status, out.String())
	}
}
