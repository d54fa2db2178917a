package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/benchmark/kit"
)

// runSet is what -runs writes as runs.json and -compare reads: every
// child's report plus, per workload and metric, the values' median and
// quartiles.
type runSet struct {
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Seed    int64     `json:"seed"`
	Runs    int       `json:"runs"`
	Summary []summary `json:"summary"`
	Reports []report  `json:"reports"`
}

// summary is one metric on one workload over the set's runs. Spread is the
// distance between the quartiles as a share of the median, the measure the
// benchmark's steadiness criterion uses.
type summary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
}

func (s *runSet) summarise() {
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	units := make(map[key]string)
	var order []key
	for _, rep := range s.Reports {
		names := make([]string, 0, len(rep.Metrics))
		for n := range rep.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k := key{rep.Workload, n}
			if _, seen := values[k]; !seen {
				order = append(order, k)
			}
			values[k] = append(values[k], rep.Metrics[n].Value)
			units[k] = rep.Metrics[n].Unit
		}
	}
	s.Summary = s.Summary[:0]
	for _, k := range order {
		q1, q2, q3 := kit.Quartiles(values[k])
		sm := summary{Workload: k.workload, Metric: k.metric, Unit: units[k], Values: values[k], Q1: q1, Median: q2, Q3: q3}
		if q2 != 0 {
			sm.Spread = (q3 - q1) / q2
		}
		s.Summary = append(s.Summary, sm)
	}
}

func (s *runSet) print(w io.Writer) {
	fmt.Fprintf(w, "%-15s %-36s %12s %12s %12s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, sm := range s.Summary {
		bound := ""
		if d, ok := defByName(endToEnd, sm.Metric); ok {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-15s %-36s %12.4f %12.4f %12.4f %7.1f%% %7s\n",
			sm.Workload, sm.Metric, sm.Q1, sm.Median, sm.Q3, sm.Spread*100, bound)
	}
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, per workload and metric, the change's median over
// the base's with its base, and a verdict against the benchmark's own
// bound: ok, worse (the change's median is worse than the base's by more
// than the bound), or unresolved (either side's spread exceeds the bound,
// so the runs cannot tell). Per-layer metrics have no bound and get no
// verdict. A metric that only one of the two sets holds is called missing.
// The exit status is 1 if any verdict is worse or any metric is missing.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := readRunSet(basePath)
	if err == nil && len(base.Summary) == 0 {
		err = fmt.Errorf("%s: no summary (is it a runs.json?)", basePath)
	}
	var change *runSet
	if err == nil {
		change, err = readRunSet(changePath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	find := func(s *runSet, workload, metric string) (summary, bool) {
		for _, sm := range s.Summary {
			if sm.Workload == workload && sm.Metric == metric {
				return sm, true
			}
		}
		return summary{}, false
	}
	status := 0
	fmt.Fprintf(stdout, "%-15s %-36s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "base", "change", "ratio", "spread", "bound", "verdict")
	for _, b := range base.Summary {
		c, ok := find(change, b.Workload, b.Metric)
		if !ok {
			fmt.Fprintf(stdout, "%-15s %-36s %12.4f %12s %44s\n", b.Workload, b.Metric, b.Median, "-", "missing in change")
			status = 1
			continue
		}
		ratio := 0.0
		if b.Median != 0 {
			ratio = c.Median / b.Median
		}
		spread := b.Spread
		if c.Spread > spread {
			spread = c.Spread
		}
		verdict, bound := "", ""
		if d, ok := defByName(endToEnd, b.Metric); ok {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				status = 1
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(stdout, "%-15s %-36s %12.4f %12.4f %8.3f %7.1f%% %8s  %s\n",
			b.Workload, b.Metric, b.Median, c.Median, ratio, spread*100, bound, verdict)
	}
	for _, c := range change.Summary {
		if _, ok := find(base, c.Workload, c.Metric); !ok {
			fmt.Fprintf(stdout, "%-15s %-36s %12s %12.4f %44s\n", c.Workload, c.Metric, "-", c.Median, "missing in base")
			status = 1
		}
	}
	return status
}
