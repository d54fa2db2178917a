// Command benchmark is the repository's benchmark: four workloads pushed
// through the whole service (pipeline, serving layer, archive, restore) in
// process, reported as the end-to-end metrics BENCHMARK.json names, and,
// with -trace 1, as per-layer metrics from a traced run plus a replay of
// every layer's public functions over the workload's own stream.
//
// One invocation with -workload runs that workload in this process and
// prints, as the last line of standard output, the result object the
// benchmark contract asks for. Without -workload, or with -runs above 1,
// the program re-executes itself once per workload and run (a clean heap
// and a VmHWM of its own for each) and prints the medians and quartiles.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/benchmark/kit"
)

// runSeconds is the nominal window BENCHMARK.json fixes (run_seconds).
const runSeconds = 20

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	out        string
	runs       int
	compare    bool
	cpuProfile string
	memProfile string
	// layers is the layer replay's executable (no flag: it sits next to
	// this program's; tests build it elsewhere).
	layers string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the stream and the query schedules")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "nominal length of the measured window: it sizes the work (rate x seconds documents and requests)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run at a third of the window plus the layer replay, per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory for report-*.json, trace-*.json and runs.json")
	fs.IntVar(&o.runs, "runs", 1, "repeat the workload set this many times on the same seed and report medians and quartiles")
	fs.BoolVar(&o.compare, "compare", false, "compare two runs.json files given as arguments: base, then change")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the workload to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile of the workload to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two runs.json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.workload != "" && o.runs == 1 {
		return runOne(o, stdout, stderr)
	}
	return runMany(o, stdout, stderr)
}

// report is the full account of one workload run: every metric with its
// sample count, the diagnostics that are not metrics, and what is needed
// to repeat the run.
type report struct {
	Workload     string               `json:"workload"`
	Why          string               `json:"why"`
	Seed         int64                `json:"seed"`
	StreamHash   string               `json:"stream_hash"`
	Seconds      float64              `json:"seconds"`
	Trace        bool                 `json:"trace"`
	NProc        int                  `json:"nproc"`
	GoVersion    string               `json:"go_version"`
	Config       configEcho           `json:"config"`
	Correct      bool                 `json:"correct"`
	OpsAttempted int64                `json:"ops_attempted"`
	OpsFailed    int64                `json:"ops_failed"`
	Problems     []string             `json:"problems,omitempty"`
	Metrics      map[string]kit.Value `json:"metrics"`
	Diagnostics  map[string]float64   `json:"diagnostics"`
	SelfTimes    []kit.SelfTime       `json:"self_times,omitempty"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process.
func runOne(o options, stdout, stderr io.Writer) int {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	rep, err := runProfiled(w, o)
	if err == nil {
		printTable(stderr, rep)
		err = rep.print(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runProfiled runs the workload, traced or not, under the profiles asked
// for.
func runProfiled(w workload, o options) (*report, error) {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	run := runUntraced
	if o.trace == 1 {
		run = runTraced
	}
	rep, err := run(w, o)
	if err != nil {
		return nil, err
	}
	if o.memProfile != "" {
		runtime.GC()
		f, err := os.Create(o.memProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// print writes the full report (one line, and to -out) and then the
// contract's result line.
func (r *report) print(o options, stdout io.Writer) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if o.out != "" {
		name := fmt.Sprintf("report-%s-seed%d.json", r.Workload, r.Seed)
		if r.Trace {
			name = fmt.Sprintf("report-%s-seed%d-trace.json", r.Workload, r.Seed)
		}
		if err := os.WriteFile(filepath.Join(o.out, name), full, 0o644); err != nil {
			return err
		}
	}
	res := result{Correct: r.Correct, Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: make(map[string]resultValue)}
	for name, v := range r.Metrics {
		res.Metrics[name] = resultValue{Value: v.Value, Unit: v.Unit}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return err
}

func newReport(w workload, o options, m *measurement, cfg configEcho) *report {
	return &report{
		Workload:    w.Name,
		Why:         w.Why,
		Seed:        o.seed,
		StreamHash:  fmt.Sprintf("%016x", m.streamHash),
		Seconds:     o.seconds,
		Trace:       o.trace == 1,
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Config:      cfg,
		Diagnostics: make(map[string]float64),
	}
}

// exercised says whether a workload of this configuration can fill a
// per-layer metric. One that it cannot is reported as 0 over no samples:
// restores and checkpoint timings need an archive, the history latencies a
// history issuer, feed lateness a paced feed.
func exercised(cfg configEcho, name string) bool {
	switch name {
	case "restore_s", "core.restore_load_ms", "core.restore_adopt_ms",
		"archive.checkpoint_build_ms_p50", "archive.checkpoint_fsync_ms_p50":
		return cfg.Durable
	case "query_hist_p50_ms", "query_hist_p90_ms":
		return cfg.HistQPS > 0
	case "harness.feed_late_p99_ms":
		return !cfg.ClosedLoop
	}
	return true
}

// finish settles a report's verdict: every named metric must be there and
// measured, and no operation may have failed.
func (r *report) finish(defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			r.OpsFailed++
			r.Problems = append(r.Problems, "metric "+d.Name+" was not reported")
		case v.N == 0 && !exercised(r.Config, d.Name):
		case v.N == 0:
			r.OpsFailed++
			r.Problems = append(r.Problems, "metric "+d.Name+" has no samples")
		}
	}
	for name := range r.Metrics {
		if _, ok := defByName(defs, name); !ok {
			r.OpsFailed++
			r.Problems = append(r.Problems, "metric "+name+" is not in BENCHMARK.json")
		}
	}
	r.Correct = r.OpsFailed == 0
}

// runUntraced is the run every end-to-end number comes from.
func runUntraced(w workload, o options) (*report, error) {
	clock := kit.StartHostClock()
	m, err := measure(runSpec{w: w, seed: o.seed, seconds: o.seconds, setups: 3, restores: 3, clock: clock})
	clock.Stop()
	if err != nil {
		return nil, err
	}
	rep := newReport(w, o, m, echoConfig(w, m.cfg, o.seconds, m.stormClients))
	rep.Metrics = withUnits(m.endToEndValues(), endToEnd)
	rep.OpsAttempted, rep.OpsFailed, rep.Problems = m.attempted, m.failed, m.problems
	m.diagnostics(rep.Diagnostics)
	rep.finish(endToEnd)
	return rep, nil
}

// diagnostics are the numbers worth seeing beside the metrics: they explain
// a metric or show the run did the work it was meant to.
func (m *measurement) diagnostics(d map[string]float64) {
	d["window_s"] = m.window.seconds()
	d["finish_s"] = m.finishS
	d["credit_wait_s"] = m.creditS
	d["feed_late_p99_ms"] = kit.Quantile(m.feedLateMS, 0.99)
	d["query_late_p99_ms"] = kit.Quantile(m.queryLateMS, 0.99)
	d["alert_events"] = float64(len(m.alertLagMS))
	d["alert_periods"] = float64(len(m.periodLagP50))
	d["pair_misses"] = float64(m.requests.pairMisses)
	// The host's speed over the window, and the readings it was applied
	// to, as measured.
	d["host_speed"] = m.speed(m.window)
	d["raw.cpu_us_per_doc"] = m.cpuS * 1e6 / float64(m.feedDocs)
	d["raw.ingest_docs_per_s"] = float64(m.feedDocs) / m.window.seconds()
	if !m.storm.from.IsZero() {
		d["raw.read_qps"] = float64(m.stormRequests) / m.storm.seconds()
		d["storm_s"] = m.storm.seconds()
	}
	d["setup_gate_s"] = kit.Median(secondsOf(m.setups))
	if !m.preload.from.IsZero() {
		d["raw.preload_s"] = m.preload.seconds()
	}
	if m.spec.spans == nil { // the traced run reports them as metrics
		for name, v := range m.serviceValues() {
			if v.N > 0 {
				d[name] = v.Value
			}
		}
	}
	d["partition_install_ms"] = m.installMS
	d["requests"] = float64(m.requests.attempted)
	for r, n := range m.requests.byRoute {
		if n > 0 {
			d["requests."+routeNames[r]] = float64(n)
		}
	}
	if m.final != nil {
		d["docs_processed"] = float64(m.final.DocsProcessed)
		d["docs_before_install"] = float64(m.final.DocsBeforeInstall)
		d["notified_docs"] = float64(m.final.NotifiedDocs)
		d["coefficients_received"] = float64(m.final.CoefficientsReceived)
		d["periods_retained"] = float64(len(m.final.Periods))
	}
	if m.refDone {
		d["reference_coverage"] = m.refCover
		d["reference_mean_abs_err"] = m.refMAE
	}
	for k, v := range d {
		if v != v { // NaN: no samples
			delete(d, k)
		}
	}
}

func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v stream=%s nproc=%d %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.StreamHash, rep.NProc, rep.GoVersion)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.4f %-7s n=%d\n", n, v.Value, v.Unit, v.N)
	}
	names = names[:0]
	for n := range rep.Diagnostics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  (%s = %.4f)\n", n, rep.Diagnostics[n])
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d correct=%v\n", rep.OpsAttempted, rep.OpsFailed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
}

// runMany re-executes this program once per workload and run, collects the
// children's reports, and prints per workload and metric the values with
// their median and quartiles.
func runMany(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var names []string
	if o.workload != "" {
		if _, err := lookupWorkload(o.workload); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		names = []string{o.workload}
	} else {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	set := runSet{Seconds: o.seconds, Trace: o.trace == 1, Seed: o.seed, Runs: o.runs}
	status := 0
	for _, name := range names {
		for r := 0; r < o.runs; r++ {
			seed := o.seed
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			tag := fmt.Sprintf("-%s-run%d", name, r+1)
			if o.cpuProfile != "" {
				args = append(args, "-cpuprofile", o.cpuProfile+tag)
			}
			if o.memProfile != "" {
				args = append(args, "-memprofile", o.memProfile+tag)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d printed no report: %v\n", name, r+1, err)
				status = 1
				continue
			}
			if err != nil || !rep.Correct {
				status = 1
			}
			set.Reports = append(set.Reports, rep)
		}
	}
	set.summarise()
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		if err := os.WriteFile(filepath.Join(o.out, "runs.json"), data, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	set.print(stderr)
	fmt.Fprintf(stdout, "%s\n", data)
	return status
}
