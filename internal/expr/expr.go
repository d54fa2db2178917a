// Package expr is the experiment harness: it re-runs the paper's evaluation
// (Section 8, Figures 3–9 plus the Section 5 theory table) on the synthetic
// stream and prints the same rows and series the paper plots.
//
// A Suite lazily runs and caches experiment cells — one cell is a full
// pipeline run for one (algorithm, k, P, thr, tps) combination — so that
// every figure drawing on the default parameter setting shares a single
// run, as the paper's figures do.
package expr

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/jaccard"
	"repro/internal/operators"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

// Params identifies one experiment cell. The zero-value fields are filled
// from the paper's defaults (P=10, k=10, thr=0.5, tps=1300) by normalise.
type Params struct {
	Algorithm partition.Algorithm
	K         int
	P         int
	Thr       float64
	TPS       int

	// Minutes is the virtual length of the streamed input; the paper
	// streams 6 hours, the default here keeps runs tractable.
	Minutes float64
	Seed    int64
}

func (p Params) normalise(def Defaults) Params {
	if p.K == 0 {
		p.K = 10
	}
	if p.P == 0 {
		p.P = 10
	}
	if p.Thr == 0 {
		p.Thr = 0.5
	}
	if p.TPS == 0 {
		p.TPS = 1300
	}
	if p.Minutes == 0 {
		p.Minutes = def.Minutes
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

// Defaults configures suite-wide run length and seed, plus optional
// overrides of the pipeline's window/reporting cadence (zero keeps the
// paper's 5-minute defaults). Tests and benchmarks shrink the cadence to
// keep cells fast; the figures use the paper values.
type Defaults struct {
	Minutes float64
	Seed    int64

	WindowSpan  stream.Millis
	ReportEvery stream.Millis
	StatsEvery  int
}

// CellResult is the outcome of one pipeline run with its accuracy
// comparison against the centralized baseline.
type CellResult struct {
	Params Params

	Communication float64 // Fig 3: avg notifications per notified document
	LoadGini      float64 // Fig 4: Gini of cumulative per-Calculator load
	MeanAbsError  float64 // Fig 5: mean |J_dist - J_central| on matched tagsets
	Coverage      float64 // Fig 5 text: fraction of baseline tagsets reported

	Repartitions int // Fig 6 (post-bootstrap)
	CauseComm    int
	CauseLoad    int
	CauseBoth    int

	SingleAdditions int
	Merges          int

	Dissem *operators.DissemStats // Figures 8 and 9 time series
}

// Suite runs and caches cells over a shared synthetic stream configuration.
type Suite struct {
	def Defaults
	gen func(tps int, seed int64) twitgen.Config

	mu      sync.Mutex
	cells   map[string]*CellResult
	streams map[string][]stream.Document
}

// NewSuite returns a suite with the given run length (minutes of virtual
// time) and base seed. genCfg may be nil for the default generator tuning.
func NewSuite(def Defaults, genCfg func(tps int, seed int64) twitgen.Config) *Suite {
	if def.Minutes <= 0 {
		def.Minutes = 60
	}
	if def.Seed == 0 {
		def.Seed = 1
	}
	if genCfg == nil {
		genCfg = func(tps int, seed int64) twitgen.Config {
			c := twitgen.Default()
			c.TPS = tps
			c.Seed = seed
			return c
		}
	}
	return &Suite{
		def:     def,
		gen:     genCfg,
		cells:   make(map[string]*CellResult),
		streams: make(map[string][]stream.Document),
	}
}

// docs returns (cached) the generated document slice for a stream config.
func (s *Suite) docs(tps int, seed int64, minutes float64) []stream.Document {
	key := fmt.Sprintf("%d/%d/%g", tps, seed, minutes)
	s.mu.Lock()
	if d, ok := s.streams[key]; ok {
		s.mu.Unlock()
		return d
	}
	s.mu.Unlock()

	cfg := s.gen(tps, seed)
	g, err := twitgen.New(cfg, tagset.NewDictionary())
	if err != nil {
		panic(fmt.Sprintf("expr: generator config: %v", err))
	}
	limit := stream.Minutes(minutes)
	var docs []stream.Document
	for {
		d := g.Next()
		if d.Time >= limit {
			break
		}
		docs = append(docs, d)
	}

	s.mu.Lock()
	s.streams[key] = docs
	s.mu.Unlock()
	return docs
}

// Cell runs (or returns the cached result of) one experiment cell.
func (s *Suite) Cell(p Params) *CellResult {
	p = p.normalise(s.def)
	key := fmt.Sprintf("%s/%d/%d/%g/%d/%g/%d", p.Algorithm, p.K, p.P, p.Thr, p.TPS, p.Minutes, p.Seed)
	s.mu.Lock()
	if r, ok := s.cells[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()

	r := s.run(p)

	s.mu.Lock()
	s.cells[key] = r
	s.mu.Unlock()
	return r
}

// run executes the distributed pipeline and the centralized baseline on the
// same documents and assembles the cell result.
func (s *Suite) run(p Params) *CellResult {
	docs := s.docs(p.TPS, p.Seed, p.Minutes)

	cfg := core.DefaultConfig()
	cfg.Algorithm = p.Algorithm
	cfg.K = p.K
	cfg.P = p.P
	cfg.Thr = p.Thr
	cfg.Seed = p.Seed
	if s.def.WindowSpan > 0 {
		cfg.WindowSpan = s.def.WindowSpan
	}
	if s.def.ReportEvery > 0 {
		cfg.ReportEvery = s.def.ReportEvery
	}
	if s.def.StatsEvery > 0 {
		cfg.StatsEvery = s.def.StatsEvery
	}

	pipe, err := core.NewPipeline(cfg, core.SliceSource(docs))
	if err != nil {
		panic(fmt.Sprintf("expr: pipeline: %v", err))
	}
	res := pipe.Run()

	meanErr, coverage := s.accuracy(cfg, docs, res)

	return &CellResult{
		Params:          p,
		Communication:   res.Communication,
		LoadGini:        res.LoadGini,
		MeanAbsError:    meanErr,
		Coverage:        coverage,
		Repartitions:    res.Repartitions,
		CauseComm:       res.RepartitionsComm,
		CauseLoad:       res.RepartitionsLoad,
		CauseBoth:       res.RepartitionsBoth,
		SingleAdditions: res.SingleAdditions,
		Merges:          res.Merges,
		Dissem:          res.Dissem,
	}
}

// accuracy replays the post-install documents through the exact centralized
// calculator with the same reporting boundaries and computes the two
// quantities of Section 8.2.3: the mean absolute Jaccard error over
// per-period matched tagsets, and the run-level coverage — the fraction of
// tagsets seen more than SN times in the input that received a coefficient
// at all (the paper reports > 97%).
func (s *Suite) accuracy(cfg core.Config, docs []stream.Document, res *core.Result) (meanErr, coverage float64) {
	skip := res.DocsBeforeInstall
	if skip >= int64(len(docs)) {
		return 0, 0
	}
	post := docs[skip:]
	minCN := int64(cfg.SN) + 1

	// Run-level coverage: frequent input tagsets vs ever-reported tagsets.
	inputCounts := make(map[tagset.Key]int64)
	for _, d := range post {
		if d.Tags.Len() >= 2 {
			inputCounts[d.Tags.Key()]++
		}
	}
	reported := make(map[tagset.Key]struct{})
	for _, c := range res.Coefficients() {
		reported[c.Tags.Key()] = struct{}{}
	}
	var frequent, hit int
	for k, n := range inputCounts {
		if n >= minCN {
			frequent++
			if _, ok := reported[k]; ok {
				hit++
			}
		}
	}
	if frequent > 0 {
		coverage = float64(hit) / float64(frequent)
	}

	// Per-period error against the exact baseline.
	central := jaccard.NewCentralized()
	boundary := stream.Millis(0)
	started := false
	var errSum, weight float64
	flush := func(period int64) {
		base := central.Report(minCN)
		if len(base) == 0 {
			return
		}
		e, cov := jaccard.CompareReports(base, res.Tracker.Report(period))
		w := cov * float64(len(base)) // weight by matched tagsets
		errSum += e * w
		weight += w
	}
	for _, d := range post {
		if d.Tags.IsEmpty() {
			continue
		}
		if !started {
			boundary = (d.Time/cfg.ReportEvery + 1) * cfg.ReportEvery
			started = true
		}
		for d.Time >= boundary {
			flush(int64(boundary / cfg.ReportEvery))
			boundary += cfg.ReportEvery
		}
		central.Observe(d.Tags)
	}
	if started {
		flush(int64(boundary / cfg.ReportEvery))
	}
	if weight > 0 {
		meanErr = errSum / weight
	}
	return meanErr, coverage
}

// RunAll executes the given cells with bounded parallelism (independent
// cells run concurrently; each pipeline itself is sequential).
func (s *Suite) RunAll(cells []Params) []*CellResult {
	out := make([]*CellResult, len(cells))
	sem := make(chan struct{}, maxParallel())
	var wg sync.WaitGroup
	for i, p := range cells {
		wg.Add(1)
		go func(i int, p Params) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = s.Cell(p)
		}(i, p)
	}
	wg.Wait()
	return out
}

// maxParallel bounds concurrent cells: pipelines hold sizeable counter
// tables, so memory — not CPU — is the limit.
func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		return 4
	}
	if n < 1 {
		return 1
	}
	return n
}

// Figure is a printable reproduction of one paper figure: a set of panels,
// each a small table.
type Figure struct {
	ID     string
	Title  string
	Panels []Panel
}

// Panel is one sub-plot rendered as a table.
type Panel struct {
	Title  string
	Header []string
	Rows   [][]string
}

// WriteTo renders the figure as aligned text tables.
func (f *Figure) WriteTo(w io.Writer) (int64, error) {
	var n int64
	p := func(format string, args ...interface{}) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := p("== %s: %s ==\n", f.ID, f.Title); err != nil {
		return n, err
	}
	for _, panel := range f.Panels {
		if err := p("\n-- %s --\n", panel.Title); err != nil {
			return n, err
		}
		widths := make([]int, len(panel.Header))
		for i, h := range panel.Header {
			widths[i] = len(h)
		}
		for _, row := range panel.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) error {
			for i, cell := range cells {
				if err := p("%-*s  ", widths[i], cell); err != nil {
					return err
				}
			}
			return p("\n")
		}
		if err := line(panel.Header); err != nil {
			return n, err
		}
		for _, row := range panel.Rows {
			if err := line(row); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
