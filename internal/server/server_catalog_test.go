package server

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/telemetry"
)

// metricSubsystems are the approved <subsystem> segments of a family name
// tagcorr_<subsystem>_<name>_<unit>.
var metricSubsystems = map[string]bool{
	"storm": true, "dissem": true, "tracker": true, "stage": true, "archive": true,
	"trend": true, "http": true, "process": true, "flight": true, "watchdog": true,
}

// gaugeUnits are the approved trailing unit nouns for gauges. Counters end
// in _total; histograms in _seconds or _bytes.
var gaugeUnits = map[string]bool{
	"seconds": true, "bytes": true, "entries": true, "periods": true,
	"coefficients": true, "tuples": true, "docs": true, "goroutines": true,
	"subscribers": true, "predictors": true, "ratio": true, "traces": true,
	"checks": true,
}

// namingExceptions are the families allowed to break the unit rule, each
// with its reason.
var namingExceptions = map[string]string{
	"tagcorr_dissem_communication": "the paper's dimensionless communication measure (Section 8.2.1); the name is kept verbatim so dashboards match the paper's terminology",
	"tagcorr_dissem_load_gini":     "Gini coefficient of the paper's load measure (Section 8.2.2); dimensionless by definition and named after the paper",
}

var metricNameRE = regexp.MustCompile(`^tagcorr(_[a-z][a-z0-9]*)+$`)

// namingProblems checks every family against the naming rule: an approved
// subsystem, counters ending in _total, histograms in _seconds or _bytes,
// and gauges in an approved unit noun.
func namingProblems(fams map[string]*telemetry.Family) []string {
	var problems []string
	for name, f := range fams {
		if !metricNameRE.MatchString(name) {
			problems = append(problems, fmt.Sprintf("%s does not match tagcorr_<subsystem>_<name>_<unit>", name))
			continue
		}
		segs := strings.Split(name, "_")[1:]
		if len(segs) < 2 || !metricSubsystems[segs[0]] {
			problems = append(problems, fmt.Sprintf("%s has no approved subsystem", name))
			continue
		}
		if _, ok := namingExceptions[name]; ok {
			continue
		}
		unit := segs[len(segs)-1]
		switch f.Type {
		case "counter":
			if unit != "total" {
				problems = append(problems, fmt.Sprintf("counter %s must end in _total", name))
			}
		case "histogram":
			if unit != "seconds" && unit != "bytes" {
				problems = append(problems, fmt.Sprintf("histogram %s must end in _seconds or _bytes", name))
			}
		case "gauge":
			if !gaugeUnits[unit] {
				problems = append(problems, fmt.Sprintf("gauge %s must end in an approved unit noun", name))
			}
		default:
			problems = append(problems, fmt.Sprintf("%s has unexpected type %q", name, f.Type))
		}
	}
	sort.Strings(problems)
	return problems
}

// readmeToken matches a backtick-quoted token that may name a family, with
// or without the tagcorr_ prefix and with an optional {label} suffix.
var readmeToken = regexp.MustCompile("`(tagcorr_)?([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\\{[^`]*\\})?`")

// readmeProblems compares README's metric documentation with the registered
// families in both directions. A tagcorr_-prefixed token is a family claim
// anywhere; an unprefixed one only in a table row and when its first
// segment is a subsystem (the catalog table factors the prefix into its
// header, and prose names JSON fields like stage_latency).
func readmeProblems(readme []byte, fams map[string]*telemetry.Family) []string {
	mentioned := map[string]bool{}
	var problems []string
	for _, line := range strings.Split(string(readme), "\n") {
		inTable := strings.HasPrefix(strings.TrimSpace(line), "|")
		for _, m := range readmeToken.FindAllStringSubmatch(line, -1) {
			full := "tagcorr_" + m[2]
			seg, _, _ := strings.Cut(m[2], "_")
			if fams[full] == nil && m[1] == "" && !(inTable && metricSubsystems[seg]) {
				continue
			}
			mentioned[full] = true
			if fams[full] == nil {
				problems = append(problems, fmt.Sprintf("README documents %s but no such family is registered", full))
			}
		}
	}
	for name := range fams {
		if !mentioned[name] {
			problems = append(problems, fmt.Sprintf("registered family %s is not documented in README", name))
		}
	}
	sort.Strings(problems)
	return problems
}

// daemonFamilies builds a server over an empty stream with the trend
// detector on, as cmd/tagcorrd runs by default, and parses its /metrics
// exposition back. No other daemon setting changes the family set: the
// archive and flight families are registered in every configuration.
func daemonFamilies(t *testing.T) map[string]*telemetry.Family {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Trend = true
	pipe, err := core.NewPipeline(cfg, func() (stream.Document, bool) { return stream.Document{}, false })
	if err != nil {
		t.Fatal(err)
	}
	h := pipe.Start()
	h.Wait()
	srv := New(pipe, h, tagset.NewDictionary(), Config{Refresh: time.Hour})
	defer srv.Close()
	var buf bytes.Buffer
	if err := srv.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return fams
}

// TestMetricCatalog holds the live /metrics surface to the naming rule and
// to README's Observability table, in both directions.
func TestMetricCatalog(t *testing.T) {
	fams := daemonFamilies(t)
	if len(fams) < 25 {
		t.Fatalf("exposition has %d families, want at least 25", len(fams))
	}
	t.Run("naming", func(t *testing.T) {
		for name := range namingExceptions {
			if fams[name] == nil {
				t.Errorf("naming exception %s is not registered; drop it", name)
			}
		}
		for _, p := range namingProblems(fams) {
			t.Error(p)
		}
	})
	t.Run("readme", func(t *testing.T) {
		readme, err := os.ReadFile("../../README.md")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range readmeProblems(readme, fams) {
			t.Error(p)
		}
	})
}

// TestMetricCatalogRejects shows that both checks fail loudly: a counter
// registered without _total, a README row naming an unregistered family,
// and a registered family whose README row was removed.
func TestMetricCatalogRejects(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("tagcorr_dissem_docs", "A counter without its unit.", nil, func() int64 { return 0 })
	reg.GaugeFunc("tagcorr_tracker_heap_entries", "A well-named gauge.", nil, func() float64 { return 0 })
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := namingProblems(fams); len(got) != 1 || !strings.Contains(got[0], "tagcorr_dissem_docs must end in _total") {
		t.Errorf("naming problems = %q, want one for the counter without _total", got)
	}

	readme := []byte("| heap entries | `tracker_heap_entries` |\n| docs | `dissem_docs` |\n| ghost | `dissem_ghost_total` |\n")
	if got := readmeProblems(readme, fams); len(got) != 1 || !strings.Contains(got[0], "tagcorr_dissem_ghost_total but no such family") {
		t.Errorf("README problems = %q, want one for the unregistered row", got)
	}
	readme = []byte("| heap entries | `tracker_heap_entries` |\n")
	if got := readmeProblems(readme, fams); len(got) != 1 || !strings.Contains(got[0], "tagcorr_dissem_docs is not documented") {
		t.Errorf("README problems = %q, want one for the undocumented family", got)
	}
}
