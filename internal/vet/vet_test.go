package vet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/vet"
)

// fixtureNames lists the per-analyzer fixture packages under testdata/src.
// Each is loaded as import path "fixture/<name>" and checked against the
// // want `regex` expectations embedded in its source.
var fixtureNames = []string{
	"lockdiscipline",
	"configparity",
}

// One loader is shared across every test: the expensive part of a run is
// type-checking the standard library from source, and the loader memoizes
// it, so fixtures and the clean-tree pass pay for it once.
var (
	loaderOnce sync.Once
	loader     *vet.Loader
	loaderErr  error
)

func testLoader(t *testing.T) *vet.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		l, err := vet.NewLoader(".")
		if err != nil {
			loaderErr = err
			return
		}
		for _, name := range append(append([]string(nil), fixtureNames...), "directive") {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				loaderErr = err
				return
			}
			l.Extra["fixture/"+name] = dir
		}
		loader = l
	})
	if loaderErr != nil {
		t.Fatalf("building loader: %v", loaderErr)
	}
	return loader
}

func analyzerByName(name string) *vet.Analyzer {
	for _, a := range vet.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// TestRegistryComplete pins the analyzer registry: removing an analyzer (or
// renaming it) fails here even before its fixture test does.
func TestRegistryComplete(t *testing.T) {
	got := map[string]bool{}
	for _, a := range vet.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		got[a.Name] = true
	}
	for _, want := range fixtureNames {
		if !got[want] {
			t.Errorf("registry is missing analyzer %q", want)
		}
	}
	if len(got) != len(fixtureNames) {
		t.Errorf("registry has %d analyzers, want %d: %v", len(got), len(fixtureNames), got)
	}
}

// TestFixtures runs each analyzer alone over its seeded-violation package
// and matches the diagnostics against the fixture's // want expectations,
// both directions: every diagnostic needs a want, every want a diagnostic.
func TestFixtures(t *testing.T) {
	l := testLoader(t)
	for _, name := range fixtureNames {
		name := name
		t.Run(name, func(t *testing.T) {
			a := analyzerByName(name)
			if a == nil {
				t.Fatalf("analyzer %q is not registered", name)
			}
			res, err := vet.Run(l, []string{"fixture/" + name}, []*vet.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s on its fixture: %v", name, err)
			}
			wants, err := parseWants(l.Extra["fixture/"+name])
			if err != nil {
				t.Fatalf("parsing want comments: %v", err)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no // want expectations", name)
			}
			matchDiagnostics(t, res.Diagnostics, wants)
		})
	}
}

// want is one expectation: a diagnostic whose message matches re at
// file:line.
type want struct {
	file     string
	line     int
	re       *regexp.Regexp
	consumed bool
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

func parseWants(dir string) ([]*want, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}

func matchDiagnostics(t *testing.T, diags []vet.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.consumed && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.consumed {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestDirectiveValidation pins the driver's handling of malformed //vet:ok
// directives, which report under the pseudo-analyzer "directive" (their
// position is the directive comment itself, so the fixture cannot carry
// // want comments for them). Directive names are checked against the full
// registry, so a run of one analyzer reports the same two diagnostics and
// does not mistake the other analyzer's directives for unknown ones.
func TestDirectiveValidation(t *testing.T) {
	l := testLoader(t)
	wantSubstrings := []string{
		"//vet:ok needs a justification",
		`unknown analyzer "nosuchanalyzer"`,
	}
	for _, run := range [][]*vet.Analyzer{vet.Analyzers(), {vet.LockDiscipline}} {
		res, err := vet.Run(l, []string{"fixture/directive"}, run)
		if err != nil {
			t.Fatalf("running on directive fixture: %v", err)
		}
		if len(res.Diagnostics) != len(wantSubstrings) {
			t.Fatalf("%d analyzers: got %d diagnostics, want %d:\n%v", len(run), len(res.Diagnostics), len(wantSubstrings), res.Diagnostics)
		}
		for i, sub := range wantSubstrings {
			d := res.Diagnostics[i]
			if d.Analyzer != "directive" {
				t.Errorf("%d analyzers: diagnostic %d reported by %q, want \"directive\"", len(run), i, d.Analyzer)
			}
			if !strings.Contains(d.Message, sub) {
				t.Errorf("%d analyzers: diagnostic %d = %q, want substring %q", len(run), i, d.Message, sub)
			}
		}
	}
}

// TestCleanTree asserts the repository itself is clean: every analyzer over
// every module package, zero findings. This is the same run CI's lint job
// performs via cmd/tagcorrvet.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis type-checks the standard library from source; skipped with -short")
	}
	l := testLoader(t)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vet.Run(l, paths, vet.Analyzers())
	if err != nil {
		t.Fatalf("running analyzers over the module: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("tree is not vet-clean: %s", d)
	}
}
