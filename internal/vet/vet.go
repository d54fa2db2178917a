// Package vet is the project's static-analysis suite: a zero-dependency
// (stdlib go/ast + go/types) driver running the two checks nothing else in
// the build makes — no blocking operation under a lock held in the same
// function, and every Config field checked in its Validate. Lock copies
// are go vet's, emit aliasing is -race's, atomic access is the type
// system's and the metric catalog is a test over the live registry.
// cmd/tagcorrvet is the CLI; DESIGN.md ("Static analysis") documents each
// rule and where the retired ones went.
//
// A finding an analyzer cannot see is fine can be suppressed at the site
// with a directive comment on the same line (or the line above):
//
//	//vet:ok <analyzer> -- <reason>
//
// The reason is mandatory: a suppression without a justification is itself
// reported. The directive is the allowlist — grep for vet:ok to audit it.
package vet

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Pass carries one package through one analyzer.
type Pass struct {
	Pkg *Package

	report func(pos token.Pos, msg string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full registry in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockDiscipline, ConfigParity}
}

// Diagnostic is one finding, resolved to a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Result is one run over a set of packages.
type Result struct {
	Diagnostics []Diagnostic
}

// Run loads every path and applies the analyzers, honouring //vet:ok
// suppression directives. Malformed directives (an analyzer missing from
// the full registry, a missing reason) are reported under the
// pseudo-analyzer "directive", whichever analyzers this run applies.
func Run(l *Loader, paths []string, analyzers []*Analyzer) (*Result, error) {
	res := &Result{}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		supp := collectSuppressions(l.Fset, pkg, known, res)
		for _, a := range analyzers {
			a := a
			pass := &Pass{
				Pkg: pkg,
				report: func(pos token.Pos, msg string) {
					p := l.Fset.Position(pos)
					if supp.suppressed(a.Name, p) {
						return
					}
					res.Diagnostics = append(res.Diagnostics, Diagnostic{Pos: p, Analyzer: a.Name, Message: msg})
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// suppressions indexes //vet:ok directives: a directive at line L covers
// diagnostics of the named analyzers at L and L+1 of the same file, so it
// works both as a trailing comment and on its own line above the finding.
type suppressions struct {
	byLine map[string]map[int]map[string]bool // file -> line -> analyzer set
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		if set := lines[l]; set != nil && (set[analyzer] || set["*"]) {
			return true
		}
	}
	return false
}

func collectSuppressions(fset *token.FileSet, pkg *Package, known map[string]bool, res *Result) *suppressions {
	s := &suppressions{byLine: map[string]map[int]map[string]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//vet:ok")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason, hasReason := strings.Cut(rest, "--")
				nameList := strings.Fields(names)
				bad := func(msg string) {
					res.Diagnostics = append(res.Diagnostics, Diagnostic{Pos: pos, Analyzer: "directive", Message: msg})
				}
				if !hasReason || strings.TrimSpace(reason) == "" {
					bad("//vet:ok needs a justification: //vet:ok <analyzer> -- <reason>")
					continue
				}
				if len(nameList) == 0 {
					bad("//vet:ok names no analyzer")
					continue
				}
				valid := true
				for _, n := range nameList {
					if n != "*" && !known[n] {
						bad(fmt.Sprintf("//vet:ok names unknown analyzer %q", n))
						valid = false
					}
				}
				if !valid {
					continue
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s.byLine[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, n := range nameList {
					set[n] = true
				}
			}
		}
	}
	return s
}

// pkgHasSuffix matches a package path by trailing segments (for example
// "internal/storm"), so analyzers recognise project packages regardless of
// the module name and fixtures importing the real packages resolve
// identically.
func pkgHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
