// Command tagcorrvet runs the project's static-analysis suite
// (internal/vet) over the module's packages:
//
//	go run ./cmd/tagcorrvet ./...                    # whole tree
//	go run ./cmd/tagcorrvet ./internal/storm/        # one package
//
// Diagnostics print as file:line: [analyzer] message; the exit status is 1
// when anything was reported, 2 on usage or load errors, 0 on a clean
// tree. See DESIGN.md ("Static analysis") for the invariants behind each
// analyzer and the //vet:ok suppression directive.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/vet"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := vet.NewLoader(wd)
	if err != nil {
		fatalf("%v", err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := vet.Run(loader, paths, vet.Analyzers())
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range res.Diagnostics {
		fmt.Println(rel(wd, d))
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

// rel shortens diagnostic paths to be relative to the working directory.
func rel(wd string, d vet.Diagnostic) string {
	if r, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d.String()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tagcorrvet: "+format+"\n", args...)
	os.Exit(2)
}
