// Command promcheck validates a Prometheus text exposition (format
// 0.0.4): it parses the file (or stdin) with the same parser the test
// suite uses, optionally requires named metric families to be present,
// and exits non-zero on a malformed exposition or a missing family. CI
// uses it to assert a mid-run /metrics scrape of a live tagcorrd.
//
//	curl -s localhost:8080/metrics | promcheck
//	promcheck -require tagcorr_dissem_docs_total,tagcorr_http_request_seconds METRICS_midrun.prom
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	var (
		require = flag.String("require", "", "comma-separated metric family names that must be present")
		minFams = flag.Int("min-families", 1, "minimum number of metric families the exposition must carry")
		list    = flag.Bool("list", false, "print every family name after validating")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	src := "stdin"
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "promcheck: at most one input file")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	}

	fams, err := telemetry.ParseText(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: %s: %v\n", src, err)
		os.Exit(1)
	}
	if len(fams) < *minFams {
		fmt.Fprintf(os.Stderr, "promcheck: %s: %d families, want >= %d\n", src, len(fams), *minFams)
		os.Exit(1)
	}

	var missing []string
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := fams[name]; !ok {
				missing = append(missing, name)
			}
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "promcheck: %s: missing families: %s\n", src, strings.Join(missing, ", "))
		os.Exit(1)
	}

	if *list {
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
	}
	fmt.Printf("promcheck: %s: %d families ok\n", src, len(fams))
}
