// Command layers is the benchmark's layer replay: it calls the public
// functions of every layer in pipeline order over one partitioning window
// and one reporting period of a workload's own stream, with a span around
// every call, and prints the probe metrics and the spans as one JSON
// object. The end-to-end harness runs it for -trace 1.
//
// It is a program of its own, not a package of the harness, because it
// needs the layers' wider API (storm tuples, operator bolts, the archive
// writer). If a layer's API changes under it, the replay stops building
// and the traced run fails; the end-to-end numbers do not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/benchmark/kit"
)

func main() {
	shape := flag.String("shape", string(kit.Narrow), "stream shape: narrow or wide")
	seed := flag.Int64("seed", 1, "stream seed")
	flag.Parse()

	r, err := newReplay(kit.Shape(*shape), *seed)
	if err == nil {
		err = r.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	out := struct {
		Metrics map[string]kit.Value `json:"metrics"`
		Spans   []kit.Span           `json:"spans"`
	}{r.metrics, r.spans.List()}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
