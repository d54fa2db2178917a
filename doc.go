// Package repro is a from-scratch Go reproduction of "Tracking Set
// Correlations at Large Scale" (Alvanaki & Michel, SIGMOD 2014): continuous
// computation of Jaccard coefficients for all sets of co-occurring tags in
// a social-media stream, distributed over k calculator nodes by online tag
// partitioning.
//
// The library lives under internal/ (see DESIGN.md for the module map);
// this root package carries the ablation and micro-benchmarks
// (bench_test.go). The paper's figures are pinned by internal/expr's
// figure ledger and printed by cmd/experiments. Entry points:
//
//   - internal/core: the pipeline API (wire a stream, run or Start it,
//     read results — or take live Snapshots while it streams)
//   - internal/partition: the DS / SCC / SCL / SCI partitioning algorithms
//   - internal/server: the live HTTP query service behind cmd/tagcorrd
//   - internal/expr: the experiment harness behind cmd/experiments
//   - cmd/tagcorrd: the long-running daemon (live /topk over HTTP)
//   - cmd/experiments, cmd/tagcorr, cmd/datagen: batch executables
//   - examples/: runnable walkthroughs (examples/liveserver shows the
//     live snapshot API)
package repro
