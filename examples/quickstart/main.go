// Quickstart: run the full distributed tag-correlation pipeline on a short
// synthetic Twitter-like stream and print the strongest correlations.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

func main() {
	// A synthetic stream calibrated to Twitter's published statistics:
	// Zipf tag counts, topic-clustered hashtags, content drift.
	dict := tagset.NewDictionary()
	gen, err := twitgen.New(twitgen.Default(), dict)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's default setting: 10 Calculators, 10 Partitioners,
	// Disjoint Sets partitioning, repartition threshold 0.5.
	cfg := core.DefaultConfig()
	cfg.Algorithm = partition.DS

	// Stream 15 virtual minutes (the first 5 minutes fill the partitioning
	// window before the topology starts disseminating).
	const docs = 15 * 60 * 65 // 65 tagged tweets/s
	pipe, err := core.NewPipeline(cfg, core.GeneratorSource(gen.Next, docs))
	if err != nil {
		log.Fatal(err)
	}
	res := pipe.Run()

	fmt.Printf("processed %d tagged documents (%d before first partitions)\n",
		res.DocsProcessed, res.DocsBeforeInstall)
	fmt.Printf("communication: %.3f notifications per document (1.0 = no redundancy)\n",
		res.Communication)
	fmt.Printf("load Gini: %.3f across %d calculators\n", res.LoadGini, cfg.K)
	fmt.Printf("repartitions: %d, single additions: %d\n\n",
		res.Repartitions, res.SingleAdditions)

	// Print the ten strongest pairwise correlations with enough support.
	fmt.Println("top correlated tag pairs (J = |docs with all| / |docs with any|):")
	shown := 0
	for _, c := range res.Coefficients() {
		if c.Tags.Len() != 2 || c.CN < 25 {
			continue
		}
		names := dict.Strings(c.Tags)
		fmt.Printf("  J=%.3f  n=%-4d  #%s ~ #%s\n", c.J, c.CN, names[0], names[1])
		if shown++; shown == 10 {
			break
		}
	}
}
