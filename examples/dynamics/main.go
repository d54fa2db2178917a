// Dynamics: watch the Section 7 machinery react to a topic burst. Midway
// through the stream a brand-new topic surges; its unseen tag combinations
// force Single Additions, partition quality degrades, and the Disseminator
// triggers repartitions.
//
//	go run ./examples/dynamics
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/stream"
	"repro/internal/tagset"
	"repro/internal/twitgen"
)

func main() {
	dict := tagset.NewDictionary()
	calm := twitgen.Default()
	calm.DriftInterval = 0 // no background drift: isolate the burst
	calm.NewTagProb = 0.002
	gen, err := twitgen.New(calm, dict)
	if err != nil {
		log.Fatal(err)
	}

	// Burst vocabulary: 30 fresh tags never seen by the generator.
	burst := make([]tagset.Tag, 30)
	for i := range burst {
		burst[i] = dict.Intern(fmt.Sprintf("breaking_%d", i))
	}

	const (
		totalMin = 25
		burstAt  = stream.Millis(10 * 60 * 1000)
	)
	var id uint64
	next := func() stream.Document {
		d := gen.Next()
		id++
		// During the burst, every 3rd tweet is about the breaking topic.
		if d.Time >= burstAt && id%3 == 0 {
			a, b := burst[id%30], burst[(id*7+3)%30]
			d.Tags = tagset.New(a, b, burst[(id*13+5)%30])
		}
		return d
	}

	cfg := core.DefaultConfig()
	cfg.Algorithm = partition.DS
	pipe, err := core.NewPipeline(cfg, core.GeneratorSource(next, totalMin*60*65))
	if err != nil {
		log.Fatal(err)
	}
	res := pipe.Run()

	fmt.Printf("stream: %d docs over %d virtual minutes; burst begins at minute %d\n\n",
		res.DocsProcessed, totalMin, int(burstAt/60000))
	fmt.Printf("single additions requested: %d\n", res.SingleAdditions)
	fmt.Printf("repartitions: %d (communication=%d, load=%d, both=%d)\n",
		res.Repartitions, res.RepartitionsComm, res.RepartitionsLoad, res.RepartitionsBoth)
	fmt.Printf("uncovered document sightings: %d\n\n", res.UncoveredDocs)

	fmt.Println("communication over time (repartitions marked |):")
	marks := res.Dissem.CommSeries.Marks
	mi := 0
	for _, pt := range res.Dissem.CommSeries.Points {
		for mi < len(marks) && marks[mi] <= pt.X {
			fmt.Printf("  %7.0fk | repartition\n", marks[mi]/1000)
			mi++
		}
		bar := int(40 * (pt.Y - 1))
		if bar < 0 {
			bar = 0
		}
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  %7.0fk %s %.3f\n", pt.X/1000, dots(bar), pt.Y)
	}

	// Confirm the burst pairs got coefficients after their Single Addition.
	found := 0
	for _, c := range res.Coefficients() {
		if c.Tags.Len() >= 2 && dict.String(c.Tags[0])[:2] == "br" {
			found++
		}
	}
	fmt.Printf("\nburst tagsets with reported coefficients: %d\n", found)
}

func dots(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '*'
	}
	return string(b)
}
