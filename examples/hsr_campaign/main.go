// hsr_campaign replays a scaled-down version of the paper's measurement
// campaign (Table I: three carriers, HSR plus a stationary baseline) and
// prints the dataset summary and the headline claims of Section III.
//
// Run with:
//
//	go run ./examples/hsr_campaign           (quick, ~seconds)
//	go run ./examples/hsr_campaign -full     (the full 255-flow campaign)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
)

func main() {
	full := flag.Bool("full", false, "run the full 255-flow Table I campaign")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Default()
	}

	start := time.Now()
	ctx, err := experiments.NewContext(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d HSR + %d stationary flows in %v\n\n",
		len(ctx.HSR.Results), len(ctx.Stationary.Results), time.Since(start).Round(time.Millisecond))

	fmt.Print(export.Text(experiments.Table1(ctx).Section()))
	fmt.Print(export.Text(experiments.Scalars(ctx).Section()))
	fmt.Print(export.Text(experiments.Figure6(ctx).Section()))
}
