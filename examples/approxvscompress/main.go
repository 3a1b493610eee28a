// Approxvscompress answers the paper's central question head-on: "Can
// approximation bring higher objectively measured benefits compared to
// deterministic video compression?" (§8). It compares two ways of saving
// the same ~12% of storage: encoding more aggressively (higher CRF) versus
// keeping the quality target and approximating storage with VideoApp's
// variable error correction.
package main

import (
	"context"
	"fmt"
	"log"

	"videoapp"
)

func main() {
	ctx := context.Background()
	seq, err := videoapp.GenerateTestVideo("mobcal_like", 320, 176, 48)
	if err != nil {
		log.Fatal(err)
	}

	// Option A: deterministic compression only — crank CRF until the
	// storage (with uniform precise-grade correction) drops ~12%.
	// Option B: keep CRF 24 and approximate with Table 1's assignment.
	type outcome struct {
		name          string
		cellsPerPixel float64
		psnr          float64
	}
	var results []outcome

	measure := func(name string, crf int, assignment videoapp.ClassAssignment) outcome {
		params := videoapp.DefaultParams()
		params.CRF = crf
		p := videoapp.NewPipeline(videoapp.WithParams(params), videoapp.WithAssignment(assignment))
		res, err := p.ProcessContext(ctx, seq)
		if err != nil {
			log.Fatal(err)
		}
		// Worst of a few storage round trips, the paper's conservative
		// convention.
		worst := 200.0
		for run := int64(0); run < 5; run++ {
			dec, _, err := res.StoreRoundTripContext(ctx, run)
			if err != nil {
				log.Fatal(err)
			}
			p, err := videoapp.PSNRContext(ctx, seq, dec, 0)
			if err != nil {
				log.Fatal(err)
			}
			if p < worst {
				worst = p
			}
		}
		return outcome{name: name, cellsPerPixel: res.Stats.CellsPerPixel, psnr: worst}
	}

	results = append(results,
		measure("baseline: CRF 24 + uniform ECC", 24, videoapp.UniformAssignment()),
		measure("compress: CRF 26 + uniform ECC", 26, videoapp.UniformAssignment()),
		measure("approximate: CRF 24 + VideoApp ECC", 24, videoapp.PaperAssignment()),
	)

	fmt.Println("strategy                              cells/px   PSNR(dB)")
	base := results[0]
	for _, r := range results {
		saving := (1 - r.cellsPerPixel/base.cellsPerPixel) * 100
		fmt.Printf("%-37s %8.4f  %8.2f   (storage %+.1f%%, quality %+.2f dB)\n",
			r.name, r.cellsPerPixel, r.psnr, -saving, r.psnr-base.psnr)
	}
	fmt.Println("\nthe paper's claim: for equal storage savings, approximation loses less")
	fmt.Println("quality than further compression — compare the last two rows")
}
