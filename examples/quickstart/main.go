// Quickstart: the complete VideoApp workflow in thirty lines — encode a
// video, compute bit-level importance, store it approximately on dense MLC
// PCM with variable error correction, and verify the quality is preserved.
package main

import (
	"context"
	"fmt"
	"log"

	"videoapp"
)

func main() {
	ctx := context.Background()
	// 1. A raw test video (stand-in for a camera capture).
	seq, err := videoapp.GenerateTestVideo("crew_like", 320, 176, 48)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Encode + analyze + partition with the paper's defaults:
	//    CRF 24, CABAC entropy coding, Table 1 error correction,
	//    8-level MLC PCM at raw bit error rate 1e-3.
	pipeline := videoapp.NewPipeline()
	res, err := pipeline.ProcessContext(ctx, seq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d frames into %d bits\n",
		len(res.Video.Frames), res.Video.TotalPayloadBits())
	fmt.Printf("storage: %.4f cells/pixel at %.1f%% ECC overhead\n",
		res.Stats.CellsPerPixel, res.Stats.ECCOverhead*100)

	// 3. Simulate an approximate storage round trip and measure quality.
	decoded, flips, err := res.StoreRoundTripContext(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	psnr, err := videoapp.PSNRContext(ctx, seq, decoded, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after storage: %d residual bit errors, PSNR %.2f dB\n", flips, psnr)
}
