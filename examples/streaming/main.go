// Streaming demonstrates the paper's related-work observation that the
// VideoApp methodology "could be applied to video streaming as well, where
// different bits can be transferred through network channels of different
// reliability": the per-reliability streams double as a delivery priority
// order. Receiving streams most-important-first gives a usable picture
// early; the reverse order wastes the bandwidth on invisible refinements.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"videoapp"
	"videoapp/internal/core"
)

func main() {
	seq, err := videoapp.GenerateTestVideo("cityride_like", 320, 176, 48)
	if err != nil {
		log.Fatal(err)
	}
	video, err := videoapp.EncodeContext(context.Background(), seq, videoapp.DefaultParams(), 0)
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := videoapp.AnalyzeContext(context.Background(), video, 0)
	if err != nil {
		log.Fatal(err)
	}
	parts := analysis.Partition(videoapp.PaperAssignment())
	streams, err := videoapp.SplitStreams(video, parts)
	if err != nil {
		log.Fatal(err)
	}

	// Strongest protection = most important bits. Deliver in that order.
	names := streams.SchemeNames()
	order := orderByStrength(names)
	fmt.Println("delivery order (most important first):", order)

	fmt.Println("\nreceived            kbits   PSNR(dB)")
	evaluate(seq, video, streams, parts, order)

	fmt.Println("\nreverse order (least important first):")
	rev := make([]string, len(order))
	for i, n := range order {
		rev[len(order)-1-i] = n
	}
	evaluate(seq, video, streams, parts, rev)
}

// evaluate decodes with progressively more streams delivered; missing
// streams are replaced by channel noise (undelivered bits are unknown).
func evaluate(seq *videoapp.Sequence, video *videoapp.Video, streams *videoapp.StreamSet, parts []videoapp.FramePartition, order []string) {
	rng := rand.New(rand.NewSource(9))
	var receivedBits int64
	for k := 1; k <= len(order); k++ {
		partial := &core.StreamSet{Parts: parts, Streams: map[string][]byte{}, Bits: streams.Bits}
		for i, name := range order {
			if i < k {
				partial.Streams[name] = streams.Streams[name]
				continue
			}
			noise := make([]byte, len(streams.Streams[name]))
			rng.Read(noise)
			partial.Streams[name] = noise
		}
		merged, err := partial.Merge(video)
		if err != nil {
			log.Fatal(err)
		}
		dec, err := videoapp.DecodeContext(context.Background(), merged, 0)
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := videoapp.PSNRContext(context.Background(), seq, dec, 0)
		if err != nil {
			log.Fatal(err)
		}
		receivedBits += streams.Bits[order[k-1]]
		fmt.Printf("%-18s %7.0f  %8.2f\n", order[k-1], float64(receivedBits)/1000, psnr)
	}
}

// orderByStrength sorts stream names strongest-scheme-first.
func orderByStrength(names []string) []string {
	rank := map[string]int{"BCH-16": 0, "BCH-11": 1, "BCH-10": 2, "BCH-9": 3,
		"BCH-8": 4, "BCH-7": 5, "BCH-6": 6, "None": 7}
	out := append([]string(nil), names...)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if rank[out[j]] < rank[out[i]] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
