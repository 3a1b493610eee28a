package experiments

import (
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
)

// TestDamagedPSNRMatchesFullDecode is the differential test of the damaged
// trip kernel: over GOP structures whose reference graphs differ (IPPP,
// unreferenced and referenced B frames) and over slices and both entropy
// coders, damagedPSNR must equal, under ==, the sequence PSNR of a full
// decode of the same damaged copy. FastConfig is one GOP with no B frames,
// so the reproduction's golden cannot catch a frame the kernel fails to
// reach; this test can.
func TestDamagedPSNRMatchesFullDecode(t *testing.T) {
	const trials = 60
	preset, ok := synth.PresetByName("crew_like")
	if !ok {
		t.Fatal("no crew_like preset")
	}
	seq := synth.Generate(preset.ScaleTo(96, 64, 18))
	cases := []struct {
		name string
		mut  func(*codec.Params)
	}{
		{"IPPP", func(p *codec.Params) {}},
		{"B=2", func(p *codec.Params) { p.BFrames = 2 }},
		{"B=2 referenced", func(p *codec.Params) { p.BFrames = 2; p.BReference = true }},
		{"slices=4", func(p *codec.Params) { p.SlicesPerFrame = 4 }},
		{"CAVLC", func(p *codec.Params) { p.Entropy = codec.CAVLC }},
	}
	ctx := context.Background()
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := FastConfig().params()
			params.GOPSize = 6
			tc.mut(&params)
			ev, err := encodeVideo(ctx, tc.name, seq, params)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			for trial := 0; trial < trials; trial++ {
				damaged := ev.Video.ClonePooled()
				dirty := make([]bool, len(damaged.Frames))
				for k := 1 + rng.Intn(4); k > 0; k-- {
					fi := rng.Intn(len(damaged.Frames))
					ef := damaged.Frames[fi]
					bitio.FlipBit(ef.Payload, rng.Int63n(ef.PayloadBits()))
					dirty[fi] = true
				}
				got, err := damagedPSNR(ev, damaged, dirty)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := codec.DecodeContext(ctx, damaged, codec.DecodeOptions{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				want, err := quality.PSNRContext(ctx, ev.Seq, dec, workers)
				if err != nil {
					t.Fatal(err)
				}
				damaged.Release()
				if got != want {
					t.Fatalf("trial %d (dirty %v): kernel %v dB, full decode %v dB", trial, dirty, got, want)
				}
			}
		})
	}
}
