package codec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/synth"
)

// benchVideo encodes a small clip once; Clone benchmarks then measure pure
// copy cost, the per-round-trip overhead the §6.4 Monte-Carlo loop multiplies
// by runs × videos × design points.
func benchVideo(b *testing.B) *Video {
	b.Helper()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, 10))
	p := DefaultParams()
	p.GOPSize = 10
	p.SearchRange = 8
	v, err := encode(seq, p)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkClone measures the deep copy StoreContext takes per round trip.
func BenchmarkClone(b *testing.B) {
	v := benchVideo(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := v.Clone()
		if len(c.Frames) != len(v.Frames) {
			b.Fatal("clone lost frames")
		}
	}
}

// BenchmarkClonePooled measures the steady-state pooled copy: the Release on
// each iteration is what lets the next clone reuse the arena, the pattern
// StoreContext-driven Monte-Carlo loops follow.
func BenchmarkClonePooled(b *testing.B) {
	v := benchVideo(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := v.ClonePooled()
		if len(c.Frames) != len(v.Frames) {
			b.Fatal("clone lost frames")
		}
		c.Release()
	}
}

// chunkInput is the unit of work of the performance ledger's ingest and
// cold-serve workloads: one 6-frame closed GOP of 320×176 video with default
// parameters.
func chunkInput(coder EntropyKind) (*frame.Sequence, Params) {
	cfg, _ := synth.PresetByName("crew_like")
	p := DefaultParams()
	p.GOPSize = 6
	p.Entropy = coder
	return synth.Generate(cfg.ScaleTo(320, 176, 6)), p
}

// decodeChunkVideo encodes chunkInput.
func decodeChunkVideo(tb testing.TB, coder EntropyKind) *Video {
	tb.Helper()
	v, err := encode(chunkInput(coder))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// BenchmarkEncodeChunk measures encode of one chunk, the layer that
// dominates ingest and every set-up that archives its inputs, at the
// default CRF 24 and at CRF 16, where the ingest matrix spends most of its
// entropy-coding time.
func BenchmarkEncodeChunk(b *testing.B) {
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		for _, crf := range []int{24, 16} {
			seq, p := chunkInput(coder)
			p.CRF = crf
			b.Run(fmt.Sprintf("%s/crf%d", strings.ToLower(coder.String()), crf), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := encode(seq, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeChunk measures DecodeContext at one worker on one cold chunk, the layer
// that dominates serve_cold and the Monte-Carlo loop, on clean and on
// bit-flipped payloads (the damaged path must not be the slow one). The
// replay leg decodes the clean bytes again through frames that share a
// SyntaxSlot with a decode made before the timer starts, so every frame
// replays its parse: what is left is reconstruction alone.
func BenchmarkDecodeChunk(b *testing.B) {
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		clean := decodeChunkVideo(b, coder)
		replay := clean.Clone()
		for i, f := range replay.Frames {
			f.ShareSyntax(clean.Frames[i].SyntaxSlot())
		}
		if _, err := DecodeContext(context.Background(), replay, DecodeOptions{}, 1); err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			v    *Video
		}{
			{"clean", clean},
			{"damaged", flipPayloadBits(clean, 7, goldenFlipsLo)},
			{"replay", replay},
		} {
			b.Run(strings.ToLower(coder.String())+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					seq, err := DecodeContext(context.Background(), c.v, DecodeOptions{}, 1)
					if err != nil {
						b.Fatal(err)
					}
					// Nothing else holds them: back to the pool for the next iteration.
					for _, f := range seq.Frames {
						frame.Recycle(f)
					}
				}
			})
		}
	}
}
