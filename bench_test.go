package videoapp

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding result at a reduced scale (so `go test
// -bench=.` completes in minutes) and reports the headline metric the paper
// quotes. The cmd/experiments binary runs the same code at full scale and
// prints the complete tables.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/experiments"
	"videoapp/internal/synth"
)

func benchConfig() experiments.Config {
	cfg := experiments.FastConfig()
	cfg.W, cfg.H, cfg.Frames = 96, 64, 12
	cfg.Runs = 2
	return cfg
}

// benchSuite encodes the suite a figure measures, outside the timed loop.
func benchSuite(b *testing.B, cfg experiments.Config) []*experiments.EncodedVideo {
	b.Helper()
	suite, err := experiments.EncodeSuite(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return suite
}

// BenchmarkFigure3 regenerates the single-bit-flip MB-position PSNR surface.
func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		tl, br := res.Corners()
		b.ReportMetric(br-tl, "dB-corner-gap")
	}
}

// BenchmarkFigure8 regenerates the BCH overhead/capability table.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure8()
		b.ReportMetric(res.Rows[0].OverheadPct, "pct-bch6-overhead")
	}
}

// BenchmarkFigure9 regenerates the 16-bin importance validation curves.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.OrderViolations(0.5)), "order-violations")
	}
}

// BenchmarkFigure10 regenerates the cumulative importance-class curves.
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StorageFrac[0]*100, "pct-first-class-storage")
	}
}

// BenchmarkTable1 regenerates the error-correction assignment from measured
// Figure 10 data.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		f10, err := experiments.Figure10(context.Background(), cfg, suite)
		if err != nil {
			b.Fatal(err)
		}
		tab := experiments.DeriveTable1(f10)
		b.ReportMetric(tab.TotalLossDB, "dB-estimated-loss")
	}
}

// BenchmarkFigure11 regenerates the density/quality sweep for the three
// storage designs.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(context.Background(), cfg, suite, []int{24}, core.PaperAssignment())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverheadReductionPct, "pct-ecc-overhead-cut")
		b.ReportMetric(res.StorageSavingPct, "pct-storage-saved")
	}
}

// BenchmarkEncryptionModes regenerates the §5 mode compatibility table.
func BenchmarkEncryptionModes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.EncryptionModes(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		usable := 0
		for _, a := range res.Assessments {
			if a.MeetsAll() {
				usable++
			}
		}
		b.ReportMetric(float64(usable), "usable-modes")
	}
}

// BenchmarkAblation regenerates the §8 encoder-option sweep.
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateEncoderOptions(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].LowImportanceFrac*100, "pct-approximable")
	}
}

// BenchmarkScrubSweep regenerates the scrubbing-interval extension sweep.
func BenchmarkScrubSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Presets = []string{"crew_like"}
	suite := benchSuite(b, cfg)
	for i := 0; i < b.N; i++ {
		res, err := experiments.ScrubSweep(context.Background(), cfg, suite, []float64{3, 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].RBER/res.Rows[0].RBER, "rber-growth-3to12mo")
	}
}

// BenchmarkAnalysisOverhead measures §4.3.1: the VideoApp analysis cost
// relative to encoding.
func BenchmarkAnalysisOverhead(b *testing.B) {
	b.ReportAllocs()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(176, 144, 20))
	params := codec.DefaultParams()
	params.GOPSize = 20
	params.SearchRange = 8
	var encodeNs, analyzeNs int64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		v, err := codec.EncodeParallelContext(context.Background(), seq, params, 1)
		if err != nil {
			b.Fatal(err)
		}
		encodeNs += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		if _, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1); err != nil {
			b.Fatal(err)
		}
		analyzeNs += time.Since(t1).Nanoseconds()
	}
	if encodeNs > 0 {
		b.ReportMetric(float64(analyzeNs)/float64(encodeNs)*100, "pct-of-encode-time")
	}
}

// BenchmarkPipeline measures the end-to-end public API workflow.
func BenchmarkPipeline(b *testing.B) {
	b.ReportAllocs()
	seq := seqOf(b, "crew_like", 96, 64, 10)
	params := DefaultParams()
	params.GOPSize = 10
	params.SearchRange = 8
	p := NewPipeline(WithParams(params))
	for i := 0; i < b.N; i++ {
		res, err := p.ProcessContext(context.Background(), seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := res.StoreRoundTripContext(context.Background(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineRetained measures the heap a processed video keeps alive:
// what a ProcessContext Result of 320×176 × 30 frames holds — payload,
// per-macroblock records and dependencies, importance maps, partitions —
// per frame. Each reading is the live heap after a collection, with the
// Result held, less the live heap before it.
func BenchmarkPipelineRetained(b *testing.B) {
	seq := seqOf(b, "crew_like", 320, 176, 30)
	params := DefaultParams()
	params.GOPSize = 15
	p := NewPipeline(WithParams(params), WithWorkers(1))
	// Two collections: the first moves what sync.Pools hold to their
	// victim caches, the second frees it.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var retained uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		res, err := p.ProcessContext(context.Background(), seq)
		if err != nil {
			b.Fatal(err)
		}
		retained += liveHeap() - before
		runtime.KeepAlive(res)
	}
	b.ReportMetric(float64(retained)/float64(b.N*len(seq.Frames)), "retained_B/frame")
}

// BenchmarkPipelineRoundTrip measures the §6.4 Monte-Carlo trip through the
// public API on one already-processed video at the performance ledger's
// geometry: inject, decode, PSNR against the source, serially. "paper" is
// the Table 1 assignment, whose trips come back nearly flip-free (the case
// the decoder's syntax replay serves); "none" stores every payload bit
// uncorrected, so nearly every frame is damaged and parsed from its bits.
func BenchmarkPipelineRoundTrip(b *testing.B) {
	seq := seqOf(b, "crew_like", 320, 176, 30)
	params := DefaultParams()
	params.GOPSize = 15
	for _, bc := range []struct {
		name   string
		assign ClassAssignment
	}{{"paper", PaperAssignment()}, {"none", allNoneAssignment()}} {
		b.Run(bc.name, func(b *testing.B) {
			res, err := NewPipeline(WithParams(params), WithAssignment(bc.assign), WithWorkers(1)).ProcessContext(context.Background(), seq)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, _, err := res.StoreRoundTripContext(context.Background(), int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := PSNRContext(context.Background(), seq, dec, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(seq.Frames))/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
