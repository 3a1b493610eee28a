package store

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/obs"
)

// scrubSystem builds a system with a non-default scrub interval, the
// configuration whose residual rates require the expensive binomial
// recomputation instead of the nominal Table 1 values.
func scrubSystem(b testing.TB) *System {
	b.Helper()
	s, err := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: 12})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkResidualRate is the regression guard for the per-scheme
// memoization: residualRate used to recompute the BCH residual-rate
// binomial sum on every segment of every frame whenever the scrub interval
// deviated from the substrate default; New now computes it once per
// assignment scheme and lookups are map hits.
func BenchmarkResidualRate(b *testing.B) {
	s := scrubSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.residualRate(bch.SchemeBCH6) <= 0 {
			b.Fatal("BCH-6 residual rate must be positive at a 12-month scrub interval")
		}
	}
}

// BenchmarkStoreScrubOverride exercises the full injection path on the
// recomputed-rate configuration, where every segment consults residualRate.
func BenchmarkStoreScrubOverride(b *testing.B) {
	b.ReportAllocs()
	e := videoOf(b)
	s := scrubSystem(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.StoreContext(ctx, e.v, e.parts, StoreOpts{Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInject measures the error-injection kernel alone: one frame's
// payload per iteration at the Table 1 residual rates, with the deep clone
// factored out.
func BenchmarkInject(b *testing.B) {
	e := videoOf(b)
	s := variableSystem(b)
	// Inject into a scratch copy so the source video stays clean; flips are
	// sparse, so the accumulating damage does not change the work per frame.
	work := e.v.Clone()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := i % len(work.Frames)
		rng.Seed(int64(i))
		s.injectFrame(rng, work.Frames[f], e.parts[f], obs.Noop{})
	}
}

// TestResidualRateMemoMatchesCompute pins the memo table to the direct
// computation for every scheme in the assignment.
func TestResidualRateMemoMatchesCompute(t *testing.T) {
	for _, months := range []float64{0, 3, 12} {
		s, err := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: months})
		if err != nil {
			t.Fatal(err)
		}
		check := func(sc bch.Scheme) {
			if got, want := s.residualRate(sc), s.computeResidualRate(sc); got != want {
				t.Fatalf("months=%v scheme=%s: memoized %g != computed %g", months, sc.Name, got, want)
			}
		}
		for _, bound := range s.cfg.Assignment.Bounds {
			check(bound.Scheme)
		}
		check(s.cfg.Assignment.Header)
		// A scheme outside the assignment falls back to direct computation.
		check(bch.SchemeBCH11)
	}
}

// BenchmarkReadChunk measures ChunkArchive.ReadChunkContext of the ledger's
// chunk from memory: region reads, CRC-32C, header and pivot parsing, and
// the merge of the approximate streams into the payloads.
func BenchmarkReadChunk(b *testing.B) {
	data := ledgerOf(b).archive
	a := open(b, data)
	ctx := context.Background()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ReadChunkContext(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendChunk measures ChunkWriter.Append of the same chunk: the
// stream split, the two marshals, the checksums and the writes.
func BenchmarkAppendChunk(b *testing.B) {
	e := ledgerOf(b)
	v, parts := e.v, e.parts
	cw, err := NewChunkWriter(io.Discard, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: 6, GOPsPerChunk: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cw.Append(v, parts, i*len(v.Frames)); err != nil {
			b.Fatal(err)
		}
	}
}
