package videoapp

// Serial-vs-parallel benchmarks for every concurrent pipeline stage. Each
// stage is a pair of sub-benchmarks named workers=1 and workers=N (N =
// GOMAXPROCS), so benchstat can diff the two directly:
//
//	go test -run=^$ -bench=BenchmarkParallel -count=10 . > par.txt
//	benchstat -col "/workers" par.txt
//
// The inputs use short GOPs (many independent spans) so the fan-out has
// work to distribute; speedups scale with core count and saturate near the
// span count. On a single-core runner the two columns are expected to tie.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/quality"
	"videoapp/internal/store"
)

// benchWorkerCounts returns the benchstat comparison axis: serial and fully
// parallel.
func benchWorkerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

func benchSequence(b *testing.B, frames int) *Sequence {
	b.Helper()
	seq, err := GenerateTestVideo("crew_like", 176, 144, frames)
	if err != nil {
		b.Fatal(err)
	}
	return seq
}

func benchParams() Params {
	p := DefaultParams()
	p.GOPSize = 6 // short closed GOPs -> many independent spans
	p.SearchRange = 8
	return p
}

func BenchmarkParallelEncode(b *testing.B) {
	seq := benchSequence(b, 24)
	p := benchParams()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeContext(context.Background(), seq, p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelDecode(b *testing.B) {
	seq := benchSequence(b, 24)
	v, err := encodeSerial(seq, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeContext(context.Background(), v, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelAnalyze(b *testing.B) {
	seq := benchSequence(b, 24)
	v, err := encodeSerial(seq, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelStore(b *testing.B) {
	seq := benchSequence(b, 24)
	v, err := encodeSerial(seq, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	an := analyzeSerial(b, v)
	parts := an.Partition(PaperAssignment())
	sys, err := store.New(store.Config{Substrate: mlc.Default(), Assignment: PaperAssignment()})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := sys.StoreContext(context.Background(), v, parts, store.StoreOpts{Seed: int64(i), Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				out.Release()
			}
		})
	}
}

func BenchmarkParallelMeasure(b *testing.B) {
	seq := benchSequence(b, 24)
	v, err := encodeSerial(seq, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	dec, err := decodeSerial(v)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := quality.MeasureContext(context.Background(), seq, dec, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelPipeline is the end-to-end options-API path: process plus
// one seeded storage round trip, the workload the tentpole targets.
func BenchmarkParallelPipeline(b *testing.B) {
	seq := benchSequence(b, 24)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			p := NewPipeline(WithParams(benchParams()), WithWorkers(w))
			for i := 0; i < b.N; i++ {
				res, err := p.ProcessContext(context.Background(), seq)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := res.StoreRoundTripContext(context.Background(), int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
