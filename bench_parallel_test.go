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

// benchOf is the input of every stage's benchmark: 24 crew_like frames at
// 176×144 in short closed GOPs, which make many independent spans.
func benchOf(b *testing.B) *entry {
	p := DefaultParams()
	p.GOPSize, p.SearchRange = 6, 8
	return corpusOf(b, clip{preset: "crew_like", w: 176, h: 144, frames: 24, p: p, assign: "paper"})
}

func BenchmarkParallelEncode(b *testing.B) {
	e := benchOf(b)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeContext(context.Background(), e.seq, e.p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelDecode(b *testing.B) {
	v := benchOf(b).res.Video
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
	v := benchOf(b).res.Video
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
	res := benchOf(b).res
	sys, v, parts := res.system, res.Video, res.Partitions
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
	e := benchOf(b)
	seq := e.seq
	dec, err := DecodeContext(context.Background(), e.res.Video, 1)
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
	e := benchOf(b)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			p := e.pipeline(w)
			for i := 0; i < b.N; i++ {
				res, err := p.ProcessContext(context.Background(), e.seq)
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
