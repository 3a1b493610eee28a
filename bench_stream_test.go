package videoapp

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/y4m"
)

// BenchmarkStreamMemory compares the peak heap growth of the batch pipeline
// against the streaming one on a 1x and a 4x-length input read from a .y4m
// file. Batch materializes every raw frame plus the whole encoded video, so
// its peak grows linearly with the frame count; streaming holds only the
// chunks in flight, so its peak must stay roughly flat (the acceptance
// criterion is sublinear growth batch→stream at 4x). The chunks in flight
// scale with the worker count, so streaming runs at workers 1 and 2 and
// the flatness is read at a fixed worker count. Peaks are reported as the
// peak-MB metric; its before/after numbers are recorded in CHANGES.md.
//
//	go test -run '^$' -bench BenchmarkStreamMemory -benchtime 1x .
func BenchmarkStreamMemory(b *testing.B) {
	b.ReportAllocs()
	const baseFrames = 48 // 12 closed GOPs at GOPSize 4
	params := DefaultParams()
	params.GOPSize = 4
	params.SearchRange = 8

	writeY4M := func(frames int) string {
		seq := seqOf(b, "crew_like", 160, 96, frames)
		path := filepath.Join(b.TempDir(), "in.y4m")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := y4m.Write(f, seq); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		return path
	}

	for _, scale := range []int{1, 4} {
		frames := scale * baseFrames
		path := writeY4M(frames)

		batch := func(b *testing.B) {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			seq, err := y4m.ReadAll(f, path)
			if err != nil {
				b.Fatal(err)
			}
			p := NewPipeline(WithParams(params))
			if _, err := p.ProcessContext(context.Background(), seq); err != nil {
				b.Fatal(err)
			}
		}
		stream := func(b *testing.B, workers int) {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			src, err := Y4MSource(f, path)
			if err != nil {
				b.Fatal(err)
			}
			p := NewPipeline(WithParams(params), WithChunkGOPs(1), WithWorkers(workers))
			if _, _, err := p.StreamToArchive(context.Background(), src, io.Discard); err != nil {
				b.Fatal(err)
			}
		}

		b.Run("mode=batch/frames="+strconv.Itoa(frames), func(b *testing.B) {
			benchPeakHeap(b, batch)
		})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("mode=stream/workers=%d/frames=%d", workers, frames), func(b *testing.B) {
				benchPeakHeap(b, func(b *testing.B) { stream(b, workers) })
			})
		}
	}
}

// BenchmarkStreamIngest is the write path's working-set benchmark: the
// ledger's ingest shape (320x176, GOP 6, one GOP per chunk, StreamToArchive
// with nothing behind the writer) at 12 and 48 frames and 1, 2 and 4
// workers. ns/op falls with the worker count up to the core count — chunks
// are processed concurrently and committed in order — while B/op per frame
// stays flat; the ledger's ingest workload holds the committed numbers.
func BenchmarkStreamIngest(b *testing.B) {
	params := DefaultParams()
	params.GOPSize = 6
	for _, frames := range []int{12, 48} {
		seq := seqOf(b, "crew_like", 320, 176, frames)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("frames=%d/workers=%d", frames, workers), func(b *testing.B) {
				b.ReportAllocs()
				p := NewPipeline(WithParams(params), WithChunkGOPs(1), WithWorkers(workers))
				for i := 0; i < b.N; i++ {
					if _, _, err := p.StreamToArchive(context.Background(), SequenceSource(seq), io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchPeakHeap runs fn b.N times, sampling HeapAlloc concurrently, and
// reports the worst observed peak above the post-GC baseline. Sampling at
// 200µs catches the sustained accumulation that distinguishes batch from
// streaming (raw frames + encoded video held live), which is the quantity
// under test — not transient allocator spikes.
func benchPeakHeap(b *testing.B, fn func(*testing.B)) {
	var peak atomic.Uint64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(200 * time.Microsecond)
			defer t.Stop()
			var ms runtime.MemStats
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					runtime.ReadMemStats(&ms)
					if d := ms.HeapAlloc - base.HeapAlloc; ms.HeapAlloc > base.HeapAlloc && d > peak.Load() {
						peak.Store(d)
					}
				}
			}
		}()
		fn(b)
		close(stop)
		<-done
	}
	b.ReportMetric(float64(peak.Load())/(1<<20), "peak-MB")
}
