package chunk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/frame"
	"videoapp/internal/mlc"
	"videoapp/internal/obs"
	"videoapp/internal/store"
	"videoapp/internal/synth"
	"videoapp/internal/y4m"
)

const gopSize = 4

// testSeq generates a deterministic multi-GOP sequence; frames need not be
// a multiple of the GOP size (ragged tails must stream correctly).
func testSeq(t testing.TB, frames int) *frame.Sequence {
	t.Helper()
	cfg, ok := synth.PresetByName("crew_like")
	if !ok {
		t.Fatal("crew_like preset missing")
	}
	return synth.Generate(cfg.ScaleTo(96, 64, frames))
}

func testParams() codec.Params {
	p := codec.DefaultParams()
	p.GOPSize = gopSize
	p.SearchRange = 8
	return p
}

func testConfig(t testing.TB, gopsPerChunk, workers int) Config {
	t.Helper()
	sys, err := store.New(store.Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment()})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Params:       testParams(),
		Assignment:   core.PaperAssignment(),
		System:       sys,
		GOPsPerChunk: gopsPerChunk,
		Workers:      workers,
	}
}

// collect runs the pipeline and gathers every chunk in sink order.
func collect(t testing.TB, cfg Config, src Source) []*Processed {
	t.Helper()
	var out []*Processed
	err := Run(context.Background(), cfg, src, func(p *Processed) error {
		out = append(out, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunMatchesBatch pins the streaming pipeline's core invariant: chunked
// processing of a closed-GOP stream reproduces the batch pipeline bit for
// bit — encoded payloads, analysis rows, partitions and footprint costs —
// at several chunk sizes and worker counts (one chunk at a time, several
// chunks in flight, more workers than chunks), including a ragged tail.
func TestRunMatchesBatch(t *testing.T) {
	const frames = 3*gopSize + 2 // ragged final GOP
	seq := testSeq(t, frames)

	// Batch reference.
	p := testParams()
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(core.PaperAssignment())
	sys, err := store.New(store.Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment()})
	if err != nil {
		t.Fatal(err)
	}
	refCosts, err := sys.FrameCosts(context.Background(), v, parts, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, gpc := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("gops=%d/workers=%d", gpc, workers), func(t *testing.T) {
				cfg := testConfig(t, gpc, workers)
				chunks := collect(t, cfg, FromSequence(seq))

				next := 0
				for i, c := range chunks {
					if c.Index != i || c.FirstFrame != next {
						t.Fatalf("chunk %d: index %d first %d, want %d %d", i, c.Index, c.FirstFrame, i, next)
					}
					for f, cf := range c.Video.Frames {
						g := c.FirstFrame + f
						if !bytes.Equal(cf.Payload, v.Frames[g].Payload) {
							t.Fatalf("chunk %d frame %d: payload differs from batch frame %d", i, f, g)
						}
						if !reflect.DeepEqual(c.Importance[f], an.Importance[g]) {
							t.Fatalf("chunk %d frame %d: importance differs from batch", i, f)
						}
						if !reflect.DeepEqual(c.CompImportance[f], an.CompImportance[g]) {
							t.Fatalf("chunk %d frame %d: comp importance differs from batch", i, f)
						}
						if c.Parts[f].Frame != f {
							t.Fatalf("chunk %d frame %d: partition frame %d not chunk-local", i, f, c.Parts[f].Frame)
						}
						if !reflect.DeepEqual(c.Parts[f].Pivots, parts[g].Pivots) {
							t.Fatalf("chunk %d frame %d: pivots differ from batch", i, f)
						}
						if !reflect.DeepEqual(c.Costs[f], refCosts[g]) {
							t.Fatalf("chunk %d frame %d: costs differ from batch", i, f)
						}
					}
					next += len(c.Video.Frames)
				}
				if next != frames {
					t.Fatalf("streamed %d frames, want %d", next, frames)
				}
			})
		}
	}
}

// TestRunChunkShapes checks the chunker's frame grouping, including the
// ragged tail chunk.
func TestRunChunkShapes(t *testing.T) {
	const frames = 2*gopSize + 3
	cfg := testConfig(t, 1, 2)
	chunks := collect(t, cfg, FromSequence(testSeq(t, frames)))
	var sizes []int
	for _, c := range chunks {
		sizes = append(sizes, len(c.Video.Frames))
	}
	want := []int{gopSize, gopSize, 3}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
}

func TestRunY4MSourceMatchesSequence(t *testing.T) {
	seq := testSeq(t, 2*gopSize)
	var buf bytes.Buffer
	if err := y4m.Write(&buf, seq); err != nil {
		t.Fatal(err)
	}
	src, err := FromY4M(&buf, seq.Name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 1, 2)
	fromY4M := collect(t, cfg, src)
	fromSeq := collect(t, cfg, FromSequence(seq))
	if len(fromY4M) != len(fromSeq) {
		t.Fatalf("%d chunks from y4m, %d from sequence", len(fromY4M), len(fromSeq))
	}
	for i := range fromSeq {
		for f := range fromSeq[i].Video.Frames {
			if !bytes.Equal(fromY4M[i].Video.Frames[f].Payload, fromSeq[i].Video.Frames[f].Payload) {
				t.Fatalf("chunk %d frame %d: y4m source payload differs", i, f)
			}
		}
	}
}

func TestRunEmptySource(t *testing.T) {
	cfg := testConfig(t, 1, 1)
	err := Run(context.Background(), cfg, FromSequence(&frame.Sequence{FPS: 30}), func(*Processed) error { return nil })
	if err == nil {
		t.Fatal("empty source must fail")
	}
}

func TestRunRejectsBFrames(t *testing.T) {
	cfg := testConfig(t, 1, 1)
	cfg.Params.BFrames = 2
	cfg.Params.GOPSize = 6
	err := Run(context.Background(), cfg, FromSequence(testSeq(t, 6)), func(*Processed) error { return nil })
	if err == nil {
		t.Fatal("BFrames > 0 must be rejected")
	}
}

// errSource fails after yielding n frames.
type errSource struct {
	src  Source
	n    int
	fail error
}

func (e *errSource) Next() (*frame.Frame, error) {
	if e.n <= 0 {
		return nil, e.fail
	}
	e.n--
	return e.src.Next()
}

func (e *errSource) FPS() int     { return e.src.FPS() }
func (e *errSource) Name() string { return e.src.Name() }

func TestRunSourceErrorPropagates(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	boom := errors.New("disk on fire")
	src := &errSource{src: FromSequence(testSeq(t, 3*gopSize)), n: gopSize + 1, fail: boom}
	err := Run(context.Background(), cfg, src, func(*Processed) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

func TestRunSinkErrorPropagates(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	boom := errors.New("archive full")
	err := Run(context.Background(), cfg, FromSequence(testSeq(t, 3*gopSize)), func(p *Processed) error {
		if p.Index == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunCancel(t *testing.T) {
	cfg := testConfig(t, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	err := Run(ctx, cfg, FromSequence(testSeq(t, 3*gopSize)), func(p *Processed) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// mixedSource yields frames of inconsistent geometry.
type mixedSource struct{ n int }

func (m *mixedSource) Next() (*frame.Frame, error) {
	m.n++
	switch m.n {
	case 1:
		return frame.MustNew(96, 64), nil
	case 2:
		return frame.MustNew(64, 64), nil
	}
	return nil, io.EOF
}

func (m *mixedSource) FPS() int     { return 30 }
func (m *mixedSource) Name() string { return "mixed" }

func TestRunRejectsGeometryChange(t *testing.T) {
	cfg := testConfig(t, 1, 1)
	err := Run(context.Background(), cfg, &mixedSource{}, func(*Processed) error { return nil })
	if err == nil {
		t.Fatal("geometry change mid-stream must be rejected")
	}
}

// TestFanOutSplitsBudget pins the worker-budget rule: ⌈W/G⌉ chunks in
// flight, and chunks × inner workers never above W.
func TestFanOutSplitsBudget(t *testing.T) {
	for _, tc := range []struct{ workers, gops, inFlight, inner int }{
		{1, 1, 1, 1}, {1, 3, 1, 1},
		{2, 1, 2, 1}, {8, 1, 8, 1},
		{8, 2, 4, 2}, {8, 3, 3, 2}, {3, 2, 2, 1},
		{4, 4, 1, 4}, {4, 9, 1, 4},
	} {
		inFlight, inner := Config{Workers: tc.workers, GOPsPerChunk: tc.gops}.fanOut()
		if inFlight != tc.inFlight || inner != tc.inner {
			t.Errorf("W=%d G=%d: %d chunks x %d workers, want %d x %d", tc.workers, tc.gops, inFlight, inner, tc.inFlight, tc.inner)
		}
		if inFlight*inner > tc.workers {
			t.Errorf("W=%d G=%d: %d x %d exceeds the budget", tc.workers, tc.gops, inFlight, inner)
		}
	}
}

// skewedSeq is a stream whose first chunk is far more expensive than the
// rest: one GOP of noise, then static frames.
func skewedSeq(t testing.TB, frames int) *frame.Sequence {
	t.Helper()
	seq := testSeq(t, frames)
	noise := uint32(1)
	for _, f := range seq.Frames[:gopSize] {
		for i := range f.Y {
			noise = noise*1664525 + 1013904223
			f.Y[i] = uint8(noise >> 24)
		}
	}
	for i := gopSize + 1; i < frames; i++ {
		seq.Frames[i] = seq.Frames[gopSize]
	}
	return seq
}

// TestRunCommitsInOrderUnderSkew makes later chunks finish long before the
// first one and requires the sink to see them in stream order regardless,
// with stream_chunks counting exactly the chunks committed so far.
func TestRunCommitsInOrderUnderSkew(t *testing.T) {
	const frames = 6*gopSize + 1
	seq := skewedSeq(t, frames)
	for _, workers := range []int{2, 3, 8} {
		m := obs.NewMetrics()
		calls, next := 0, 0
		err := Run(obs.With(context.Background(), m), testConfig(t, 1, workers), FromSequence(seq), func(c *Processed) error {
			if c.Index != calls || c.FirstFrame != next {
				t.Fatalf("workers=%d: sink call %d got chunk %d at frame %d, want %d at %d", workers, calls, c.Index, c.FirstFrame, calls, next)
			}
			if n := m.Snapshot().Counter(obs.CtrChunks, ""); n != int64(calls) {
				t.Fatalf("workers=%d: stream_chunks = %d while sinking chunk %d", workers, n, calls)
			}
			calls++
			next += len(c.Video.Frames)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := m.Snapshot().Counter(obs.CtrChunks, ""); calls != 7 || n != 7 {
			t.Fatalf("workers=%d: %d sink calls, stream_chunks = %d, want 7", workers, calls, n)
		}
	}
}

// unalignedSource yields frames the encoder rejects, so every chunk fails.
type unalignedSource struct{ n int }

func (u *unalignedSource) Next() (*frame.Frame, error) {
	if u.n == 0 {
		return nil, io.EOF
	}
	u.n--
	return &frame.Frame{W: 100, H: 60, Y: make([]uint8, 100*60), Cb: make([]uint8, 50*30), Cr: make([]uint8, 50*30)}, nil
}

func (u *unalignedSource) FPS() int     { return 30 }
func (u *unalignedSource) Name() string { return "unaligned" }

// TestRunReturnsLowestChunkError: when several chunks fail, Run reports the
// one the serial loop would have hit first, and a failed run sinks nothing
// past the failure.
func TestRunReturnsLowestChunkError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := Run(context.Background(), testConfig(t, 1, workers), &unalignedSource{n: 5 * gopSize}, func(p *Processed) error {
			t.Errorf("workers=%d: chunk %d reached the sink", workers, p.Index)
			return nil
		})
		if err == nil || !strings.HasPrefix(err.Error(), "chunk 0: ") {
			t.Errorf("workers=%d: err = %v, want chunk 0's", workers, err)
		}

		boom := errors.New("archive full")
		var sunk []int
		err = Run(context.Background(), testConfig(t, 1, workers), FromSequence(testSeq(t, 5*gopSize)), func(p *Processed) error {
			sunk = append(sunk, p.Index)
			if p.Index == 1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if !reflect.DeepEqual(sunk, []int{0, 1}) {
			t.Errorf("workers=%d: sink saw %v after failing on chunk 1", workers, sunk)
		}
	}
}

// TestRunLeavesNoGoroutines: however a run ends — source error, sink error,
// cancellation — every goroutine it started is gone when it returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	seq := testSeq(t, 6*gopSize)
	boom := errors.New("boom")
	ends := map[string]func(workers int) error{
		"source error": func(workers int) error {
			src := &errSource{src: FromSequence(seq), n: 3*gopSize + 1, fail: boom}
			return Run(context.Background(), testConfig(t, 1, workers), src, func(*Processed) error { return nil })
		},
		"sink error": func(workers int) error {
			return Run(context.Background(), testConfig(t, 1, workers), FromSequence(seq), func(p *Processed) error {
				if p.Index == 1 {
					return boom
				}
				return nil
			})
		},
		"cancel": func(workers int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return Run(ctx, testConfig(t, 1, workers), FromSequence(seq), func(*Processed) error {
				cancel()
				return nil
			})
		},
	}
	for name, end := range ends {
		for _, workers := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			if err := end(workers); err == nil {
				t.Errorf("%s, workers=%d: run succeeded", name, workers)
			}
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if after > before {
				t.Errorf("%s, workers=%d: %d goroutines before, %d after", name, workers, before, after)
			}
		}
	}
}

// countingSource hands out fresh copies of a sequence's frames and tracks
// how many it has yielded and how many of those the collector has freed.
type countingSource struct {
	seq           *frame.Sequence
	pulled, freed atomic.Int64
	// onPull is called after each frame is yielded.
	onPull func(pulled int64)
}

func (c *countingSource) Next() (*frame.Frame, error) {
	i := int(c.pulled.Load())
	if i >= len(c.seq.Frames) {
		return nil, io.EOF
	}
	f := c.seq.Frames[i].Clone()
	runtime.SetFinalizer(f, func(*frame.Frame) { c.freed.Add(1) })
	c.onPull(c.pulled.Add(1))
	return f, nil
}

func (c *countingSource) FPS() int     { return c.seq.FPS }
func (c *countingSource) Name() string { return c.seq.Name }

// TestRunBoundedMemory proves the documented bound at every worker count:
// frames pulled from the source but not yet through the sink never exceed
// (⌈Workers/GOPsPerChunk⌉ + 2) chunks, and by the time a chunk reaches the
// sink its raw frames (and those of every earlier chunk) are garbage.
func TestRunBoundedMemory(t *testing.T) {
	const frames = 12 * gopSize
	seq := testSeq(t, frames)
	for _, gpc := range []int{1, 2} {
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := testConfig(t, gpc, workers)
			inFlight, _ := cfg.fanOut()
			bound := int64((inFlight + 2) * gpc * gopSize)
			var sunk atomic.Int64
			src := &countingSource{seq: seq}
			src.onPull = func(pulled int64) {
				if d := pulled - sunk.Load(); d > bound {
					t.Errorf("gops=%d workers=%d: %d frames between source and sink, bound %d", gpc, workers, d, bound)
				}
			}
			err := Run(context.Background(), cfg, src, func(p *Processed) error {
				encoded := int64(p.FirstFrame + len(p.Video.Frames))
				for deadline := time.Now().Add(5 * time.Second); src.freed.Load() < encoded && time.Now().Before(deadline); {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				if freed := src.freed.Load(); freed < encoded {
					t.Errorf("gops=%d workers=%d: chunk %d in the sink, %d of the %d raw frames encoded so far still reachable", gpc, workers, p.Index, encoded-freed, encoded)
				}
				sunk.Add(int64(len(p.Video.Frames)))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if sunk.Load() != frames {
				t.Fatalf("gops=%d workers=%d: sunk %d frames of %d", gpc, workers, sunk.Load(), frames)
			}
		}
	}
}
