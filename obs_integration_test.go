package videoapp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// obsTestVideo is a small two-GOP sequence: long enough that the parallel
// encode path actually fans out, short enough to keep the suite fast.
func obsTestVideo(t testing.TB) (*Sequence, Params) {
	t.Helper()
	seq, err := GenerateTestVideo("news_like", 96, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.GOPSize = 5
	p.SearchRange = 8
	return seq, p
}

// runInstrumented processes seq and performs one round trip with a fresh
// Metrics aggregator, returning the snapshot and the residual flip count.
func runInstrumented(t testing.TB, seq *Sequence, p Params, workers int) (MetricsSnapshot, int) {
	t.Helper()
	m := NewMetrics()
	ctx := ContextWithObserver(context.Background(), m)
	res, err := NewPipeline(WithParams(p), WithWorkers(workers)).ProcessContext(ctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	_, flips, err := res.StoreRoundTripContext(ctx, 11)
	if err != nil {
		t.Fatal(err)
	}
	return m.Snapshot(), flips
}

// runStreamInstrumented archives seq through the streaming path in
// one-GOP chunks with a fresh Metrics aggregator.
func runStreamInstrumented(t testing.TB, seq *Sequence, p Params, workers int) MetricsSnapshot {
	t.Helper()
	m := NewMetrics()
	pl := NewPipeline(WithParams(p), WithWorkers(workers), WithChunkGOPs(1))
	if _, _, err := pl.StreamToArchive(ContextWithObserver(context.Background(), m), SequenceSource(seq), io.Discard); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot()
}

// TestMetricsIdenticalAcrossWorkers pins the determinism contract for the
// aggregator: counters, gauges and per-stage call and frame totals are pure
// functions of the input and seed, independent of the worker count — on the
// batch path and on the streaming path, where the worker count also decides
// how many chunks are in flight. Only wall-clock figures may differ between
// the serial and parallel runs.
func TestMetricsIdenticalAcrossWorkers(t *testing.T) {
	seq, p := obsTestVideo(t)
	s1, f1 := runInstrumented(t, seq, p, 1)
	s8, f8 := runInstrumented(t, seq, p, 8)
	if f1 != f8 {
		t.Fatalf("flips differ across worker counts: %d vs %d", f1, f8)
	}
	requireSameMetrics(t, s1, s8)

	long, err := GenerateTestVideo("news_like", 96, 64, 4*p.GOPSize+2)
	if err != nil {
		t.Fatal(err)
	}
	s1, s8 = runStreamInstrumented(t, long, p, 1), runStreamInstrumented(t, long, p, 8)
	requireSameMetrics(t, s1, s8)
	if got := s8.Counter("stream_chunks", ""); got != 5 {
		t.Fatalf("stream_chunks = %d, want one per chunk (5)", got)
	}
}

// requireSameMetrics fails unless the two snapshots agree on everything but
// wall time.
func requireSameMetrics(t testing.TB, s1, s8 MetricsSnapshot) {
	t.Helper()
	if len(s1.Counters) != len(s8.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(s1.Counters), len(s8.Counters))
	}
	for i, c := range s1.Counters {
		if s8.Counters[i] != c {
			t.Fatalf("counter %s[%s]: workers=1 %d, workers=8 %d",
				c.Name, c.Label, c.Value, s8.Counters[i].Value)
		}
	}
	if len(s1.Gauges) != len(s8.Gauges) {
		t.Fatalf("gauge sets differ: %d vs %d", len(s1.Gauges), len(s8.Gauges))
	}
	for i, g := range s1.Gauges {
		if s8.Gauges[i] != g {
			t.Fatalf("gauge %s[%s]: workers=1 %v, workers=8 %v",
				g.Name, g.Label, g.Value, s8.Gauges[i].Value)
		}
	}
	if len(s1.Stages) != len(s8.Stages) {
		t.Fatalf("stage sets differ: %d vs %d", len(s1.Stages), len(s8.Stages))
	}
	for i, st := range s1.Stages {
		other := s8.Stages[i]
		if st.Stage != other.Stage || st.Calls != other.Calls || st.Frames != other.Frames {
			t.Fatalf("stage %s: workers=1 {calls %d frames %d}, workers=8 {calls %d frames %d}",
				st.Stage, st.Calls, st.Frames, other.Calls, other.Frames)
		}
	}
}

// TestMetricsReconcileWithResult checks the reconciliation contract
// documented on Metrics: the footprint counters equal the Stats
// breakdown, the residual-flip total equals the sum of the flip counts
// returned by the round trips, and the encode and decode stages account
// for every frame — for a closed-GOP video and for an open-GOP one, whose
// B frames make the whole sequence one unit of encode work.
func TestMetricsReconcileWithResult(t *testing.T) {
	seq, closed := obsTestVideo(t)
	open := closed
	open.BFrames, open.GOPSize = 2, 6
	for name, p := range map[string]Params{"closed_gop": closed, "bframes": open} {
		t.Run(name, func(t *testing.T) {
			m := NewMetrics()
			ctx := ContextWithObserver(context.Background(), m)
			res, err := NewPipeline(WithParams(p), WithWorkers(4)).ProcessContext(ctx, seq)
			if err != nil {
				t.Fatal(err)
			}
			_, flipsA, err := res.StoreRoundTripContext(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, flipsB, err := res.StoreRoundTripContext(ctx, 99)
			if err != nil {
				t.Fatal(err)
			}

			snap := m.Snapshot()
			for name, bits := range res.Stats.PerScheme {
				if got := snap.Counter("footprint_payload_bits", name); got != bits {
					t.Fatalf("payload bits %s: counter %d, Stats %d", name, got, bits)
				}
			}
			if got := snap.CounterTotal("footprint_payload_bits"); got != res.Stats.PayloadBits {
				t.Fatalf("payload total: counter %d, Stats %d", got, res.Stats.PayloadBits)
			}
			if got := snap.Counter("footprint_header_bits", ""); got != res.Stats.HeaderBits {
				t.Fatalf("header bits: counter %d, Stats %d", got, res.Stats.HeaderBits)
			}
			if got := snap.Gauge("footprint_cells_per_pixel", ""); got != res.Stats.CellsPerPixel {
				t.Fatalf("cells/pixel: gauge %v, Stats %v", got, res.Stats.CellsPerPixel)
			}
			if got := snap.CounterTotal("store_residual_flips"); got != int64(flipsA+flipsB) {
				t.Fatalf("residual flips: counter %d, round trips returned %d", got, flipsA+flipsB)
			}
			// Encoded and decoded frame counts cover the whole sequence: one
			// encode pass and two round-trip decodes, each under its span.
			n := int64(len(seq.Frames))
			if got := snap.CounterTotal("encode_frames"); got != n {
				t.Fatalf("encode_frames %d, want %d", got, n)
			}
			if got := snap.CounterTotal("decode_frames"); got != 2*n {
				t.Fatalf("decode_frames %d, want %d", got, 2*n)
			}
			want := map[string][2]int64{"encode": {1, n}, "decode": {2, 2 * n}}
			for _, st := range snap.Stages {
				if w, ok := want[st.Stage]; ok {
					if got := [2]int64{st.Calls, st.Frames}; got != w {
						t.Fatalf("%s stage {calls frames} %v, want %v", st.Stage, got, w)
					}
					delete(want, st.Stage)
				}
			}
			if len(want) != 0 {
				t.Fatalf("stages %v published no span", want)
			}
		})
	}
}

// TestContextObserverIsComplete pins the context as a complete route: under
// ContextWithObserver every pipeline entry point publishes its footprint
// counters and gauges and the partition span.
func TestContextObserverIsComplete(t *testing.T) {
	seq, p := obsTestVideo(t)
	entries := map[string]func(context.Context, *Pipeline) error{
		"ProcessContext": func(ctx context.Context, pl *Pipeline) error {
			_, err := pl.ProcessContext(ctx, seq)
			return err
		},
		"ProcessStream": func(ctx context.Context, pl *Pipeline) error {
			_, err := pl.ProcessStream(ctx, SequenceSource(seq))
			return err
		},
		"StreamToArchive": func(ctx context.Context, pl *Pipeline) error {
			_, _, err := pl.StreamToArchive(ctx, SequenceSource(seq), io.Discard)
			return err
		},
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			m := NewMetrics()
			if err := run(ContextWithObserver(context.Background(), m), NewPipeline(WithParams(p))); err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot()
			if got.Counter("footprint_header_bits", "") == 0 || got.Gauge("footprint_cells_per_pixel", "") == 0 {
				t.Fatalf("footprint not published through the context: %+v", got.Counters)
			}
			partitioned := false
			for _, st := range got.Stages {
				partitioned = partitioned || st.Stage == "partition"
			}
			if !partitioned {
				t.Fatalf("partition span not published through the context: %+v", got.Stages)
			}
		})
	}
}

// cancelOnFrame cancels a context after the Nth FrameDone event in the
// given stage, forcing a mid-stage abort while other workers are in flight.
type cancelOnFrame struct {
	Observer
	stage  string
	after  int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (c *cancelOnFrame) FrameDone(stage string, frames int) {
	c.Observer.FrameDone(stage, frames)
	if stage != c.stage {
		return
	}
	c.mu.Lock()
	c.seen += frames
	hit := c.seen >= c.after
	c.mu.Unlock()
	if hit {
		c.cancel()
	}
}

// TestMetricsConsistentUnderCancellation aborts a run mid-encode and checks
// that the aggregator stays internally consistent: no counter exceeds the
// full-run totals, a snapshot is immediately readable, and the same Metrics
// can be reset and reused for a clean run.
func TestMetricsConsistentUnderCancellation(t *testing.T) {
	seq, p := obsTestVideo(t)
	full, _ := runInstrumented(t, seq, p, 4)

	m := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tripwire := &cancelOnFrame{Observer: m, stage: "encode", after: 3, cancel: cancel}
	pl := NewPipeline(WithParams(p), WithWorkers(4))

	_, err := pl.ProcessContext(ContextWithObserver(ctx, tripwire), seq)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	snap := m.Snapshot()
	for _, c := range snap.Counters {
		if c.Value > full.Counter(c.Name, c.Label) {
			t.Fatalf("counter %s[%s]=%d exceeds full-run value %d",
				c.Name, c.Label, c.Value, full.Counter(c.Name, c.Label))
		}
	}
	for _, st := range snap.Stages {
		if st.Frames > int64(len(seq.Frames)) {
			t.Fatalf("stage %s reported %d frames for a %d-frame input",
				st.Stage, st.Frames, len(seq.Frames))
		}
	}

	// The aggregator is reusable after Reset: a clean run on the same
	// Metrics reproduces the full-run counters exactly.
	m.Reset()
	observed := ContextWithObserver(context.Background(), m)
	res, err := pl.ProcessContext(observed, seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.StoreRoundTripContext(observed, 11); err != nil {
		t.Fatal(err)
	}
	redo := m.Snapshot()
	if len(redo.Counters) != len(full.Counters) {
		t.Fatalf("post-reset counter set differs: %d vs %d", len(redo.Counters), len(full.Counters))
	}
	for i, c := range full.Counters {
		if redo.Counters[i] != c {
			t.Fatalf("post-reset counter %s[%s]: %d, want %d",
				c.Name, c.Label, redo.Counters[i].Value, c.Value)
		}
	}
}

// TestMetricsConcurrentReadDuringRun snapshots the aggregator from another
// goroutine while the pipeline is writing to it. Run under -race this pins
// the thread-safety of Metrics against live pipeline traffic.
func TestMetricsConcurrentReadDuringRun(t *testing.T) {
	seq, p := obsTestVideo(t)
	m := NewMetrics()
	ctx := ContextWithObserver(context.Background(), m)
	pl := NewPipeline(WithParams(p), WithWorkers(4))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				snap := m.Snapshot()
				if snap.CounterTotal("encode_frames") > int64(len(seq.Frames)) {
					panic("encode_frames overshoot")
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	res, err := pl.ProcessContext(ctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.StoreRoundTripContext(ctx, 7); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if got := m.Snapshot().CounterTotal("encode_frames"); got != int64(len(seq.Frames)) {
		t.Fatalf("encode_frames %d, want %d", got, len(seq.Frames))
	}
}

// TestObserverDoesNotPerturbOutput pins the passivity contract: attaching
// any observer leaves the pipeline output bit-identical to an unobserved
// run at the same seed.
func TestObserverDoesNotPerturbOutput(t *testing.T) {
	seq, p := obsTestVideo(t)

	plain := NewPipeline(WithParams(p), WithWorkers(4))
	resPlain, err := plain.ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	decPlain, flipsPlain, err := resPlain.StoreRoundTripContext(context.Background(), 21)
	if err != nil {
		t.Fatal(err)
	}

	ctx := ContextWithObserver(context.Background(), NewMetrics())
	resObs, err := plain.ProcessContext(ctx, seq)
	if err != nil {
		t.Fatal(err)
	}
	decObs, flipsObs, err := resObs.StoreRoundTripContext(ctx, 21)
	if err != nil {
		t.Fatal(err)
	}

	if flipsPlain != flipsObs {
		t.Fatalf("flips: plain %d, observed %d", flipsPlain, flipsObs)
	}
	for i := range decPlain.Frames {
		a, b := decPlain.Frames[i], decObs.Frames[i]
		if !bytes.Equal(a.Y, b.Y) || !bytes.Equal(a.Cb, b.Cb) || !bytes.Equal(a.Cr, b.Cr) {
			t.Fatalf("frame %d differs with observer attached", i)
		}
	}
}
