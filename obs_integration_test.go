package videoapp

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"videoapp/internal/obs"
)

// requireSameMetrics fails unless the two snapshots agree on everything but
// wall time.
func requireSameMetrics(t testing.TB, a, b MetricsSnapshot) {
	t.Helper()
	untimed := func(s MetricsSnapshot) MetricsSnapshot {
		s.Stages = slices.Clone(s.Stages)
		for i, st := range s.Stages {
			s.Stages[i] = obs.StageStat{Stage: st.Stage, Calls: st.Calls, Frames: st.Frames}
		}
		return s
	}
	if a, b := untimed(a), untimed(b); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics differ beyond wall time:\n%+v\n%+v", a, b)
	}
}

// TestMetricsReconcileWithResult checks the reconciliation contract
// documented on Metrics: the footprint counters equal the Stats
// breakdown, the residual-flip total equals the sum of the flip counts
// returned by the round trips, and the encode and decode stages account
// for every frame — for a closed-GOP video and for an open-GOP one, whose
// B frames make the whole sequence one unit of encode work.
func TestMetricsReconcileWithResult(t *testing.T) {
	e := mainOf(t)
	seq, closed := e.seq, e.p
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
			for stage, w := range map[string][2]int64{"encode": {1, n}, "decode": {2, 2 * n}} {
				i := slices.IndexFunc(snap.Stages, func(st obs.StageStat) bool { return st.Stage == stage })
				if i < 0 || [2]int64{snap.Stages[i].Calls, snap.Stages[i].Frames} != w {
					t.Fatalf("%s stage: want {calls frames} %v among %+v", stage, w, snap.Stages)
				}
			}
		})
	}
}

// TestContextObserverIsComplete pins the context as a complete route: under
// ContextWithObserver every pipeline entry point publishes its footprint
// counters and gauges and the partition span.
func TestContextObserverIsComplete(t *testing.T) {
	e := mainOf(t)
	seq, p := e.seq, e.p
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
			if !slices.ContainsFunc(got.Stages, func(st obs.StageStat) bool { return st.Stage == "partition" }) {
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
	e := mainOf(t)
	seq := e.seq
	// The cap is a full run of the calls the cancelled run makes, and the
	// round trip: the reference's metrics before it streams, which are the
	// same at every worker count.
	full := referenceOf(t).processed

	m := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tripwire := &cancelOnFrame{Observer: m, stage: "encode", after: 3, cancel: cancel}
	pl := e.pipeline(4)

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
	// Metrics reproduces the reference's metrics exactly.
	m.Reset()
	requireSameMetrics(t, referenceOf(t).snap, produce(t, e, 4, m).snap)
}

// TestMetricsConcurrentReadDuringRun snapshots the aggregator from another
// goroutine while the pipeline is writing to it. Run under -race this pins
// the thread-safety of Metrics against live pipeline traffic.
func TestMetricsConcurrentReadDuringRun(t *testing.T) {
	e := mainOf(t)
	seq := e.seq
	m := NewMetrics()
	ctx := ContextWithObserver(context.Background(), m)
	pl := e.pipeline(4)

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
