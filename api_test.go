package videoapp

import (
	"context"
	"errors"
	"testing"
)

func apiTestSequence(t *testing.T) *Sequence {
	t.Helper()
	seq, err := GenerateTestVideo("crew_like", 96, 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func apiTestParams() Params {
	p := DefaultParams()
	p.GOPSize = 4
	p.SearchRange = 8
	return p
}

// TestOptionsConfigurePipeline checks that every functional option lands on
// the corresponding field and that NewPipeline() without options keeps the
// paper defaults.
func TestOptionsConfigurePipeline(t *testing.T) {
	def := NewPipeline()
	if def.workers != 0 || def.chunkGOPs != 0 {
		t.Fatalf("defaults changed: %+v", def)
	}
	p := apiTestParams()
	cfg := NewPipeline(
		WithParams(p),
		WithAssignment(UniformAssignment()),
		WithWorkers(3),
		WithChunkGOPs(2),
	)
	if cfg.params.GOPSize != 4 || cfg.workers != 3 || cfg.chunkGOPs != 2 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if len(cfg.assignment.Bounds) != len(UniformAssignment().Bounds) {
		t.Fatal("WithAssignment not applied")
	}
}

// TestHandBuiltResultRoundTripErrors pins that a Result not built by
// ProcessContext or ProcessStream — it has no storage system — reports an
// error from StoreRoundTripContext instead of panicking.
func TestHandBuiltResultRoundTripErrors(t *testing.T) {
	res, err := NewPipeline(WithParams(apiTestParams())).ProcessContext(context.Background(), apiTestSequence(t))
	if err != nil {
		t.Fatal(err)
	}
	hand := &Result{Video: res.Video, Partitions: res.Partitions}
	if _, _, err := hand.StoreRoundTripContext(context.Background(), 1); err == nil {
		t.Fatal("round trip of a hand-built Result succeeded; want an error")
	}
}

// TestRoundTripWorkerInvariance is the headline determinism guarantee: the
// full pipeline plus a seeded storage round trip produces bit-identical
// results at every worker count.
func TestRoundTripWorkerInvariance(t *testing.T) {
	seq := apiTestSequence(t)
	var refStored *Sequence
	var refFlips int
	var refStats StorageStats
	for _, workers := range []int{1, 2, 8} {
		p := NewPipeline(WithParams(apiTestParams()), WithWorkers(workers))
		res, err := p.ProcessContext(context.Background(), seq)
		if err != nil {
			t.Fatal(err)
		}
		dec, flips, err := res.StoreRoundTripContext(context.Background(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			refStored, refFlips, refStats = dec, flips, res.Stats
			continue
		}
		if flips != refFlips {
			t.Fatalf("workers=%d: %d flips, serial %d", workers, flips, refFlips)
		}
		if res.Stats.Cells != refStats.Cells || res.Stats.PayloadBits != refStats.PayloadBits {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, res.Stats, refStats)
		}
		if len(dec.Frames) != len(refStored.Frames) {
			t.Fatalf("workers=%d: frame count differs", workers)
		}
		for f := range dec.Frames {
			a, b := dec.Frames[f], refStored.Frames[f]
			for i := range a.Y {
				if a.Y[i] != b.Y[i] {
					t.Fatalf("workers=%d: frame %d luma differs at %d", workers, f, i)
				}
			}
		}
	}
}

// TestStoreRoundTripReusesSystem checks the ProcessContext-time system is reused:
// two round trips on one Result must not rebuild state, and the same seed
// must reproduce the same flip count.
func TestStoreRoundTripReusesSystem(t *testing.T) {
	p := NewPipeline(WithParams(apiTestParams()))
	res, err := p.ProcessContext(context.Background(), apiTestSequence(t))
	if err != nil {
		t.Fatal(err)
	}
	_, flips1, err := res.StoreRoundTripContext(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	_, flips2, err := res.StoreRoundTripContext(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if flips1 != flips2 {
		t.Fatalf("same seed, different flips: %d vs %d", flips1, flips2)
	}
}

func TestProcessContextCancelled(t *testing.T) {
	seq := apiTestSequence(t)
	p := NewPipeline(WithParams(apiTestParams()), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ProcessContext(ctx, seq); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessContext: got %v", err)
	}
	res, err := p.ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.StoreRoundTripContext(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("StoreRoundTripContext: got %v", err)
	}
}

// TestSentinelErrors checks the public sentinels surface through errors.Is
// from every layer that raises them.
func TestSentinelErrors(t *testing.T) {
	if _, err := GenerateTestVideo("no_such_preset", 32, 32, 2); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("preset: got %v", err)
	}
	seq := apiTestSequence(t)
	v, err := encodeSerial(seq, apiTestParams())
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeSerial(t, v)
	parts := an.Partition(PaperAssignment())
	if _, err := SplitStreams(v, parts[:1]); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("split: got %v", err)
	}
	p := NewPipeline(WithParams(apiTestParams()))
	res, err := p.ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	res.Partitions = res.Partitions[:1]
	if _, _, err := res.StoreRoundTripContext(context.Background(), 1); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("round trip: got %v", err)
	}
	an.Importance[0][1] = an.Importance[0][0] + 10
	if err := an.CheckMonotone(); !errors.Is(err, ErrNonMonotone) {
		t.Fatalf("monotone: got %v", err)
	}
}
