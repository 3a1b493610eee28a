package videoapp

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestOptionsConfigurePipeline checks that every functional option lands on
// the corresponding field and that NewPipeline() without options keeps the
// paper defaults.
func TestOptionsConfigurePipeline(t *testing.T) {
	def := NewPipeline()
	if def.workers != 0 || def.chunkGOPs != 0 {
		t.Fatalf("defaults changed: %+v", def)
	}
	p := mainClip().p
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
	res := mainOf(t).result(1)
	hand := &Result{Video: res.Video, Partitions: res.Partitions}
	if _, _, err := hand.StoreRoundTripContext(context.Background(), 1); err == nil {
		t.Fatal("round trip of a hand-built Result succeeded; want an error")
	}
}

// TestStoreRoundTripReusesSystem checks the ProcessContext-time system is reused:
// two round trips on one Result must not rebuild state, and the same seed
// must reproduce the same flip count.
func TestStoreRoundTripReusesSystem(t *testing.T) {
	res := mainOf(t).result(1)
	sys := res.system
	_, flips1, err := res.StoreRoundTripContext(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	_, flips2, err := res.StoreRoundTripContext(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if flips1 != flips2 || res.system != sys {
		t.Fatalf("same seed, different flips (%d vs %d) or a rebuilt system", flips1, flips2)
	}
}

func TestProcessContextCancelled(t *testing.T) {
	e := mainOf(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.pipeline(2).ProcessContext(ctx, e.seq); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessContext: got %v", err)
	}
	if _, _, err := e.result(2).StoreRoundTripContext(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("StoreRoundTripContext: got %v", err)
	}
}

// TestSentinelErrors checks the public sentinels surface through errors.Is
// from every layer that raises them (ErrUnknownPreset: TestGenerateTestVideo).
func TestSentinelErrors(t *testing.T) {
	res := mainOf(t).result(1)
	if _, err := SplitStreams(res.Video, res.Partitions[:1]); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("split: got %v", err)
	}
	res.Partitions = res.Partitions[:1]
	if _, _, err := res.StoreRoundTripContext(context.Background(), 1); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("round trip: got %v", err)
	}
	an := *res.Analysis
	an.Importance = slices.Clone(an.Importance)
	an.Importance[0] = slices.Clone(an.Importance[0])
	an.Importance[0][1] = an.Importance[0][0] + 10
	if err := an.CheckMonotone(); !errors.Is(err, ErrNonMonotone) {
		t.Fatalf("monotone: got %v", err)
	}
}
