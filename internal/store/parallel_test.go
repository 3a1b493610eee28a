package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/codec"
)

// TestStoreContextDeterministicAcrossWorkers is the core reproducibility
// guarantee of the parallel storage path: for a fixed seed, the stored
// payload bytes and the flip count are identical at every worker count.
func TestStoreContextDeterministicAcrossWorkers(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	ctx := context.Background()
	s := variableSystem(t)
	ref, refFlips, err := s.StoreContext(ctx, v, parts, StoreOpts{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refFlips <= 0 {
		t.Fatalf("expected some residual flips, got %d", refFlips)
	}
	for _, workers := range []int{2, 8} {
		got, flips, err := s.StoreContext(ctx, v, parts, StoreOpts{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if flips != refFlips {
			t.Fatalf("workers=%d: %d flips, want %d", workers, flips, refFlips)
		}
		for f := range ref.Frames {
			if !bytes.Equal(ref.Frames[f].Payload, got.Frames[f].Payload) {
				t.Fatalf("workers=%d: frame %d payload differs", workers, f)
			}
		}
	}
	// A different seed must give a different error pattern.
	other, _, err := s.StoreContext(ctx, v, parts, StoreOpts{Seed: 43, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for f := range ref.Frames {
		if !bytes.Equal(ref.Frames[f].Payload, other.Frames[f].Payload) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("independent seeds produced identical error patterns")
	}
}

// TestStoreContextFrameOffset pins the chunked-store contract: storing a
// tail slice of the video with FrameOffset set to its global first-frame
// index injects exactly the errors the full-video round trip injects into
// those frames.
func TestStoreContextFrameOffset(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	ctx := context.Background()

	ref, refFlips, err := s.StoreContext(ctx, v, parts, StoreOpts{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Frames) < 3 {
		t.Fatalf("need >= 3 frames, have %d", len(v.Frames))
	}
	cut := len(v.Frames) / 2
	sub := &codec.Video{Params: v.Params, W: v.W, H: v.H, FPS: v.FPS, Frames: v.Frames[cut:]}
	got, flips, err := s.StoreContext(ctx, sub, parts[cut:], StoreOpts{Seed: 42, Workers: 4, FrameOffset: cut})
	if err != nil {
		t.Fatal(err)
	}
	for f := range got.Frames {
		if !bytes.Equal(ref.Frames[cut+f].Payload, got.Frames[f].Payload) {
			t.Fatalf("frame %d payload differs from batch round trip", cut+f)
		}
	}
	if flips > refFlips {
		t.Fatalf("tail flips %d exceed total %d", flips, refFlips)
	}
	// The head slice with offset 0 injects the remaining flips, so the two
	// chunked halves reproduce the batch round trip exactly.
	head := &codec.Video{Params: v.Params, W: v.W, H: v.H, FPS: v.FPS, Frames: v.Frames[:cut]}
	gotHead, headFlips, err := s.StoreContext(ctx, head, parts[:cut], StoreOpts{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for f := range gotHead.Frames {
		if !bytes.Equal(ref.Frames[f].Payload, gotHead.Frames[f].Payload) {
			t.Fatalf("head frame %d payload differs from batch round trip", f)
		}
	}
	if headFlips+flips != refFlips {
		t.Fatalf("chunked flips %d+%d != batch %d", headFlips, flips, refFlips)
	}
}

func TestStoreContextDoesNotMutateInput(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	before := make([][]byte, len(v.Frames))
	for f := range v.Frames {
		before[f] = append([]byte(nil), v.Frames[f].Payload...)
	}
	if _, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Seed: 7, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for f := range v.Frames {
		if !bytes.Equal(before[f], v.Frames[f].Payload) {
			t.Fatalf("frame %d input payload mutated", f)
		}
	}
}

func TestFootprintContextMatchesSerial(t *testing.T) {
	v, _, parts, pixels := buildVideo(t)
	s := variableSystem(t)
	ref, err := s.FootprintContext(context.Background(), v, parts, pixels, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := s.FootprintContext(context.Background(), v, parts, pixels, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.PayloadBits != ref.PayloadBits || got.HeaderBits != ref.HeaderBits ||
			got.Cells != ref.Cells || got.ParityBits != ref.ParityBits ||
			math.Abs(got.CellsPerPixel-ref.CellsPerPixel) != 0 ||
			got.ECCOverhead != ref.ECCOverhead {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, got, ref)
		}
		if len(got.PerScheme) != len(ref.PerScheme) {
			t.Fatalf("workers=%d: per-scheme keys differ", workers)
		}
		for name, bits := range ref.PerScheme {
			if got.PerScheme[name] != bits {
				t.Fatalf("workers=%d: scheme %s: %d vs %d bits", workers, name, got.PerScheme[name], bits)
			}
		}
	}
}

func TestPartitionMismatchSentinel(t *testing.T) {
	v, _, parts, pixels := buildVideo(t)
	s := variableSystem(t)
	if _, err := s.FootprintContext(context.Background(), v, parts[:1], pixels, 1); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("FootprintContext: got %v", err)
	}
	if _, _, err := s.StoreContext(context.Background(), v, parts[:1], StoreOpts{Seed: 1, Workers: 2}); !errors.Is(err, ErrPartitionMismatch) {
		t.Fatalf("StoreContext: got %v", err)
	}
}

func TestStoreContextCancelled(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.StoreContext(ctx, v, parts, StoreOpts{Seed: 1, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := s.StoreContext(ctx, v, parts, StoreOpts{Rng: rand.New(rand.NewSource(1))}); !errors.Is(err, context.Canceled) {
		t.Fatalf("rng path: got %v", err)
	}
	if _, err := s.FootprintContext(ctx, v, parts, 100, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestStoreContextRoundTripDecodes makes sure the seeded path composes with
// the decoder exactly like the rng path does.
func TestStoreContextRoundTripDecodes(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	stored, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1); err != nil {
		t.Fatal(err)
	}
}
