package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/obs"
)

// TestStoreContextDeterministicAcrossWorkers is the core reproducibility
// guarantee of the parallel storage path: for a fixed seed, the stored
// payload bytes and the flip count are identical at every worker count.
func TestStoreContextDeterministicAcrossWorkers(t *testing.T) {
	s := variableSystem(t)
	ref, refFlips := storedPayloads(t, s, StoreOpts{Seed: 42, Workers: 1})
	if refFlips <= 0 {
		t.Fatalf("expected some residual flips, got %d", refFlips)
	}
	for _, workers := range []int{2, 8} {
		got, flips := storedPayloads(t, s, StoreOpts{Seed: 42, Workers: workers})
		if flips != refFlips || !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: %d flips, want %d, or payloads differ", workers, flips, refFlips)
		}
	}
	// A different seed must give a different error pattern.
	if other, _ := storedPayloads(t, s, StoreOpts{Seed: 43, Workers: 4}); reflect.DeepEqual(other, ref) {
		t.Fatal("independent seeds produced identical error patterns")
	}
}

// TestStoreContextPooledReuseBitIdentical pins the pooling contract of the
// round trip: releasing a stored copy and running the identical round trip
// again — now through recycled arenas and pooled RNGs — must reproduce every
// payload bit and the flip count, at one worker and at eight.
func TestStoreContextPooledReuseBitIdentical(t *testing.T) {
	s := variableSystem(t)
	for _, workers := range []int{1, 8} {
		first, flips1 := storedPayloads(t, s, StoreOpts{Seed: 1234, Workers: workers})
		for round := 0; round < 3; round++ {
			again, flips2 := storedPayloads(t, s, StoreOpts{Seed: 1234, Workers: workers})
			if flips2 != flips1 || !reflect.DeepEqual(again, first) {
				t.Fatalf("workers=%d round %d: flips %d, want %d, or payloads differ after pool reuse", workers, round, flips2, flips1)
			}
		}
	}
}

// TestStoreContextFrameOffset pins the chunked-store contract: storing a
// tail slice of the video with FrameOffset set to its global first-frame
// index injects exactly the errors the full-video round trip injects into
// those frames, and the head slice at offset 0 the rest, so the two halves
// reproduce the batch round trip exactly.
func TestStoreContextFrameOffset(t *testing.T) {
	e := videoOf(t)
	s := variableSystem(t)
	ref, refFlips := storedPayloads(t, s, StoreOpts{Seed: 42, Workers: 4})
	cut := len(e.v.Frames) / 2
	var flips int
	for _, half := range [][2]int{{0, cut}, {cut, len(e.v.Frames)}} {
		sub := &codec.Video{Params: e.v.Params, W: e.v.W, H: e.v.H, FPS: e.v.FPS, Frames: e.v.Frames[half[0]:half[1]]}
		got, n, err := s.StoreContext(context.Background(), sub, e.parts[half[0]:half[1]], StoreOpts{Seed: 42, Workers: 4, FrameOffset: half[0]})
		if err != nil {
			t.Fatal(err)
		}
		for f := range got.Frames {
			if !bytes.Equal(ref[half[0]+f], got.Frames[f].Payload) {
				t.Fatalf("frame %d payload differs from the batch round trip", half[0]+f)
			}
		}
		flips += n
	}
	if flips != refFlips {
		t.Fatalf("chunked flips %d != batch %d", flips, refFlips)
	}
}

func TestStoreContextCancelled(t *testing.T) {
	e := videoOf(t)
	s := variableSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range append(rngRoute, route{2}) {
		if _, _, err := s.StoreContext(ctx, e.v, e.parts, r.opts(1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v", r, err)
		}
	}
	if _, err := s.FootprintContext(ctx, e.v, e.parts, 100, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestInjectFrameNoAlloc verifies the zero-allocation claim of the injection
// hot path.
func TestInjectFrameNoAlloc(t *testing.T) {
	e := videoOf(t)
	s := variableSystem(t)
	work := e.v.Clone()
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(20, func() {
		for f := range work.Frames {
			rng.Seed(int64(f))
			s.injectFrame(rng, work.Frames[f], e.parts[f], obs.Noop{})
		}
	})
	if allocs != 0 {
		t.Errorf("injectFrame allocates %.1f per sweep, want 0", allocs)
	}
}
