package store

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/obs"
)

// TestStoreContextPooledReuseBitIdentical pins the pooling contract of the
// round trip: releasing a stored copy and running the identical round trip
// again — now through recycled arenas and pooled RNGs — must reproduce every
// payload bit and the flip count, at one worker and at eight.
func TestStoreContextPooledReuseBitIdentical(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	sys := variableSystem(t)
	for _, workers := range []int{1, 8} {
		first, flips1, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Seed: 1234, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, len(first.Frames))
		for i, f := range first.Frames {
			payloads[i] = append([]byte(nil), f.Payload...)
		}
		first.Release()
		for round := 0; round < 3; round++ {
			again, flips2, err := sys.StoreContext(context.Background(), v, parts, StoreOpts{Seed: 1234, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if flips2 != flips1 {
				t.Fatalf("workers=%d round %d: flips %d, want %d", workers, round, flips2, flips1)
			}
			for i, f := range again.Frames {
				if !bytes.Equal(f.Payload, payloads[i]) {
					t.Fatalf("workers=%d round %d: frame %d payload differs after pool reuse", workers, round, i)
				}
			}
			again.Release()
		}
	}
}

// TestInjectFrameNoAlloc verifies the zero-allocation claim of the injection
// hot path.
func TestInjectFrameNoAlloc(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	work := v.Clone()
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(20, func() {
		for f := range work.Frames {
			rng.Seed(int64(f))
			s.injectFrame(rng, work.Frames[f], parts[f], obs.Noop{})
		}
	})
	if allocs != 0 {
		t.Errorf("injectFrame allocates %.1f per sweep, want 0", allocs)
	}
}
