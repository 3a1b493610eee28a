package predict

import (
	"fmt"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// benchFrames builds a current/reference frame pair with correlated noise so
// SAD values and search trajectories resemble real inter coding rather than
// the degenerate all-zero case.
func benchFrames(w, h int) (*frame.Frame, *frame.Frame) {
	rng := rand.New(rand.NewSource(7))
	cur, ref := frame.MustNew(w, h), frame.MustNew(w, h)
	for i := range ref.Y {
		ref.Y[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// cur is ref shifted by (3, 1) plus noise: a realistic motion field.
			v := int(ref.LumaAt(x-3, y-1)) + rng.Intn(9) - 4
			cur.Y[y*w+x] = frame.ClampU8(v)
		}
	}
	return cur, ref
}

// BenchmarkSAD measures the block-matching kernel at the three partition
// widths the encoder uses, over a grid of candidate vectors (all interior, so
// the fast path is eligible; the scalar edge path is covered by BenchmarkSADEdge).
func BenchmarkSAD(b *testing.B) {
	cur, ref := benchFrames(128, 128)
	for _, size := range []int{16, 8, 4} {
		b.Run(fmt.Sprintf("w=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				for _, mv := range [8]MV{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {3, 1}, {-3, -1}, {5, 5}} {
					sink += SAD(cur, ref, 48, 48, size, size, mv)
				}
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkSADEdge pins the cost of the clamped (frame-border) path.
func BenchmarkSADEdge(b *testing.B) {
	cur, ref := benchFrames(128, 128)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += SAD(cur, ref, 0, 0, 16, 16, MV{-8, -8})
		sink += SAD(cur, ref, 112, 112, 16, 16, MV{8, 8})
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
