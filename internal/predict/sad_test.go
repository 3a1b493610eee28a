package predict

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// TestSAD8Exhaustive checks the SWAR byte-difference primitive against every
// byte pair, in every lane position.
func TestSAD8Exhaustive(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				wa := uint64(a) << (8 * lane)
				wb := uint64(b) << (8 * lane)
				if got, want := sad8(wa, wb), absDiff(a, b); got != want {
					t.Fatalf("sad8 lane %d: |%d-%d| = %d, got %d", lane, a, b, want, got)
				}
			}
		}
	}
}

// TestSAD8AllLanes cross-checks full random words against a per-byte sum.
func TestSAD8AllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		want := 0
		var ab, bb [8]byte
		binary.LittleEndian.PutUint64(ab[:], a)
		binary.LittleEndian.PutUint64(bb[:], b)
		for j := 0; j < 8; j++ {
			want += absDiff(int(ab[j]), int(bb[j]))
		}
		if got := sad8(a, b); got != want {
			t.Fatalf("sad8(%#x, %#x) = %d, want %d", a, b, got, want)
		}
	}
}

// TestSADMatchesScalar: the exact SAD equals the sample-at-a-time sum on
// random content, for interior blocks, frame-edge blocks (the gathered-row
// path) and every partition width from 4 to 16, including widths that are
// not multiples of 8 and end in the 4-byte and single-byte tails.
func TestSADMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cur, ref := frame.MustNew(64, 48), frame.MustNew(64, 48)
	for i := range cur.Y {
		cur.Y[i] = uint8(rng.Intn(256))
		ref.Y[i] = uint8(rng.Intn(256))
	}
	widths := []int{4, 5, 7, 8, 9, 12, 13, 16}
	heights := []int{4, 8, 16}
	for _, w := range widths {
		for _, h := range heights {
			for trial := 0; trial < 200; trial++ {
				cx := rng.Intn(cur.W-w+1) - 4 // sometimes off the left edge
				cy := rng.Intn(cur.H-h+1) - 4
				mv := MV{int16(rng.Intn(41) - 20), int16(rng.Intn(41) - 20)}
				want := refSADLimit(cur, ref, cx, cy, w, h, mv, maxSADLimit)
				if got := SAD(cur, ref, cx, cy, w, h, mv); got != want {
					t.Fatalf("SAD(%d,%d,%dx%d,mv=%v) = %d, want %d", cx, cy, w, h, mv, got, want)
				}
			}
		}
	}
	// Explicit corner cases: all four frame corners with outward vectors.
	for _, c := range [][2]int{{0, 0}, {48, 0}, {0, 32}, {48, 32}} {
		for _, mv := range []MV{{-9, -9}, {9, 9}, {-17, 5}, {5, -17}} {
			want := refSADLimit(cur, ref, c[0], c[1], 16, 16, mv, maxSADLimit)
			if got := SAD(cur, ref, c[0], c[1], 16, 16, mv); got != want {
				t.Fatalf("corner SAD(%v, mv=%v) = %d, want %d", c, mv, got, want)
			}
		}
	}
}

// TestSADLimitContract pins the early-termination contract: results below
// the limit are exact, and early-terminated results are lower bounds of the
// exact SAD that still reach the limit.
func TestSADLimitContract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cur, ref := frame.MustNew(64, 48), frame.MustNew(64, 48)
	for i := range cur.Y {
		cur.Y[i] = uint8(rng.Intn(256))
		ref.Y[i] = uint8(rng.Intn(256))
	}
	for trial := 0; trial < 2000; trial++ {
		cx, cy := rng.Intn(48), rng.Intn(32)
		mv := MV{int16(rng.Intn(21) - 10), int16(rng.Intn(21) - 10)}
		exact := SAD(cur, ref, cx, cy, 16, 16, mv)
		limit := rng.Intn(exact + 100)
		got := SADLimit(cur, ref, cx, cy, 16, 16, mv, limit)
		if got < limit && got != exact {
			t.Fatalf("below-limit result must be exact: got %d, exact %d, limit %d", got, exact, limit)
		}
		if got >= limit && got > exact {
			t.Fatalf("terminated result must lower-bound the exact SAD: got %d, exact %d", got, exact)
		}
	}
}

// TestSADAgainstMatchesScalar covers the prediction-buffer variant used for
// bi-prediction candidates: unbounded, it is the sample-at-a-time sum at a
// corner, in the interior and hanging over the bottom-right edge.
func TestSADAgainstMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	orig := frame.MustNew(48, 48)
	for i := range orig.Y {
		orig.Y[i] = uint8(rng.Intn(256))
	}
	for _, w := range []int{4, 8, 16} {
		for _, h := range []int{4, 8, 16} {
			pred := make([]uint8, w*h)
			for i := range pred {
				pred[i] = uint8(rng.Intn(256))
			}
			for _, origin := range [][2]int{{0, 0}, {16, 16}, {44, 44}} {
				cx, cy := origin[0], origin[1]
				want := refSADAgainstLimit(orig, cx, cy, w, h, pred, maxSADLimit)
				if got := SADAgainstLimit(orig, cx, cy, w, h, pred, maxSADLimit); got != want {
					t.Fatalf("SADAgainstLimit(%d,%d,%dx%d) = %d, want %d", cx, cy, w, h, got, want)
				}
			}
		}
	}
}

// TestMotionSearchMatchesScalarCost verifies that the limit-driven search
// returns identical vectors and costs to a search evaluating exact SADs
// only (refMotionSearch) — the bit-identity property the encoder's
// determinism rests on — on a 64×64 frame shifted by (-2, 1) with noise.
func TestMotionSearchMatchesScalarCost(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cur, ref := frame.MustNew(64, 64), frame.MustNew(64, 64)
	for i := range ref.Y {
		ref.Y[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			cur.Y[y*64+x] = frame.ClampU8(int(ref.LumaAt(x-2, y+1)) + rng.Intn(7) - 3)
		}
	}
	for _, block := range [][2]int{{0, 0}, {16, 16}, {32, 48}, {48, 0}} {
		for _, pred := range []MV{{}, {4, -2}, {-6, 6}} {
			wantMV, wantCost := refMotionSearch(cur, ref, block[0], block[1], 16, 16, pred, 16)
			gotMV, gotCost := MotionSearch(cur, ref, block[0], block[1], 16, 16, pred, 16)
			if gotMV != wantMV || gotCost != wantCost {
				t.Fatalf("block %v pred %v: got (%v, %d), want (%v, %d)", block, pred, gotMV, gotCost, wantMV, wantCost)
			}
		}
	}
}
