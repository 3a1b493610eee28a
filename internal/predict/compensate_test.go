package predict

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// Fast path ≡ border path. Compensation copies whole rows when the displaced
// rectangle lies inside the reference plane and falls back to the clamped
// per-sample accessor when it touches a border; the references below are the
// sample-at-a-time kernels as they stood before the split. Every partition
// shape is driven over every vector in ±MaxMV at the four corners, the four
// edges and the interior of a small frame, so each rectangle crosses from
// fully inside, over every border and corner, to fully outside.

func refCompensate(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = ref.LumaAt(cx+x+int(mv.X), cy+y+int(mv.Y))
		}
	}
}

func refCompensateBi(dst []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(ref0.LumaAt(cx+x+int(mv0.X), cy+y+int(mv0.Y)))
			b := int(ref1.LumaAt(cx+x+int(mv1.X), cy+y+int(mv1.Y)))
			dst[y*w+x] = uint8((a + b + 1) / 2)
		}
	}
}

func refCompensateHP(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = SampleHP(ref, 2*(cx+x)+int(mv.X), 2*(cy+y)+int(mv.Y))
		}
	}
}

func refCompensateBiHP(dst []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(SampleHP(ref0, 2*(cx+x)+int(mv0.X), 2*(cy+y)+int(mv0.Y)))
			b := int(SampleHP(ref1, 2*(cx+x)+int(mv1.X), 2*(cy+y)+int(mv1.Y)))
			dst[y*w+x] = uint8((a + b + 1) / 2)
		}
	}
}

func noiseFrame(w, h int, seed int64) *frame.Frame {
	f := frame.MustNew(w, h)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(f.Y)
	return f
}

// rectSizes are the distinct partition rectangle sizes of all shapes.
func rectSizes() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for s := PartitionShape(0); s < numPartShapes; s++ {
		for _, r := range PartitionRects(s) {
			if k := [2]int{r.W, r.H}; !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// rectOrigins places a w×h rectangle at the four corners, the middle of the
// four edges and the interior of a fw×fh frame.
func rectOrigins(fw, fh, w, h int) [][2]int {
	xs := [3]int{0, (fw - w) / 2, fw - w}
	ys := [3]int{0, (fh - h) / 2, fh - h}
	var out [][2]int
	for _, y := range ys {
		for _, x := range xs {
			out = append(out, [2]int{x, y})
		}
	}
	return out
}

// sparseMVs is a vector grid for the costlier kernels: every small
// displacement, the neighbourhoods of the macroblock multiples where
// rectangles start and stop touching a border, and the extremes.
func sparseMVs() []int16 {
	vals := []int16{-MaxMV, -MaxMV + 1, -49, -33, -32, -31, -17, -16, -15, 15, 16, 17, 31, 32, 33, 49, MaxMV - 1, MaxMV}
	for v := int16(-9); v <= 9; v++ {
		vals = append(vals, v)
	}
	return vals
}

// stridedChecker runs a kernel into a 16-stride buffer at an offset and
// compares the whole buffer with the expected rectangle laid into an equal
// buffer: samples inside must match, everything outside must keep its
// sentinel.
type stridedChecker struct {
	w, h      int
	got, want []uint8
}

const checkStride, checkOff = 16, 16 + 3

func newStridedChecker(w, h int) *stridedChecker {
	c := &stridedChecker{w: w, h: h, got: make([]uint8, checkOff+16*checkStride), want: make([]uint8, checkOff+16*checkStride)}
	for i := range c.got {
		c.got[i], c.want[i] = 0xA5, 0xA5
	}
	return c
}

// check compares kernel's output with want (row-major w×h).
func (c *stridedChecker) check(t *testing.T, what string, want []uint8, kernel func(dst []uint8, stride int)) {
	t.Helper()
	for y := 0; y < c.h; y++ {
		copy(c.want[checkOff+y*checkStride:], want[y*c.w:(y+1)*c.w])
	}
	kernel(c.got[checkOff:], checkStride)
	if !bytes.Equal(c.got, c.want) {
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s: buffer index %d (sample (%d,%d) of the %dx%d rectangle) = %d, want %d",
					what, i, (i-checkOff)%checkStride, (i-checkOff)/checkStride, c.w, c.h, c.got[i], c.want[i])
			}
		}
	}
}

func TestCompensateMatchesReferenceExhaustive(t *testing.T) {
	t.Parallel()
	ref := noiseFrame(48, 48, 21)
	want := make([]uint8, 256)
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		chk := newStridedChecker(w, h)
		for _, o := range rectOrigins(ref.W, ref.H, w, h) {
			for my := int16(-MaxMV); my <= MaxMV; my++ {
				for mx := int16(-MaxMV); mx <= MaxMV; mx++ {
					mv := MV{mx, my}
					refCompensate(want, ref, o[0], o[1], w, h, mv)
					chk.check(t, "Compensate", want, func(dst []uint8, stride int) {
						Compensate(dst, stride, ref, o[0], o[1], w, h, mv)
					})
				}
			}
		}
	}
}

func TestCompensateHPMatchesReferenceExhaustive(t *testing.T) {
	t.Parallel()
	ref := noiseFrame(48, 48, 22)
	want := make([]uint8, 256)
	mvs := sparseMVs()
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		chk := newStridedChecker(w, h)
		for _, o := range rectOrigins(ref.W, ref.H, w, h) {
			for _, my := range mvs {
				for _, mx := range mvs {
					mv := MV{mx, my}
					refCompensateHP(want, ref, o[0], o[1], w, h, mv)
					chk.check(t, "CompensateHP", want, func(dst []uint8, stride int) {
						CompensateHP(dst, stride, ref, o[0], o[1], w, h, mv)
					})
				}
			}
		}
	}
}

// TestCompensateBiMatchesReferenceExhaustive pairs every first vector of the
// grid with second vectors chosen so that all four interior/border
// combinations of the two references occur.
func TestCompensateBiMatchesReferenceExhaustive(t *testing.T) {
	t.Parallel()
	ref0, ref1 := noiseFrame(48, 48, 23), noiseFrame(48, 48, 24)
	want := make([]uint8, 256)
	mvs := sparseMVs()
	seconds := []MV{{0, 0}, {-5, 7}, {-MaxMV, 1}, {33, -33}}
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		chk := newStridedChecker(w, h)
		for _, o := range rectOrigins(ref0.W, ref0.H, w, h) {
			for _, my := range mvs {
				for _, mx := range mvs {
					mv0 := MV{mx, my}
					for _, mv1 := range seconds {
						refCompensateBi(want, ref0, ref1, o[0], o[1], w, h, mv0, mv1)
						chk.check(t, "CompensateBi", want, func(dst []uint8, stride int) {
							CompensateBi(dst, stride, ref0, ref1, o[0], o[1], w, h, mv0, mv1)
						})
					}
				}
			}
		}
	}
}

// TestCompensateBiHPMatchesReference covers the half-pel bi-prediction
// dispatch: both vectors full-pel (integer kernel, halved vectors, negative
// ones included), one of them, neither.
func TestCompensateBiHPMatchesReference(t *testing.T) {
	t.Parallel()
	ref0, ref1 := noiseFrame(48, 48, 27), noiseFrame(48, 48, 28)
	want := make([]uint8, 256)
	mvs := []int16{-MaxMV, -33, -32, -3, -2, -1, 0, 1, 2, 3, 32, 33, MaxMV}
	seconds := []MV{{0, 0}, {-6, 8}, {-5, 8}, {-MaxMV, 2}, {34, -33}}
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		chk := newStridedChecker(w, h)
		for _, o := range rectOrigins(ref0.W, ref0.H, w, h) {
			for _, my := range mvs {
				for _, mx := range mvs {
					mv0 := MV{mx, my}
					for _, mv1 := range seconds {
						refCompensateBiHP(want, ref0, ref1, o[0], o[1], w, h, mv0, mv1)
						chk.check(t, "CompensateBiHP", want, func(dst []uint8, stride int) {
							CompensateBiHP(dst, stride, ref0, ref1, o[0], o[1], w, h, mv0, mv1)
						})
					}
				}
			}
		}
	}
}

// TestCompensateMismatchedReference: a reference of another geometry than
// the picture being predicted (DecodeSingle accepts any) must still clamp by
// its own dimensions.
func TestCompensateMismatchedReference(t *testing.T) {
	ref := noiseFrame(32, 16, 25)
	want := make([]uint8, 256)
	chk := newStridedChecker(16, 16)
	for _, mv := range []MV{{0, 0}, {-20, 3}, {17, -9}, {40, 40}} {
		refCompensate(want, ref, 16, 16, 16, 16, mv)
		chk.check(t, "Compensate", want, func(dst []uint8, stride int) {
			Compensate(dst, stride, ref, 16, 16, 16, 16, mv)
		})
	}
}

// TestPartitionRectsMatchOriginalOrder pins the static tables to the order
// the per-call construction produced: partition order is bitstream order.
func TestPartitionRectsMatchOriginalOrder(t *testing.T) {
	want := map[PartitionShape][]Rect{
		Part16x16: {{0, 0, 16, 16}},
		Part16x8:  {{0, 0, 16, 8}, {0, 8, 16, 8}},
		Part8x16:  {{0, 0, 8, 16}, {8, 0, 8, 16}},
		Part8x8:   {{0, 0, 8, 8}, {8, 0, 8, 8}, {0, 8, 8, 8}, {8, 8, 8, 8}},
	}
	for y := 0; y < 16; y += 4 {
		for x := 0; x < 16; x += 8 {
			want[Part8x4] = append(want[Part8x4], Rect{x, y, 8, 4})
		}
	}
	for y := 0; y < 16; y += 8 {
		for x := 0; x < 16; x += 4 {
			want[Part4x8] = append(want[Part4x8], Rect{x, y, 4, 8})
		}
	}
	for y := 0; y < 16; y += 4 {
		for x := 0; x < 16; x += 4 {
			want[Part4x4] = append(want[Part4x4], Rect{x, y, 4, 4})
		}
	}
	for s, rects := range want {
		got := PartitionRects(s)
		if len(got) != len(rects) {
			t.Fatalf("shape %d: %d rects, want %d", s, len(got), len(rects))
		}
		for i := range rects {
			if got[i] != rects[i] {
				t.Fatalf("shape %d rect %d: %v, want %v", s, i, got[i], rects[i])
			}
		}
	}
	if got := PartitionRects(numPartShapes); len(got) != 1 || got[0] != (Rect{0, 0, 16, 16}) {
		t.Fatalf("out-of-range shape must fall back to 16x16, got %v", got)
	}
}

func BenchmarkCompensate(b *testing.B) {
	ref := noiseFrame(320, 176, 26)
	var dst [256]uint8
	for _, c := range []struct {
		name string
		mv   MV
	}{{"interior", MV{3, -2}}, {"border", MV{-MaxMV, -MaxMV}}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Compensate(dst[:], 16, ref, 32, 32, 16, 16, c.mv)
			}
		})
	}
}
