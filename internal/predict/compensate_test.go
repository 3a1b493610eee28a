package predict

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"videoapp/internal/frame"
)

// Fast path ≡ border path. Compensation copies whole rows when the displaced
// rectangle lies inside the reference plane and falls back to the clamped
// per-sample accessor when it touches a border; the reference below is the
// sample-at-a-time form all four kernels had before the split. Every
// partition shape is driven at the four corners, the four edges and the
// interior of a small frame over the vectors where that choice can change
// (boundaryCases), so each rectangle crosses from fully inside, over every
// border and corner, to fully outside: the sweeps named Exhaustive exhaust
// these classes, not the vectors.

// refSample is the sample a compensation predicts at (x, y) from ref
// displaced by mv, a half-pel vector when hp is set.
func refSample(ref *frame.Frame, x, y int, mv MV, hp bool) int {
	if hp {
		return int(SampleHP(ref, 2*x+int(mv.X), 2*y+int(mv.Y)))
	}
	return int(ref.LumaAt(x+int(mv.X), y+int(mv.Y)))
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

// crossings returns the displacements v, |v| <= lim, at which a run of n
// samples starting at c, on an axis of size samples, starts or stops crossing
// either end of the axis — each with its neighbours ±1 — together with 0,
// ±1 and ±lim, and k seeded draws from the rest of the range. Between two
// consecutive crossings every sample of the run stays on its side of the
// ends, so a kernel that switches between an interior path and a clamped
// one cannot change behaviour there.
func crossings(c, n, size, lim int, rng *rand.Rand, k int) []int16 {
	vs := []int{0, 1, -1, lim, -lim}
	for _, start := range [4]int{-n, 0, size - n, size} {
		vs = append(vs, start-c-1, start-c, start-c+1)
	}
	for i := 0; i < k; i++ {
		vs = append(vs, rng.Intn(2*lim+1)-lim)
	}
	var out []int16
	for _, v := range vs {
		if v >= -lim && v <= lim {
			out = append(out, int16(v))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// boundaryCases calls fn for every partition size, every origin of
// rectOrigins on a fw×fh frame, and every vector whose components are in
// the crossings of their axis, with three seeded draws per axis. With hp
// the vectors are half-pel ones and the crossings are those of the half-pel
// sample positions.
func boundaryCases(fw, fh int, hp bool, seed int64, fn func(w, h int, o [2]int, mv MV)) {
	rng := rand.New(rand.NewSource(seed))
	unit := 1
	if hp {
		unit = 2
	}
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		for _, o := range rectOrigins(fw, fh, w, h) {
			xs := crossings(unit*o[0], unit*w, unit*fw, MaxMV, rng, 3)
			ys := crossings(unit*o[1], unit*h, unit*fh, MaxMV, rng, 3)
			for _, my := range ys {
				for _, mx := range xs {
					fn(w, h, o, MV{mx, my})
				}
			}
		}
	}
}

// compensator is one of the four compensation kernels: the w×h rectangle at
// (cx, cy) predicted from refs[0] displaced by mvs[0] — averaged, for
// bi-prediction, with refs[1] displaced by mvs[1] — into the strided dst.
type compensator func(dst []uint8, stride int, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV)

// checkCompensation runs kernel into a 16-stride buffer at an offset and
// compares the whole buffer with the refSample prediction laid into an equal
// buffer: samples inside the rectangle must match, everything outside must
// keep its sentinel.
func checkCompensation(t *testing.T, kernel compensator, hp, bi bool, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV) {
	const stride, off = 16, 16 + 3
	got, want := make([]uint8, off+16*stride), make([]uint8, off+16*stride)
	fillBytes(got, 0xA5)
	fillBytes(want, 0xA5)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := refSample(refs[0], cx+x, cy+y, mvs[0], hp)
			if bi {
				v = (v + refSample(refs[1], cx+x, cy+y, mvs[1], hp) + 1) / 2
			}
			want[off+y*stride+x] = uint8(v)
		}
	}
	kernel(got[off:], stride, refs, cx, cy, w, h, mvs)
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for got[i] == want[i] {
		i++
	}
	t.Fatalf("%dx%d at (%d,%d) vectors %v: buffer index %d (sample (%d,%d) of the rectangle) = %d, want %d",
		w, h, cx, cy, mvs, i, (i-off)%stride, (i-off)/stride, got[i], want[i])
}

// compensationSweep checks kernel over boundaryCases on two 48×48 noise
// references. A bi-prediction kernel (others set) gets every vector of the
// grid as either of its two, beside each of others.
func compensationSweep(t *testing.T, seed int64, hp bool, others []MV, kernel compensator) {
	t.Parallel()
	refs := [2]*frame.Frame{noiseFrame(48, 48, seed), noiseFrame(48, 48, seed+1)}
	bi := len(others) > 0
	boundaryCases(48, 48, hp, seed, func(w, h int, o [2]int, mv MV) {
		if !bi {
			checkCompensation(t, kernel, hp, false, refs, o[0], o[1], w, h, [2]MV{mv})
		}
		for _, other := range others {
			checkCompensation(t, kernel, hp, true, refs, o[0], o[1], w, h, [2]MV{mv, other})
			checkCompensation(t, kernel, hp, true, refs, o[0], o[1], w, h, [2]MV{other, mv})
		}
	})
}

func compensate(dst []uint8, stride int, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV) {
	Compensate(dst, stride, refs[0], cx, cy, w, h, mvs[0])
}

func TestCompensateMatchesReferenceExhaustive(t *testing.T) {
	compensationSweep(t, 21, false, nil, compensate)
}

func TestCompensateHPMatchesReferenceExhaustive(t *testing.T) {
	compensationSweep(t, 23, true, nil, func(dst []uint8, stride int, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV) {
		CompensateHP(dst, stride, refs[0], cx, cy, w, h, mvs[0])
	})
}

// TestCompensateBiMatchesReferenceExhaustive pairs the grid with a second
// vector that keeps the other rectangle inside its reference and one that
// takes it outside, so all four interior/border combinations occur.
func TestCompensateBiMatchesReferenceExhaustive(t *testing.T) {
	compensationSweep(t, 25, false, []MV{{0, 0}, {-MaxMV, 1}}, func(dst []uint8, stride int, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV) {
		CompensateBi(dst, stride, refs[0], refs[1], cx, cy, w, h, mvs[0], mvs[1])
	})
}

// TestCompensateBiHPMatchesReference covers the half-pel bi-prediction
// dispatch: the grid beside a full-pel and a half-pel vector, so both vectors
// full-pel (integer kernel, halved vectors, negative ones included), one of
// them, and neither.
func TestCompensateBiHPMatchesReference(t *testing.T) {
	compensationSweep(t, 27, true, []MV{{0, 0}, {-5, 8}}, func(dst []uint8, stride int, refs [2]*frame.Frame, cx, cy, w, h int, mvs [2]MV) {
		CompensateBiHP(dst, stride, refs[0], refs[1], cx, cy, w, h, mvs[0], mvs[1])
	})
}

// TestCompensateMismatchedReference: a reference of another geometry than
// the picture being predicted (DecodeSingle accepts any) must still clamp by
// its own dimensions.
func TestCompensateMismatchedReference(t *testing.T) {
	refs := [2]*frame.Frame{noiseFrame(32, 16, 29)}
	for _, mv := range []MV{{0, 0}, {-20, 3}, {17, -9}, {40, 40}} {
		checkCompensation(t, compensate, false, false, refs, 16, 16, 16, 16, [2]MV{mv})
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
