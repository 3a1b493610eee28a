package predict

import (
	"math"
	"testing"

	"videoapp/internal/frame"
)

func rampFrame(w, h int) *frame.Frame {
	f := frame.MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Y[y*w+x] = uint8((x * 4) % 256)
		}
	}
	return f
}

func TestSampleHPIntegerPositions(t *testing.T) {
	f := rampFrame(64, 64)
	for _, c := range [][2]int{{0, 0}, {10, 20}, {63, 63}} {
		if got := SampleHP(f, 2*c[0], 2*c[1]); got != f.LumaAt(c[0], c[1]) {
			t.Fatalf("integer position (%d,%d): %d", c[0], c[1], got)
		}
	}
}

func TestSampleHPHalfBetweenEqualNeighborsIsExact(t *testing.T) {
	f := frame.MustNew(32, 32)
	f.Fill(77, 128, 128)
	if got := SampleHP(f, 2*10+1, 2*10); got != 77 {
		t.Fatalf("flat field half sample = %d", got)
	}
	if got := SampleHP(f, 2*10, 2*10+1); got != 77 {
		t.Fatalf("flat field vertical half sample = %d", got)
	}
	if got := SampleHP(f, 2*10+1, 2*10+1); got != 77 {
		t.Fatalf("flat field diagonal half sample = %d", got)
	}
}

func TestSampleHPInterpolatesOnRamp(t *testing.T) {
	// On a linear luma ramp, the 6-tap half sample sits between the two
	// neighbors (the filter is exact for linear signals away from clamps).
	f := rampFrame(64, 64)
	x, y := 20, 10
	a, b := int(f.LumaAt(x, y)), int(f.LumaAt(x+1, y))
	got := int(SampleHP(f, 2*x+1, 2*y))
	want := (a + b) / 2
	if got < want-1 || got > want+1 {
		t.Fatalf("ramp half sample %d, want ~%d (between %d and %d)", got, want, a, b)
	}
}

func TestCompensateHPEvenVectorMatchesInteger(t *testing.T) {
	f := rampFrame(64, 64)
	a := make([]uint8, 16*16)
	b := make([]uint8, 16*16)
	Compensate(a, 16, f, 16, 16, 16, 16, MV{3, -2})
	CompensateHP(b, 16, f, 16, 16, 16, 16, MV{6, -4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("even half-pel vector must equal integer compensation at %d", i)
		}
	}
}

func TestMotionSearchHPFindsHalfPelShift(t *testing.T) {
	// cur is ref shifted by exactly half a pixel (averaged neighbors): the
	// half-pel search must beat the best integer vector.
	ref := frame.MustNew(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			v := 128 + 60*math.Sin(float64(x)*0.15)
			ref.Y[y*64+x] = frame.ClampU8(int(v))
		}
	}
	cur := frame.MustNew(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			a := int(ref.LumaAt(x, y))
			b := int(ref.LumaAt(x+1, y))
			cur.Y[y*64+x] = uint8((a + b + 1) / 2)
		}
	}
	var p Padded
	p.Pad(ref)
	mv, _ := p.MotionSearchHP(cur, 16, 16, 16, 16, MV{}, 8)
	if mv.X != 1 || mv.Y != 0 {
		t.Fatalf("mv = %v, want (1,0) half-pel", mv)
	}
	intSAD := SAD(cur, ref, 16, 16, 16, 16, MV{})
	hpSAD := sadHPLimit(cur, ref, 16, 16, 16, 16, mv, maxSADLimit)
	if hpSAD >= intSAD {
		t.Fatalf("half-pel SAD %d not better than integer %d", hpSAD, intSAD)
	}
}

func TestFootprintHPConservation(t *testing.T) {
	for _, mv := range []MV{{0, 0}, {1, 1}, {-1, -1}, {7, -3}, {-15, 9}} {
		fp := FootprintHP(nil, 64, 64, 16, 16, 16, 16, mv)
		total := 0
		for _, w := range fp {
			total += w.Pixels
		}
		if total != 256 {
			t.Fatalf("mv %v: footprint pixels %d", mv, total)
		}
	}
}

func TestFloor2(t *testing.T) {
	cases := map[int16]int16{0: 0, 1: 0, 2: 1, 3: 1, -1: -1, -2: -1, -3: -2}
	for in, want := range cases {
		if got := floor2(in); got != want {
			t.Fatalf("floor2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCompensateBiHPAverages(t *testing.T) {
	a, b := frame.MustNew(16, 16), frame.MustNew(16, 16)
	a.Fill(100, 128, 128)
	b.Fill(60, 128, 128)
	dst := make([]uint8, 16)
	CompensateBiHP(dst, 4, a, b, 0, 0, 4, 4, MV{1, 0}, MV{0, 1})
	for _, v := range dst {
		if v != 80 {
			t.Fatalf("bi half-pel average %d", v)
		}
	}
}
