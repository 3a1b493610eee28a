package predict

import (
	"math"
	"testing"
	"testing/quick"

	"videoapp/internal/frame"
)

func gradientFrame(w, h int) *frame.Frame {
	f := frame.MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Y[y*w+x] = uint8((x*3 + y*5) % 256)
		}
	}
	return f
}

// intraPred is the prediction of a macroblock whose neighbors are all the
// scan order provides.
func intraPred(rec *frame.Frame, mbx, mby int, mode IntraMode) (out [256]uint8) {
	IntraPredict16Avail(out[:], 16, rec, mbx, mby, mode, mby > 0, mbx > 0)
	return out
}

func TestIntraVerticalCopiesTopRow(t *testing.T) {
	rec := gradientFrame(48, 48)
	pred := intraPred(rec, 1, 1, IntraVertical)
	for x := 0; x < 16; x++ {
		want := rec.LumaAt(16+x, 15)
		for y := 0; y < 16; y++ {
			if pred[y*16+x] != want {
				t.Fatalf("col %d row %d: got %d, want %d", x, y, pred[y*16+x], want)
			}
		}
	}
}

func TestIntraHorizontalCopiesLeftCol(t *testing.T) {
	rec := gradientFrame(48, 48)
	pred := intraPred(rec, 1, 1, IntraHorizontal)
	for y := 0; y < 16; y++ {
		want := rec.LumaAt(15, 16+y)
		for x := 0; x < 16; x++ {
			if pred[y*16+x] != want {
				t.Fatalf("row %d: got %d, want %d", y, pred[y*16+x], want)
			}
		}
	}
}

func TestIntraDCNoNeighbors(t *testing.T) {
	rec := gradientFrame(48, 48)
	pred := intraPred(rec, 0, 0, IntraDC)
	for _, v := range pred {
		if v != 128 {
			t.Fatalf("corner MB without neighbors must predict 128, got %d", v)
		}
	}
}

func TestIntraUnavailableModeFallsBackDeterministically(t *testing.T) {
	rec := gradientFrame(48, 48)
	// Vertical at the top row has no above neighbor: must equal the DC
	// fallback so encoder and decoder agree.
	v := intraPred(rec, 1, 0, IntraVertical)
	dc := intraPred(rec, 1, 0, IntraDC)
	if v != dc {
		t.Fatal("unavailable vertical must fall back to DC")
	}
}

func TestBestIntraModePicksExactMatch(t *testing.T) {
	rec := frame.MustNew(48, 48)
	// Build a vertical pattern: each column constant, copied from row above.
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			rec.Y[y*48+x] = uint8(x * 5 % 256)
		}
	}
	orig := rec.Clone()
	mode, sad, ok := BestIntraModeAvail(orig, rec, 1, 1, true, true, math.MaxInt)
	if !ok || sad != 0 {
		t.Fatalf("perfect vertical pattern should give SAD 0, got %d (mode %d)", sad, mode)
	}
	if mode != IntraVertical {
		t.Fatalf("mode = %d, want vertical", mode)
	}
}

func TestIntraFootprintWeights(t *testing.T) {
	fp := IntraFootprintAvail(nil, 1, 1, IntraVertical, true, true)
	if len(fp) != 1 || fp[0].MB != (frame.MB{X: 1, Y: 0}) || fp[0].Pixels != 256 {
		t.Fatalf("vertical footprint %v", fp)
	}
	fp = IntraFootprintAvail(nil, 1, 1, IntraPlane, true, true)
	total := 0
	for _, w := range fp {
		total += w.Pixels
	}
	if total != 256 {
		t.Fatalf("plane footprint pixels %d, want 256", total)
	}
	if fp := IntraFootprintAvail(nil, 0, 0, IntraDC, false, false); fp != nil {
		t.Fatal("no neighbors -> no footprint")
	}
}

func TestMedianMV(t *testing.T) {
	a, b, c := MV{10, 0}, MV{20, 5}, MV{30, -5}
	if got := MedianMV(a, b, c, true, true, true); got != (MV{20, 0}) {
		t.Fatalf("median = %v", got)
	}
	if got := MedianMV(a, b, c, false, false, false); got != (MV{}) {
		t.Fatal("no neighbors -> zero")
	}
	if got := MedianMV(a, b, c, true, false, false); got != a {
		t.Fatal("only A -> A")
	}
	// B and C available: median of (0, B, C).
	if got := MedianMV(a, b, c, false, true, true); got != (MV{20, 0}) {
		t.Fatalf("got %v", got)
	}
}

func TestMedianMVProperty(t *testing.T) {
	prop := func(ax, ay, bx, by, cx, cy int16) bool {
		a := ClampMV(MV{ax % 64, ay % 64})
		b := ClampMV(MV{bx % 64, by % 64})
		c := ClampMV(MV{cx % 64, cy % 64})
		m := MedianMV(a, b, c, true, true, true)
		// Median must be within the min/max of the inputs per component.
		return m.X >= min(a.X, b.X, c.X) && m.X <= max(a.X, b.X, c.X) &&
			m.Y >= min(a.Y, b.Y, c.Y) && m.Y <= max(a.Y, b.Y, c.Y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRectsTile(t *testing.T) {
	for s := PartitionShape(0); s < numPartShapes; s++ {
		var cover [16][16]int
		for _, r := range PartitionRects(s) {
			for y := r.Y; y < r.Y+r.H; y++ {
				for x := r.X; x < r.X+r.W; x++ {
					cover[y][x]++
				}
			}
		}
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if cover[y][x] != 1 {
					t.Fatalf("shape %d: pixel (%d,%d) covered %d times", s, x, y, cover[y][x])
				}
			}
		}
	}
}

func TestMotionSearchFindsTranslation(t *testing.T) {
	// ref shifted by (3, 2) gives cur; the search must find mv = (3, 2)
	// (reading ref at +3 recovers cur content). A low-frequency texture
	// makes the SAD landscape unimodal within the search range, as for
	// natural video, so gradient-style search converges to the optimum.
	ref := frame.MustNew(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			v := 128 + 55*math.Sin(float64(x)*0.13) + 45*math.Cos(float64(y)*0.11) + 20*math.Sin(float64(x+y)*0.07)
			ref.Y[y*64+x] = frame.ClampU8(int(v))
		}
	}
	cur := frame.MustNew(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			cur.Y[y*64+x] = ref.LumaAt(x+3, y+2)
		}
	}
	mv, cost := MotionSearch(cur, ref, 16, 16, 16, 16, MV{}, 16)
	if mv != (MV{3, 2}) {
		t.Fatalf("mv = %v, want (3,2), cost %d", mv, cost)
	}
	if SAD(cur, ref, 16, 16, 16, 16, mv) != 0 {
		t.Fatal("found vector must give zero SAD")
	}
}

func TestMotionSearchRespectsRange(t *testing.T) {
	ref := gradientFrame(64, 64)
	cur := gradientFrame(64, 64)
	mv, _ := MotionSearch(cur, ref, 16, 16, 16, 16, MV{}, 4)
	if mv.X < -4 || mv.X > 4 || mv.Y < -4 || mv.Y > 4 {
		t.Fatalf("mv %v outside search range", mv)
	}
}

// TestCompensateMatchesLumaAt: a block whose displaced rectangle runs off
// the bottom-right corner is the edge-clamped reference, sample by sample.
func TestCompensateMatchesLumaAt(t *testing.T) {
	ref := gradientFrame(64, 64)
	dst := make([]uint8, 8*8)
	Compensate(dst, 8, ref, 56, 56, 8, 8, MV{10, 10}) // runs off the edge
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if dst[y*8+x] != ref.LumaAt(56+x+10, 56+y+10) {
				t.Fatalf("pixel (%d,%d)", x, y)
			}
		}
	}
}

// TestCompensateBiAverages: bi-prediction of two flat fields is their mean.
func TestCompensateBiAverages(t *testing.T) {
	a, b := frame.MustNew(16, 16), frame.MustNew(16, 16)
	a.Fill(100, 128, 128)
	b.Fill(50, 128, 128)
	dst := make([]uint8, 16)
	CompensateBi(dst, 4, a, b, 0, 0, 4, 4, MV{}, MV{})
	for _, v := range dst {
		if v != 75 {
			t.Fatalf("bi average %d, want 75", v)
		}
	}
}

func TestFootprintConservation(t *testing.T) {
	// Pixel counts must always sum to the rectangle area.
	prop := func(cx, cy, mvx, mvy int16) bool {
		mv := ClampMV(MV{mvx % 64, mvy % 64})
		x := int(cx%4) * 16
		y := int(cy%3) * 16
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		fp := Footprint(nil, 64, 48, x, y, 16, 16, mv)
		total := 0
		for _, w := range fp {
			total += w.Pixels
			if w.MB.X < 0 || w.MB.X >= 4 || w.MB.Y < 0 || w.MB.Y >= 3 {
				return false
			}
		}
		return total == 256
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintAlignedSingleMB(t *testing.T) {
	fp := Footprint(nil, 64, 64, 16, 16, 16, 16, MV{})
	if len(fp) != 1 || fp[0].MB != (frame.MB{X: 1, Y: 1}) || fp[0].Pixels != 256 {
		t.Fatalf("aligned footprint %v", fp)
	}
}

func TestFootprintStraddlesFourMBs(t *testing.T) {
	fp := Footprint(nil, 64, 64, 16, 16, 16, 16, MV{8, 8})
	if len(fp) != 4 {
		t.Fatalf("straddling footprint has %d MBs, want 4", len(fp))
	}
	for _, w := range fp {
		if w.Pixels != 64 {
			t.Fatalf("straddle at +8/+8 gives 64 px per MB, got %v", fp)
		}
	}
}

func TestFootprintEdgeClampConcentrates(t *testing.T) {
	// A vector far off the top-left corner references only MB (0,0).
	fp := Footprint(nil, 64, 64, 0, 0, 16, 16, MV{-60, -60})
	if len(fp) != 1 || fp[0].MB != (frame.MB{}) || fp[0].Pixels != 256 {
		t.Fatalf("clamped footprint %v", fp)
	}
}

func TestClampMV(t *testing.T) {
	if got := ClampMV(MV{100, -100}); got != (MV{MaxMV, -MaxMV}) {
		t.Fatalf("clamp %v", got)
	}
	if got := ClampMV(MV{5, -7}); got != (MV{5, -7}) {
		t.Fatal("in-range must pass through")
	}
}
