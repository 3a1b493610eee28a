package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// The encoder-side oracles: the motion search, the intra decision, the SAD
// kernels and the footprint histogram as they stood before the encoder was
// rebuilt around rows, bounds and caller buffers, moved here verbatim
// (identifiers prefixed ref). The production forms must return the same
// values — the encoder's bit-identity rests on it — and these exist only to
// say so.

// refSADLimit is the pre-change SADLimit: SWAR rows when neither rectangle
// touches an edge, the clamped accessor per sample otherwise.
func refSADLimit(cur, ref *frame.Frame, cx, cy, w, h int, mv MV, limit int) int {
	rx, ry := cx+int(mv.X), cy+int(mv.Y)
	if interior(cur, cx, cy, w, h) && interior(ref, rx, ry, w, h) {
		sad := 0
		for y := 0; y < h; y++ {
			co := (cy+y)*cur.W + cx
			ro := (ry+y)*ref.W + rx
			sad += sadRow(cur.Y[co:co+w], ref.Y[ro:ro+w])
			if sad >= limit {
				return sad
			}
		}
		return sad
	}
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(cur.LumaAt(cx+x, cy+y)) - int(ref.LumaAt(rx+x, ry+y))
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// refSADAgainstLimit is the pre-change sadAgainstLimit.
func refSADAgainstLimit(orig *frame.Frame, cx, cy, w, h int, pred []uint8, limit int) int {
	sad := 0
	if interior(orig, cx, cy, w, h) {
		for y := 0; y < h; y++ {
			co := (cy+y)*orig.W + cx
			sad += sadRow(orig.Y[co:co+w], pred[y*w:y*w+w])
			if sad >= limit {
				return sad
			}
		}
		return sad
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(orig.LumaAt(cx+x, cy+y)) - int(pred[y*w+x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// refMotionSearch is the pre-change MotionSearch: no visited bitmap, every
// candidate through refSADLimit.
func refMotionSearch(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	cost := func(mv MV, limit int) int {
		d := mv.Sub(pred)
		rate := 2 * (int(abs16(d.X)) + int(abs16(d.Y)))
		if rate >= limit {
			return limit
		}
		return refSADLimit(cur, ref, cx, cy, w, h, mv, limit-rate) + rate
	}
	best := ClampMV(pred)
	bestCost := cost(best, maxSADLimit)
	if zc := cost(MV{}, bestCost); zc < bestCost {
		best, bestCost = MV{}, zc
	}
	for _, step := range []int16{8, 4, 2, 1} {
		improved := true
		for improved {
			improved = false
			for _, d := range [8]MV{
				{step, 0}, {-step, 0}, {0, step}, {0, -step},
				{step, step}, {step, -step}, {-step, step}, {-step, -step},
			} {
				cand := ClampMV(best.Add(d))
				if cand == best {
					continue
				}
				if abs16(cand.X-pred.X) > int16(searchRange) || abs16(cand.Y-pred.Y) > int16(searchRange) {
					continue
				}
				if c := cost(cand, bestCost); c < bestCost {
					best, bestCost = cand, c
					improved = true
				}
			}
		}
	}
	return best, bestCost
}

// refMotionSearchHP is the pre-change MotionSearchHP. It knows nothing of the
// decoder's vector range, so it is an oracle only where that range cannot
// bind: small predictions and search ranges.
func refMotionSearchHP(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	intPred := MV{X: pred.X / 2, Y: pred.Y / 2}
	intBest, _ := refMotionSearch(cur, ref, cx, cy, w, h, intPred, searchRange)
	best := MV{X: intBest.X * 2, Y: intBest.Y * 2}
	cost := func(mv MV, limit int) int {
		d := mv.Sub(pred)
		rate := int(abs16(d.X)) + int(abs16(d.Y))
		if rate >= limit {
			return limit
		}
		return sadHPLimit(cur, ref, cx, cy, w, h, mv, limit-rate) + rate
	}
	bestCost := cost(best, maxSADLimit)
	for _, d := range [8]MV{
		{1, 0}, {-1, 0}, {0, 1}, {0, -1},
		{1, 1}, {1, -1}, {-1, 1}, {-1, -1},
	} {
		cand := ClampMV(best.Add(d))
		if c := cost(cand, bestCost); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best, bestCost
}

// refIntraPredict16Avail is the pre-change IntraPredict16Avail: neighbors
// read a sample at a time through the clamped accessor, result by value.
func refIntraPredict16Avail(rec *frame.Frame, mbx, mby int, mode IntraMode, hasAbove, hasLeft bool) [256]uint8 {
	var out [256]uint8
	px, py := mbx*frame.MBSize, mby*frame.MBSize
	switch {
	case mode == IntraVertical && hasAbove:
		for x := 0; x < 16; x++ {
			v := rec.LumaAt(px+x, py-1)
			for y := 0; y < 16; y++ {
				out[y*16+x] = v
			}
		}
	case mode == IntraHorizontal && hasLeft:
		for y := 0; y < 16; y++ {
			v := rec.LumaAt(px-1, py+y)
			for x := 0; x < 16; x++ {
				out[y*16+x] = v
			}
		}
	case mode == IntraPlane && hasAbove && hasLeft:
		var h, v int
		for i := 1; i <= 8; i++ {
			h += i * (int(rec.LumaAt(px+7+i, py-1)) - int(rec.LumaAt(px+7-i, py-1)))
			v += i * (int(rec.LumaAt(px-1, py+7+i)) - int(rec.LumaAt(px-1, py+7-i)))
		}
		a := 16 * (int(rec.LumaAt(px+15, py-1)) + int(rec.LumaAt(px-1, py+15)))
		b := (5*h + 32) >> 6
		c := (5*v + 32) >> 6
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				out[y*16+x] = frame.ClampU8((a + b*(x-7) + c*(y-7) + 16) >> 5)
			}
		}
	default:
		sum, n := 0, 0
		if hasAbove {
			for x := 0; x < 16; x++ {
				sum += int(rec.LumaAt(px+x, py-1))
			}
			n += 16
		}
		if hasLeft {
			for y := 0; y < 16; y++ {
				sum += int(rec.LumaAt(px-1, py+y))
			}
			n += 16
		}
		dc := uint8(128)
		if n > 0 {
			dc = uint8((sum + n/2) / n)
		}
		for i := range out {
			out[i] = dc
		}
	}
	return out
}

// refBestIntraModeAvail is the pre-change BestIntraModeAvail: all four modes,
// exact SADs a sample at a time, no bound.
func refBestIntraModeAvail(orig, rec *frame.Frame, mbx, mby int, hasAbove, hasLeft bool) (IntraMode, [256]uint8, int) {
	px, py := mbx*frame.MBSize, mby*frame.MBSize
	bestMode, bestSAD := IntraDC, 1<<30
	var bestPred [256]uint8
	for m := IntraMode(0); m < numIntraModes; m++ {
		pred := refIntraPredict16Avail(rec, mbx, mby, m, hasAbove, hasLeft)
		sad := 0
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				d := int(orig.LumaAt(px+x, py+y)) - int(pred[y*16+x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad < bestSAD {
			bestMode, bestSAD, bestPred = m, sad, pred
		}
	}
	return bestMode, bestPred, bestSAD
}

// refFootprint is the pre-change Footprint with its per-sample histogram.
func refFootprint(refW, refH, cx, cy, rw, rh int, mv MV) []WeightedRef {
	pixelsPerMB := func(start, length, limit int) []mbCount {
		var out []mbCount
		for i := 0; i < length; i++ {
			mb := clampInt(start+i, limit) / frame.MBSize
			if n := len(out); n > 0 && out[n-1].mb == mb {
				out[n-1].n++
			} else {
				out = append(out, mbCount{mb: mb, n: 1})
			}
		}
		return out
	}
	colPix := pixelsPerMB(cx+int(mv.X), rw, refW)
	rowPix := pixelsPerMB(cy+int(mv.Y), rh, refH)
	out := make([]WeightedRef, 0, len(colPix)*len(rowPix))
	for _, r := range rowPix {
		for _, c := range colPix {
			out = append(out, WeightedRef{MB: frame.MB{X: c.mb, Y: r.mb}, Pixels: c.n * r.n})
		}
	}
	return out
}

// smoothFrame is a low-frequency picture: searches on it meet long runs of
// near-equal costs, where tie-breaking order decides the vector.
func smoothFrame(w, h int, phase float64) *frame.Frame {
	f := frame.MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 50*math.Sin(float64(x)*0.11+phase) + 40*math.Cos(float64(y)*0.07-phase)
			f.Y[y*w+x] = frame.ClampU8(int(v))
		}
	}
	return f
}

// searchPairs are current/reference pairs for the search tests: unrelated
// noise (searches wander), shifted noise (they converge on a vector), and
// smooth content (they meet ties).
func searchPairs() map[string][2]*frame.Frame {
	ref := noiseFrame(64, 48, 51)
	shifted := frame.MustNew(64, 48)
	rng := rand.New(rand.NewSource(52))
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			shifted.Y[y*64+x] = frame.ClampU8(int(ref.LumaAt(x+5, y-3)) + rng.Intn(7) - 3)
		}
	}
	return map[string][2]*frame.Frame{
		"noise":   {noiseFrame(64, 48, 53), ref},
		"shifted": {shifted, ref},
		"smooth":  {smoothFrame(64, 48, 0.4), smoothFrame(64, 48, 0.9)},
	}
}

// TestMotionSearchMatchesReference: the visited bitmap, the row kernels and
// the gathered border rows change no search result — same vector, same cost
// — for every partition size at corners, edges and the interior, seeded with
// predictions near and far, at ranges below and beyond the bitmap's span.
func TestMotionSearchMatchesReference(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {4, -2}, {-6, 6}, {-17, 9}, {31, -33}, {MaxMV, -MaxMV}}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		for _, sz := range rectSizes() {
			w, h := sz[0], sz[1]
			for _, o := range rectOrigins(cur.W, cur.H, w, h) {
				for _, pred := range preds {
					for _, sr := range []int{1, 4, 16, 40, MaxMV} {
						wantMV, wantCost := refMotionSearch(cur, ref, o[0], o[1], w, h, pred, sr)
						gotMV, gotCost := MotionSearch(cur, ref, o[0], o[1], w, h, pred, sr)
						if gotMV != wantMV || gotCost != wantCost {
							t.Fatalf("%s %dx%d at %v pred %v range %d: got (%v, %d), want (%v, %d)",
								name, w, h, o, pred, sr, gotMV, gotCost, wantMV, wantCost)
						}
					}
				}
			}
		}
	}
}

// TestMotionSearchHPMatchesReference covers the half-pel search wherever the
// decoder's vector range cannot bind (see refMotionSearchHP).
func TestMotionSearchHPMatchesReference(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {5, -3}, {-12, 12}, {-20, 7}}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		for _, sz := range rectSizes() {
			w, h := sz[0], sz[1]
			for _, o := range rectOrigins(cur.W, cur.H, w, h) {
				for _, pred := range preds {
					for _, sr := range []int{1, 4, 16} {
						wantMV, wantCost := refMotionSearchHP(cur, ref, o[0], o[1], w, h, pred, sr)
						gotMV, gotCost := MotionSearchHP(cur, ref, o[0], o[1], w, h, pred, sr)
						if gotMV != wantMV || gotCost != wantCost {
							t.Fatalf("%s %dx%d at %v pred %v range %d: got (%v, %d), want (%v, %d)",
								name, w, h, o, pred, sr, gotMV, gotCost, wantMV, wantCost)
						}
					}
				}
			}
		}
	}
}

// TestMotionSearchHPStaysInDecoderRange: whatever the prediction and the
// search range, the half-pel vector and its difference from the prediction —
// the two things the stream carries — stay within the ±MaxMV the decoder
// saturates them to.
func TestMotionSearchHPStaysInDecoderRange(t *testing.T) {
	ref := noiseFrame(160, 96, 54)
	cur := frame.MustNew(160, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 160; x++ {
			cur.Y[y*160+x] = ref.LumaAt(x+44, y-37)
		}
	}
	for _, pred := range []MV{{}, {MaxMV, MaxMV}, {-MaxMV, MaxMV}, {63, -64}, {-1, 1}} {
		for _, sr := range []int{16, 31, 32, MaxMV} {
			mv, _ := MotionSearchHP(cur, ref, 64, 48, 16, 16, pred, sr)
			d := mv.Sub(pred)
			if mv != ClampMV(mv) || d != ClampMV(d) {
				t.Fatalf("pred %v range %d: vector %v (difference %v) leaves ±%d", pred, sr, mv, d, MaxMV)
			}
		}
	}
}

// TestBoundedIntraDecisionMatchesUnbounded: for every availability
// combination and every class of limit — none admitted (<= 0), below the best
// SAD, exactly the best SAD, just above it, between the modes' SADs, and
// unbounded — the bounded decision agrees with the unbounded scan: ok exactly
// when bestSAD < limit, and then the same mode, SAD and prediction.
func TestBoundedIntraDecisionMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	frames := map[string][2]*frame.Frame{
		"noise":    {noiseFrame(48, 48, 62), noiseFrame(48, 48, 63)},
		"smooth":   {smoothFrame(48, 48, 0.2), smoothFrame(48, 48, 0.25)},
		"gradient": {gradientFrame(48, 48), gradientFrame(48, 48)},
	}
	for name, pair := range frames {
		orig, rec := pair[0], pair[1]
		for mby := 0; mby < 3; mby++ {
			for mbx := 0; mbx < 3; mbx++ {
				for avail := 0; avail < 4; avail++ {
					hasAbove, hasLeft := avail&1 != 0 && mby > 0, avail&2 != 0 && mbx > 0
					wantMode, _, wantSAD := refBestIntraModeAvail(orig, rec, mbx, mby, hasAbove, hasLeft)
					limits := []int{math.MinInt, -1, 0, 1, wantSAD / 2, wantSAD - 1, wantSAD, wantSAD + 1, wantSAD + 1 + rng.Intn(4000), 1 << 30, math.MaxInt}
					for _, limit := range limits {
						mode, sad, ok := BestIntraModeAvail(orig, rec, mbx, mby, hasAbove, hasLeft, limit)
						what := fmt.Sprintf("%s mb (%d,%d) above=%v left=%v limit %d", name, mbx, mby, hasAbove, hasLeft, limit)
						if ok != (wantSAD < limit) {
							t.Fatalf("%s: ok = %v with best SAD %d", what, ok, wantSAD)
						}
						if ok && (mode != wantMode || sad != wantSAD) {
							t.Fatalf("%s: got mode %d SAD %d, want mode %d SAD %d", what, mode, sad, wantMode, wantSAD)
						}
					}
				}
			}
		}
	}
}

// TestIntraPredict16MatchesReference: the row form equals the sample form
// for every mode and availability the scan order can produce, written into a
// block of its own and written in place — into the macroblock's samples of
// the frame it reads its neighbors from, where only the macroblock may move.
func TestIntraPredict16MatchesReference(t *testing.T) {
	rec := noiseFrame(48, 48, 64)
	for mby := 0; mby < 3; mby++ {
		for mbx := 0; mbx < 3; mbx++ {
			for avail := 0; avail < 4; avail++ {
				hasAbove, hasLeft := avail&1 != 0 && mby > 0, avail&2 != 0 && mbx > 0
				for m := IntraMode(0); m < numIntraModes; m++ {
					want := refIntraPredict16Avail(rec, mbx, mby, m, hasAbove, hasLeft)
					var got [256]uint8
					IntraPredict16Avail(got[:], 16, rec, mbx, mby, m, hasAbove, hasLeft)
					if got != want {
						t.Fatalf("mb (%d,%d) mode %d above=%v left=%v differs from the reference", mbx, mby, m, hasAbove, hasLeft)
					}
					inPlace := rec.Clone()
					o := mby*16*48 + mbx*16
					IntraPredict16Avail(inPlace.Y[o:], 48, inPlace, mbx, mby, m, hasAbove, hasLeft)
					for i := range inPlace.Y {
						x, y := i%48-mbx*16, i/48-mby*16
						exp := rec.Y[i]
						if x >= 0 && x < 16 && y >= 0 && y < 16 {
							exp = want[y*16+x]
						}
						if inPlace.Y[i] != exp {
							t.Fatalf("mb (%d,%d) mode %d above=%v left=%v in place: sample (%d,%d) is %d, want %d",
								mbx, mby, m, hasAbove, hasLeft, i%48, i/48, inPlace.Y[i], exp)
						}
					}
				}
			}
		}
	}
}

// sadRowsScalar is sadRows a byte at a time.
func sadRowsScalar(a []uint8, aStride int, b []uint8, bStride int, w, h, limit int) int {
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(a[y*aStride+x]) - int(b[y*bStride+x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// TestSADRowsKernelsAgree: the build's sadRows (the psadbw assembly on
// amd64, the SWAR form under the purego tag and elsewhere), the SWAR form
// and the scalar loop return the same value — exact or early-terminated —
// for every width the encoder uses, every height, unaligned starts, equal,
// unequal and zero strides, all-equal and extreme content, and limits of
// every class.
func TestSADRowsKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const stride = 37 // odd: rows start at every alignment
	a, b := make([]uint8, 16*stride+64), make([]uint8, 16*stride+64)
	fills := map[string]func(){
		"random":  func() { rng.Read(a); rng.Read(b) },
		"equal":   func() { rng.Read(a); copy(b, a) },
		"extreme": func() { fillBytes(a, 255); fillBytes(b, 0) },
	}
	for name, fill := range fills {
		fill()
		for _, w := range []int{4, 8, 16} {
			for h := 1; h <= 16; h++ {
				for off := 0; off < 9; off++ {
					for _, strides := range [][2]int{{stride, stride}, {stride, w}, {stride, 0}, {0, stride}} {
						as, bs := strides[0], strides[1]
						exact := sadRowsScalar(a[off:], as, b[off+1:], bs, w, h, math.MaxInt)
						for _, limit := range []int{math.MinInt, 0, 1, exact / 2, exact, exact + 1, math.MaxInt} {
							want := sadRowsScalar(a[off:], as, b[off+1:], bs, w, h, limit)
							swar := sadRowsSWAR(a[off:], as, b[off+1:], bs, w, h, limit)
							got := sadRows(a[off:], as, b[off+1:], bs, w, h, limit)
							if got != want || swar != want {
								t.Fatalf("%s w=%d h=%d off=%d strides=%v limit=%d: sadRows %d, SWAR %d, scalar %d",
									name, w, h, off, strides, limit, got, swar, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSADLimitMatchesReference drives SADLimit and SADAgainstLimit — interior
// rows and gathered border rows alike — against the pre-change kernels: every
// partition size at corners, edges and interior, vectors reaching across
// every border, limits of every class. Early-terminated values must match
// too: both forms check the limit after each row.
func TestSADLimitMatchesReference(t *testing.T) {
	t.Parallel()
	cur, ref := noiseFrame(48, 48, 72), noiseFrame(48, 48, 73)
	mvs := sparseMVs()
	pred := make([]uint8, 256)
	rand.New(rand.NewSource(74)).Read(pred)
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		for _, o := range rectOrigins(cur.W, cur.H, w, h) {
			for _, my := range mvs {
				for _, mx := range mvs {
					mv := MV{mx, my}
					exact := refSADLimit(cur, ref, o[0], o[1], w, h, mv, maxSADLimit)
					for _, limit := range []int{0, 1, exact / 2, exact, maxSADLimit} {
						want := refSADLimit(cur, ref, o[0], o[1], w, h, mv, limit)
						if got := SADLimit(cur, ref, o[0], o[1], w, h, mv, limit); got != want {
							t.Fatalf("SADLimit %dx%d at %v mv %v limit %d = %d, want %d", w, h, o, mv, limit, got, want)
						}
					}
				}
			}
			// The prediction-buffer form, with the source rectangle hanging
			// over each border as well.
			for _, d := range [][2]int{{0, 0}, {-5, 0}, {0, -5}, {7, 7}, {-20, 30}} {
				cx, cy := o[0]+d[0], o[1]+d[1]
				exact := refSADAgainstLimit(cur, cx, cy, w, h, pred, maxSADLimit)
				for _, limit := range []int{0, 1, exact / 2, exact, maxSADLimit} {
					want := refSADAgainstLimit(cur, cx, cy, w, h, pred, limit)
					if got := SADAgainstLimit(cur, cx, cy, w, h, pred, limit); got != want {
						t.Fatalf("SADAgainstLimit %dx%d at (%d,%d) limit %d = %d, want %d", w, h, cx, cy, limit, got, want)
					}
				}
			}
		}
	}
}

// TestFootprintMatchesReference: the closed-form two-macroblock histogram
// equals the per-sample one for every partition size, position and vector,
// clamped runs included, and appends after what dst already holds.
func TestFootprintMatchesReference(t *testing.T) {
	t.Parallel()
	const fw, fh = 64, 48
	mvs := sparseMVs()
	keep := WeightedRef{MB: frame.MB{X: 9, Y: 9}, Pixels: 9}
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		for cy := 0; cy+h <= fh; cy += 4 {
			for cx := 0; cx+w <= fw; cx += 4 {
				for _, my := range mvs {
					for _, mx := range mvs {
						mv := MV{mx, my}
						want := refFootprint(fw, fh, cx, cy, w, h, mv)
						var buf [5]WeightedRef
						buf[0] = keep
						got := Footprint(buf[:1], fw, fh, cx, cy, w, h, mv)
						if got[0] != keep || len(got)-1 != len(want) {
							t.Fatalf("%dx%d at (%d,%d) mv %v: got %v, want %v appended", w, h, cx, cy, mv, got, want)
						}
						for i := range want {
							if got[1+i] != want[i] {
								t.Fatalf("%dx%d at (%d,%d) mv %v: got %v, want %v appended", w, h, cx, cy, mv, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkIntraDecision measures the intra side of the mode decision on one
// macroblock row of noise: unbounded (an I frame scans all four modes),
// bounded by a limit only a fraction of the row-wise SADs get under (a P
// frame whose inter cost is moderate), and skipped (inter cost within the
// intra penalty — most macroblocks of a P frame).
func BenchmarkIntraDecision(b *testing.B) {
	orig, rec := noiseFrame(320, 32, 81), noiseFrame(320, 32, 82)
	for _, c := range []struct {
		name  string
		limit int
	}{{"unbounded", math.MaxInt}, {"bounded", 6000}, {"skipped", 0}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for mbx := 1; mbx < 20; mbx++ {
					BestIntraModeAvail(orig, rec, mbx, 1, true, true, c.limit)
				}
			}
		})
	}
}
