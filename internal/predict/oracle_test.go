package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// The encoder-side oracles, one per kernel (identifiers prefixed ref): the
// motion search, the intra decision, the SAD kernels and the footprint
// histogram as they stood before the encoder was rebuilt around rows, bounds
// and caller buffers, in their plainest forms — a sample at a time through
// the clamped accessors, every search candidate costed exactly. The
// production forms must return the same values — the encoder's bit-identity
// rests on it — and these exist only to say so.

// absDiff is |a - b|.
func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// refSADLimit is SADLimit a sample at a time through the clamped accessor,
// checked against limit after every row.
func refSADLimit(cur, ref *frame.Frame, cx, cy, w, h int, mv MV, limit int) int {
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sad += absDiff(int(cur.LumaAt(cx+x, cy+y)), int(ref.LumaAt(cx+x+int(mv.X), cy+y+int(mv.Y))))
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// refSADAgainstLimit is SADAgainstLimit a sample at a time.
func refSADAgainstLimit(orig *frame.Frame, cx, cy, w, h int, pred []uint8, limit int) int {
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sad += absDiff(int(orig.LumaAt(cx+x, cy+y)), int(pred[y*w+x]))
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// refMotionSearch is the pre-change MotionSearch with every candidate costed
// exactly: no visited bitmap, no early termination. The production searches
// skip vectors already visited and stop a candidate's SAD once it reaches
// the running minimum; neither may change an accept/reject decision, so both
// must return this vector and this cost.
func refMotionSearch(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	cost := func(mv MV) int {
		d := mv.Sub(pred)
		return refSADLimit(cur, ref, cx, cy, w, h, mv, maxSADLimit) + 2*(int(abs16(d.X))+int(abs16(d.Y)))
	}
	best := ClampMV(pred)
	bestCost := cost(best)
	if zc := cost(MV{}); zc < bestCost {
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
				if c := cost(cand); c < bestCost {
					best, bestCost = cand, c
					improved = true
				}
			}
		}
	}
	return best, bestCost
}

// refSADHP is the half-pel SAD a sample at a time.
func refSADHP(cur, ref *frame.Frame, cx, cy, w, h int, mv MV) int {
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sad += absDiff(int(cur.LumaAt(cx+x, cy+y)), refSample(ref, cx+x, cy+y, mv, true))
		}
	}
	return sad
}

// refRefineHP is the pre-change half-pel refinement with exact costs: the
// doubled integer vector intBest and its eight half-pel neighbours, against
// the half-pel prediction pred. It knows nothing of the decoder's vector
// range, so it is an oracle only where that range cannot bind: small
// predictions and search ranges.
func refRefineHP(cur, ref *frame.Frame, cx, cy, w, h int, pred, intBest MV) (MV, int) {
	cost := func(mv MV) int {
		d := mv.Sub(pred)
		return refSADHP(cur, ref, cx, cy, w, h, mv) + int(abs16(d.X)) + int(abs16(d.Y))
	}
	best := MV{X: intBest.X * 2, Y: intBest.Y * 2}
	bestCost := cost(best)
	for _, d := range [8]MV{
		{1, 0}, {-1, 0}, {0, 1}, {0, -1},
		{1, 1}, {1, -1}, {-1, 1}, {-1, -1},
	} {
		cand := ClampMV(best.Add(d))
		if c := cost(cand); c < bestCost {
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
				sad += absDiff(int(orig.LumaAt(px+x, py+y)), int(pred[y*16+x]))
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
// noise (searches wander), shifted noise (they converge on a vector and run
// into the borders), and smooth content (they meet ties).
func searchPairs() map[string][2]*frame.Frame {
	const w, h = 96, 64
	ref := noiseFrame(w, h, 51)
	shifted := frame.MustNew(w, h)
	rng := rand.New(rand.NewSource(52))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			shifted.Y[y*w+x] = frame.ClampU8(int(ref.LumaAt(x+5, y-3)) + rng.Intn(7) - 3)
		}
	}
	return map[string][2]*frame.Frame{
		"noise":   {noiseFrame(w, h, 53), ref},
		"shifted": {shifted, ref},
		"smooth":  {smoothFrame(w, h, 0.4), smoothFrame(w, h, 0.9)},
	}
}

// searchRects calls fn with the partition rectangles the search tests drive
// on a fw×fh frame: one of every size in every macroblock on the frame's
// border — in a border macroblock, the partition touching the border — and
// in a seeded sample of a quarter of the interior macroblocks.
func searchRects(fw, fh int, seed int64, fn func(cx, cy, w, h int)) {
	rng := rand.New(rand.NewSource(seed))
	cols, rows := fw/frame.MBSize, fh/frame.MBSize
	place := func(m, n, size int) int {
		switch m {
		case 0:
			return 0
		case n - 1:
			return frame.MBSize - size
		}
		return rng.Intn(frame.MBSize/size) * size
	}
	for my := 0; my < rows; my++ {
		for mx := 0; mx < cols; mx++ {
			border := mx == 0 || my == 0 || mx == cols-1 || my == rows-1
			if !border && rng.Intn(4) != 0 {
				continue
			}
			for _, sz := range rectSizes() {
				w, h := sz[0], sz[1]
				fn(mx*frame.MBSize+place(mx, cols, w), my*frame.MBSize+place(my, rows, h), w, h)
			}
		}
	}
}

// TestMotionSearchMatchesReference is the one check of both integer
// searches: the visited bitmap, early termination, the row kernels, the
// gathered border rows and the padded plane change no result. On the
// rectangles of searchRects, for predictions near, far and at the four
// ±MaxMV corners and at ranges below and beyond the bitmap's span, the
// frame-based MotionSearch and Padded.MotionSearch return refMotionSearch's
// vector and cost.
func TestMotionSearchMatchesReference(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {4, -2}, {-6, 6}, {-17, 9}, {31, -33}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV, -MaxMV}, {-MaxMV, MaxMV}}
	ranges := []int{1, 4, 16, 32, 40, MaxMV}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		var p Padded
		p.Pad(ref)
		searchRects(cur.W, cur.H, 55, func(cx, cy, w, h int) {
			for _, pred := range preds {
				for _, sr := range ranges {
					wantMV, wantCost := refMotionSearch(cur, ref, cx, cy, w, h, pred, sr)
					frameMV, frameCost := MotionSearch(cur, ref, cx, cy, w, h, pred, sr)
					padMV, padCost := p.MotionSearch(cur, cx, cy, w, h, pred, sr)
					if frameMV != wantMV || frameCost != wantCost || padMV != wantMV || padCost != wantCost {
						t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d: frame (%v, %d), padded (%v, %d), reference (%v, %d)",
							name, w, h, cx, cy, pred, sr, frameMV, frameCost, padMV, padCost, wantMV, wantCost)
					}
				}
			}
		})
	}
}

// TestMotionSearchHPMatchesReference covers the half-pel search wherever the
// decoder's vector range cannot bind (see refRefineHP), on the rectangles of
// searchRects: its integer stage — motionSearch confined to ±MaxMV/2, on the
// padded plane and on the frame — returns refMotionSearch's vector and
// cost, and Padded.MotionSearchHP the refinement of that vector.
func TestMotionSearchHPMatchesReference(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {5, -3}, {-12, 12}, {-20, 7}}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		var p Padded
		p.Pad(ref)
		planes := [2]*Padded{nil, &p}
		searchRects(cur.W, cur.H, 56, func(cx, cy, w, h int) {
			for _, pred := range preds {
				intPred := MV{X: pred.X / 2, Y: pred.Y / 2}
				for _, sr := range []int{1, 4, 16} {
					intMV, intCost := refMotionSearch(cur, ref, cx, cy, w, h, intPred, sr)
					for _, pad := range planes {
						if mv, c := motionSearch(cur, ref, pad, cx, cy, w, h, intPred, sr, MaxMV/2); mv != intMV || c != intCost {
							t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d, integer stage (padded %v): (%v, %d), reference (%v, %d)",
								name, w, h, cx, cy, pred, sr, pad != nil, mv, c, intMV, intCost)
						}
					}
					wantMV, wantCost := refRefineHP(cur, ref, cx, cy, w, h, pred, intMV)
					if mv, c := p.MotionSearchHP(cur, cx, cy, w, h, pred, sr); mv != wantMV || c != wantCost {
						t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d: (%v, %d), reference (%v, %d)",
							name, w, h, cx, cy, pred, sr, mv, c, wantMV, wantCost)
					}
				}
			}
		})
	}
}

// TestMotionSearchHPStaysInDecoderRange: whatever the prediction and the
// search range, the half-pel vector and its difference from the prediction —
// the two things the stream carries — stay within the ±MaxMV the decoder
// saturates them to. The motion, (44, -37) pixels, lies beyond the integer
// stage's reach: on noise the search wanders, on smooth content it runs
// into the stage's bounds.
func TestMotionSearchHPStaysInDecoderRange(t *testing.T) {
	for name, ref := range map[string]*frame.Frame{"noise": noiseFrame(160, 96, 54), "smooth": smoothFrame(160, 96, 0.3)} {
		cur := frame.MustNew(160, 96)
		for y := 0; y < 96; y++ {
			for x := 0; x < 160; x++ {
				cur.Y[y*160+x] = ref.LumaAt(x+44, y-37)
			}
		}
		var p Padded
		p.Pad(ref)
		for _, pred := range []MV{{}, {MaxMV, MaxMV}, {-MaxMV, MaxMV}, {63, -64}, {-1, 1}} {
			for _, sr := range []int{16, 31, 32, MaxMV} {
				mv, _ := p.MotionSearchHP(cur, 64, 48, 16, 16, pred, sr)
				d := mv.Sub(pred)
				if mv != ClampMV(mv) || d != ClampMV(d) {
					t.Fatalf("%s, pred %v range %d: vector %v (difference %v) leaves ±%d", name, pred, sr, mv, d, MaxMV)
				}
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
			sad += absDiff(int(a[y*aStride+x]), int(b[y*bStride+x]))
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
// rows and gathered border rows alike — against their sample-at-a-time
// forms: every partition size, and widths that end in each of the row kernel's
// tails (a 4-byte half word, single bytes), at corners, edges and interior
// and hanging over every border; the vectors where the displaced rectangle
// crosses a border (crossings); limits of every class. Early-terminated
// values must match too: both forms check the limit after each row.
func TestSADLimitMatchesReference(t *testing.T) {
	t.Parallel()
	cur, ref := noiseFrame(48, 48, 72), noiseFrame(48, 48, 73)
	rng := rand.New(rand.NewSource(74))
	pred := make([]uint8, 256)
	rng.Read(pred)
	sizes := append(rectSizes(), [2]int{5, 4}, [2]int{7, 8}, [2]int{9, 16}, [2]int{12, 4}, [2]int{13, 8})
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		origins := append(rectOrigins(cur.W, cur.H, w, h), [2]int{-5, -6}, [2]int{cur.W - w + 4, cur.H - h + 7}, [2]int{-20, 30})
		for _, o := range origins {
			xs := crossings(o[0], w, cur.W, MaxMV, rng, 3)
			for _, my := range crossings(o[1], h, cur.H, MaxMV, rng, 3) {
				for _, mx := range xs {
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
			exact := refSADAgainstLimit(cur, o[0], o[1], w, h, pred, maxSADLimit)
			for _, limit := range []int{0, 1, exact / 2, exact, maxSADLimit} {
				want := refSADAgainstLimit(cur, o[0], o[1], w, h, pred, limit)
				if got := SADAgainstLimit(cur, o[0], o[1], w, h, pred, limit); got != want {
					t.Fatalf("SADAgainstLimit %dx%d at %v limit %d = %d, want %d", w, h, o, limit, got, want)
				}
			}
		}
	}
}

// footprintAxis returns the (origin, vector) pairs of one axis of
// TestFootprintMatchesReference: the origins at which a run of n samples on
// an axis of size samples starts or stops crossing a macroblock boundary
// (±1), each with the vectors where the displaced run crosses an end of the
// axis (crossings), one pair per displaced start.
func footprintAxis(size, n int, rng *rand.Rand) [][2]int {
	near := func(v int) bool {
		r := v % frame.MBSize
		return r <= 1 || r == frame.MBSize-1
	}
	seen := map[int]bool{}
	var out [][2]int
	for o := 0; o+n <= size; o++ {
		if !near(o) && !near(o+n) {
			continue
		}
		for _, v := range crossings(o, n, size, MaxMV, rng, 2) {
			if s := o + int(v); !seen[s] {
				seen[s] = true
				out = append(out, [2]int{o, int(v)})
			}
		}
	}
	return out
}

// TestFootprintMatchesReference: the closed-form two-macroblock histogram
// equals the per-sample one for every partition size, wherever the
// displaced rectangle starts or stops crossing a macroblock boundary or the
// frame's edge (footprintAxis), clamped runs included, and appends after
// what dst already holds.
func TestFootprintMatchesReference(t *testing.T) {
	t.Parallel()
	const fw, fh = 64, 48
	rng := rand.New(rand.NewSource(75))
	keep := WeightedRef{MB: frame.MB{X: 9, Y: 9}, Pixels: 9}
	for _, sz := range rectSizes() {
		w, h := sz[0], sz[1]
		xs := footprintAxis(fw, w, rng)
		for _, y := range footprintAxis(fh, h, rng) {
			for _, x := range xs {
				cx, cy, mv := x[0], y[0], MV{int16(x[1]), int16(y[1])}
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
