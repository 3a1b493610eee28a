package predict

import "videoapp/internal/frame"

// Half-pel motion: motion vectors measured in half-pixel units, with
// fractional samples produced by the H.264 6-tap filter (1,-5,20,20,-5,1)/32.
// Functions ending in HP interpret MV components as half-pel; encoder and
// decoder share them, so reconstructions stay bit-exact.

// SampleHP returns the luma sample at half-pel coordinates (hx, hy), where
// hx = 2·x + fx for integer pixel x and fractional bit fx. Out-of-frame
// coordinates clamp, as for integer samples.
func SampleHP(ref *frame.Frame, hx, hy int) uint8 {
	ix, fx := floorDiv2(hx)
	iy, fy := floorDiv2(hy)
	switch {
	case fx == 0 && fy == 0:
		return ref.LumaAt(ix, iy)
	case fx == 1 && fy == 0:
		return sixTapH(ref, ix, iy)
	case fx == 0 && fy == 1:
		return sixTapV(ref, ix, iy)
	default:
		// Diagonal: average of the horizontal and vertical half samples,
		// a deterministic simplification of H.264's 2D filter.
		b := int(sixTapH(ref, ix, iy))
		h := int(sixTapV(ref, ix, iy))
		return uint8((b + h + 1) / 2)
	}
}

func floorDiv2(v int) (int, int) {
	f := v & 1
	return (v - f) / 2, f
}

func sixTapH(ref *frame.Frame, x, y int) uint8 {
	v := int(ref.LumaAt(x-2, y)) - 5*int(ref.LumaAt(x-1, y)) + 20*int(ref.LumaAt(x, y)) +
		20*int(ref.LumaAt(x+1, y)) - 5*int(ref.LumaAt(x+2, y)) + int(ref.LumaAt(x+3, y))
	return frame.ClampU8((v + 16) >> 5)
}

func sixTapV(ref *frame.Frame, x, y int) uint8 {
	v := int(ref.LumaAt(x, y-2)) - 5*int(ref.LumaAt(x, y-1)) + 20*int(ref.LumaAt(x, y)) +
		20*int(ref.LumaAt(x, y+1)) - 5*int(ref.LumaAt(x, y+2)) + int(ref.LumaAt(x, y+3))
	return frame.ClampU8((v + 16) >> 5)
}

// CompensateHP writes the motion-compensated prediction for the rectangle at
// (cx, cy) with the half-pel vector mv into the strided dst. A vector with
// both components at full-pel positions samples no fractional position and
// delegates to the integer kernel (and its interior path), as sadHPLimit
// does.
func CompensateHP(dst []uint8, stride int, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	if fullPel(mv) {
		Compensate(dst, stride, ref, cx, cy, w, h, MV{X: mv.X / 2, Y: mv.Y / 2})
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		for x := range row {
			row[x] = SampleHP(ref, 2*(cx+x)+int(mv.X), 2*(cy+y)+int(mv.Y))
		}
	}
}

// fullPel reports whether both components of a half-pel vector are even.
func fullPel(mv MV) bool { return mv.X&1 == 0 && mv.Y&1 == 0 }

// CompensateBiHP averages two half-pel compensations (bi-prediction).
func CompensateBiHP(dst []uint8, stride int, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 MV) {
	if fullPel(mv0) && fullPel(mv1) {
		CompensateBi(dst, stride, ref0, ref1, cx, cy, w, h, MV{X: mv0.X / 2, Y: mv0.Y / 2}, MV{X: mv1.X / 2, Y: mv1.Y / 2})
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		for x := range row {
			a := int(SampleHP(ref0, 2*(cx+x)+int(mv0.X), 2*(cy+y)+int(mv0.Y)))
			b := int(SampleHP(ref1, 2*(cx+x)+int(mv1.X), 2*(cy+y)+int(mv1.Y)))
			row[x] = uint8((a + b + 1) / 2)
		}
	}
}

// sadHPLimit is the sum of absolute differences for a half-pel vector, with
// early termination at limit (checked per row) under the same exactness
// contract as SADLimit. Vectors with both
// components at full-pel positions delegate to the word-wide integer kernel.
func sadHPLimit(cur, ref *frame.Frame, cx, cy, w, h int, mv MV, limit int) int {
	if fullPel(mv) {
		return SADLimit(cur, ref, cx, cy, w, h, MV{X: mv.X / 2, Y: mv.Y / 2}, limit)
	}
	sad := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(cur.LumaAt(cx+x, cy+y)) - int(SampleHP(ref, 2*(cx+x)+int(mv.X), 2*(cy+y)+int(mv.Y)))
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

// refineHP is Padded.MotionSearchHP's second stage: the doubled integer
// vector intBest and its eight half-pel neighbours, costed against the
// half-pel prediction pred.
func refineHP(cur, ref *frame.Frame, cx, cy, w, h int, pred, intBest MV) (MV, int) {
	best := MV{X: intBest.X * 2, Y: intBest.Y * 2}
	// As in MotionSearch, candidates terminate early against the running
	// minimum; rejected candidates return >= limit, accepted ones are exact.
	cost := func(mv MV, limit int) int {
		d := mv.Sub(pred)
		rate := int(abs16(d.X)) + int(abs16(d.Y))
		if rate >= limit {
			return limit
		}
		return sadHPLimit(cur, ref, cx, cy, w, h, mv, limit-rate) + rate
	}
	bestCost := cost(best, maxSADLimit)
	for _, d := range searchDirs {
		cand := ClampMV(best.Add(d))
		if abs16(cand.X-pred.X) > MaxMV || abs16(cand.Y-pred.Y) > MaxMV {
			continue
		}
		if c := cost(cand, bestCost); c < bestCost {
			// Note: refinement is a single pass; the integer optimum plus
			// one half step is within half a pel of the true optimum.
			best, bestCost = cand, c
		}
	}
	return best, bestCost
}

// FootprintHP is Footprint for a half-pel compensation. Each destination
// pixel is attributed to its floor integer source pixel; the one-pixel tap
// fringe of the 6-tap filter is below the model's macroblock-granularity
// resolution (§4.1) and ignored.
func FootprintHP(dst []WeightedRef, refW, refH, cx, cy, rw, rh int, mv MV) []WeightedRef {
	return Footprint(dst, refW, refH, cx, cy, rw, rh, MV{X: floor2(mv.X), Y: floor2(mv.Y)})
}

func floor2(v int16) int16 {
	if v >= 0 {
		return v / 2
	}
	return (v - 1) / 2
}
