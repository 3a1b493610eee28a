package predict

import (
	"unsafe"

	"videoapp/internal/frame"
)

// MV is a motion vector in full luma pixels.
type MV struct{ X, Y int16 }

// Add returns the component-wise sum of two vectors.
func (m MV) Add(o MV) MV { return MV{m.X + o.X, m.Y + o.Y} }

// Sub returns the component-wise difference of two vectors.
func (m MV) Sub(o MV) MV { return MV{m.X - o.X, m.Y - o.Y} }

// MaxMV bounds motion vector components; decoded vectors outside this range
// (possible only in corrupt streams) are clamped.
const MaxMV = 64

// ClampMV saturates both components to the legal range.
func ClampMV(m MV) MV { return clampMV(m, MaxMV) }

// clampMV saturates both components to ±limit.
func clampMV(m MV, limit int16) MV {
	return MV{max(-limit, min(m.X, limit)), max(-limit, min(m.Y, limit))}
}

// MedianMV computes the H.264 motion vector prediction: the component-wise
// median of the neighbors A (left), B (above), C (above-right), substituting
// zero vectors for unavailable neighbors when any neighbor exists.
func MedianMV(a, b, c MV, availA, availB, availC bool) MV {
	if !availA && !availB && !availC {
		return MV{}
	}
	// H.264 falls back to the single available neighbor when only A exists;
	// we generalize: unavailable neighbors contribute zero vectors.
	if availA && !availB && !availC {
		return a
	}
	var ax, bx, cx, ay, by, cy int16
	if availA {
		ax, ay = a.X, a.Y
	}
	if availB {
		bx, by = b.X, b.Y
	}
	if availC {
		cx, cy = c.X, c.Y
	}
	return MV{median3(ax, bx, cx), median3(ay, by, cy)}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// PartitionShape describes how a 16×16 macroblock is split for motion
// compensation. Shapes follow the H.264 partition tree; Part8x8Mixed allows
// each 8×8 quadrant its own sub-split.
type PartitionShape int

// Macroblock partition shapes.
const (
	Part16x16 PartitionShape = iota
	Part16x8
	Part8x16
	Part8x8
	Part8x4
	Part4x8
	Part4x4
	numPartShapes
)

// NumPartShapes is the number of partition shapes (for decoded-value checks).
const NumPartShapes = int(numPartShapes)

// Rect is a sub-rectangle of a macroblock, in luma pixels relative to the
// macroblock origin.
type Rect struct{ X, Y, W, H int }

// PartitionRects returns the compensation units of a shape, in coding order.
// All shapes tile the full 16×16 block. The returned slice is a package-level
// table shared by every caller (encoder and decoder ask once per
// macroblock): it is read-only and must not be modified or appended to.
func PartitionRects(s PartitionShape) []Rect {
	if s < 0 || s >= numPartShapes {
		s = Part16x16
	}
	return partitionRects[s]
}

var partitionRects = [numPartShapes][]Rect{
	Part16x16: tileRects(16, 16),
	Part16x8:  tileRects(16, 8),
	Part8x16:  tileRects(8, 16),
	Part8x8:   tileRects(8, 8),
	Part8x4:   tileRects(8, 4),
	Part4x8:   tileRects(4, 8),
	Part4x4:   tileRects(4, 4),
}

// tileRects tiles the macroblock with w×h rectangles in raster order.
func tileRects(w, h int) []Rect {
	rects := make([]Rect, 0, (16/w)*(16/h))
	for y := 0; y < 16; y += h {
		for x := 0; x < 16; x += w {
			rects = append(rects, Rect{x, y, w, h})
		}
	}
	return rects
}

// SAD computes the sum of absolute differences between the cur rectangle at
// (cx, cy) and the ref rectangle displaced by mv, with edge clamping.
func SAD(cur, ref *frame.Frame, cx, cy, w, h int, mv MV) int {
	return SADLimit(cur, ref, cx, cy, w, h, mv, maxSADLimit)
}

// MotionSearch finds the best integer-pel motion vector for the w×h
// rectangle at (cx, cy), 1 ≤ w, h ≤ frame.MBSize as for SADLimit, searching
// a diamond pattern seeded at the predicted vector pred within ±searchRange.
// The cost includes a small rate penalty on the vector difference so that
// near-prediction vectors win ties, as in a rate-distortion-aware encoder.
func MotionSearch(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	return motionSearch(cur, ref, nil, cx, cy, w, h, pred, searchRange, MaxMV)
}

// searchDirs are the eight unit steps of the square search pattern, in
// evaluation order (the order breaks cost ties, so it is part of the output).
var searchDirs = [8]MV{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}

// visitedSpan is the side of the visited bitmap of motionSearch, which covers
// vectors within ±visitedSpan/2 of the prediction in one uint64 per row.
const visitedSpan = 64

// motionSearch is MotionSearch with vector components confined to ±maxMV.
// Candidate SADs are read from padded, a padded copy of ref, when it can
// serve the rectangle (Padded.rect), and from ref itself otherwise; the
// numbers are the same.
func motionSearch(cur, ref *frame.Frame, padded *Padded, cx, cy, w, h int, pred MV, searchRange int, maxMV int16) (MV, int) {
	var pr paddedRect
	onPad := false
	if padded != nil {
		pr, onPad = padded.rect(cur, cx, cy, w, h, maxMV)
	}
	// cost evaluates a candidate with early termination against limit: once
	// the rate penalty alone, or the partial SAD plus the penalty, reaches
	// limit the candidate cannot beat the running minimum, and any returned
	// value >= limit is rejected by the strict comparisons below exactly as
	// the exact cost would be. Accepted candidates always carry exact costs.
	cost := func(mv MV, limit int) int {
		d := mv.Sub(pred)
		rate := 2 * (int(abs16(d.X)) + int(abs16(d.Y)))
		if rate >= limit {
			return limit
		}
		if onPad {
			b := (*uint8)(unsafe.Add(pr.origin, int(mv.Y)*pr.stride+int(mv.X)))
			return pr.kern(pr.a, pr.aStride, b, pr.stride, h, limit-rate) + rate
		}
		return SADLimit(cur, ref, cx, cy, w, h, mv, limit-rate) + rate
	}
	// visited marks the vectors already evaluated, indexed by their offset
	// from pred. A vector evaluated earlier either lost to the running
	// minimum of that moment or was the minimum and has been beaten since;
	// the minimum only falls, so evaluating it again could only reject it
	// again and skipping it changes nothing. Offsets outside the bitmap
	// (search ranges beyond ±visitedSpan/2, or the zero vector far from
	// pred) are simply never marked.
	var visited [visitedSpan]uint64
	seen := func(mv MV) bool {
		dx, dy := int(mv.X)-int(pred.X)+visitedSpan/2, int(mv.Y)-int(pred.Y)+visitedSpan/2
		if uint(dx) >= visitedSpan || uint(dy) >= visitedSpan {
			return false
		}
		bit := uint64(1) << uint(dx)
		was := visited[dy]&bit != 0
		visited[dy] |= bit
		return was
	}
	best := clampMV(pred, maxMV)
	bestCost := cost(best, maxSADLimit)
	seen(best)
	if !seen(MV{}) {
		if zc := cost(MV{}, bestCost); zc < bestCost {
			best, bestCost = MV{}, zc
		}
	}
	// Coarse-to-fine square-pattern refinement until no improvement at each
	// step size. Eight directions per step avoid the axis-only traps of a
	// pure diamond on diagonal motion.
	for _, step := range [4]int16{8, 4, 2, 1} {
		improved := true
		for improved {
			improved = false
			for _, d := range searchDirs {
				cand := clampMV(MV{best.X + d.X*step, best.Y + d.Y*step}, maxMV)
				if cand == best {
					continue
				}
				if abs16(cand.X-pred.X) > int16(searchRange) || abs16(cand.Y-pred.Y) > int16(searchRange) {
					continue
				}
				if seen(cand) {
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

func abs16(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

// Compensate writes the motion-compensated luma prediction for the rectangle
// at absolute position (cx, cy) of size w×h into dst, whose rows are stride
// bytes apart (dst starts at the rectangle's top-left sample), reading ref
// displaced by mv with edge clamping.
//
// When the displaced rectangle lies wholly inside the reference plane no
// sample can clamp, and the rows are copied whole (the interior path); only
// rectangles touching a border pay for the clamped per-sample accessor.
func Compensate(dst []uint8, stride int, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	x0, y0 := cx+int(mv.X), cy+int(mv.Y)
	if inside(ref, x0, y0, w, h) {
		frame.CopyRows(dst, stride, ref.Y[y0*ref.W+x0:], ref.W, w, h)
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		for x := range row {
			row[x] = ref.LumaAt(x0+x, y0+y)
		}
	}
}

// inside reports whether the w×h rectangle at (x0, y0) lies wholly within
// ref's luma plane.
func inside(ref *frame.Frame, x0, y0, w, h int) bool {
	return x0 >= 0 && y0 >= 0 && x0+w <= ref.W && y0+h <= ref.H
}

// CompensateBi writes the average of two motion-compensated predictions,
// used by bi-predicted B-frame partitions, into the strided dst. It takes
// the clamp-free interior path when both displaced rectangles do.
func CompensateBi(dst []uint8, stride int, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 MV) {
	ax, ay := cx+int(mv0.X), cy+int(mv0.Y)
	bx, by := cx+int(mv1.X), cy+int(mv1.Y)
	if inside(ref0, ax, ay, w, h) && inside(ref1, bx, by, w, h) {
		for y := 0; y < h; y++ {
			row := dst[y*stride : y*stride+w]
			a := ref0.Y[(ay+y)*ref0.W+ax:][:w]
			b := ref1.Y[(by+y)*ref1.W+bx:][:w]
			for x := range row {
				row[x] = uint8((int(a[x]) + int(b[x]) + 1) / 2)
			}
		}
		return
	}
	for y := 0; y < h; y++ {
		row := dst[y*stride : y*stride+w]
		for x := range row {
			a := int(ref0.LumaAt(ax+x, ay+y))
			b := int(ref1.LumaAt(bx+x, by+y))
			row[x] = uint8((a + b + 1) / 2)
		}
	}
}

// WeightedRef is one edge of the dependency graph in pixel units: the source
// macroblock and the number of its pixels referenced by the prediction.
type WeightedRef struct {
	MB     frame.MB
	Pixels int
}

// Footprint appends to dst which macroblocks of a refW×refH reference frame
// a compensation of the rectangle at (cx, cy) displaced by mv actually reads,
// and how many pixels land in each, accounting for edge clamping, and returns
// the extended slice. The pixel counts sum to the rectangle area. The
// rectangle is a partition — at most a macroblock wide and high — so each
// axis touches at most two macroblocks and at most four entries are
// appended, in raster order to keep dependency records deterministic.
func Footprint(dst []WeightedRef, refW, refH, cx, cy, rw, rh int, mv MV) []WeightedRef {
	cols, nc := pixelsPerMB(cx+int(mv.X), rw, refW)
	rows, nr := pixelsPerMB(cy+int(mv.Y), rh, refH)
	for _, r := range rows[:nr] {
		for _, c := range cols[:nc] {
			dst = append(dst, WeightedRef{MB: frame.MB{X: c.mb, Y: r.mb}, Pixels: c.n * r.n})
		}
	}
	return dst
}

type mbCount struct{ mb, n int }

// pixelsPerMB histograms the clamped coordinates start..start+length-1 by
// macroblock index along one axis, in ascending order. Clamped coordinates
// are monotone, so a run of at most frame.MBSize of them spans one
// macroblock or two adjacent ones; the second return value says which.
func pixelsPerMB(start, length, limit int) ([2]mbCount, int) {
	first := clampInt(start, limit) / frame.MBSize
	last := clampInt(start+length-1, limit) / frame.MBSize
	if first == last {
		return [2]mbCount{{mb: first, n: length}}, 1
	}
	// Coordinates at or past the second macroblock's first sample fall in
	// it (clamping at the far edge keeps them there); start lies before it.
	n := start + length - last*frame.MBSize
	return [2]mbCount{{mb: first, n: length - n}, {mb: last, n: n}}, 2
}

func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
