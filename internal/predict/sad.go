package predict

import (
	"encoding/binary"
	"math"

	"videoapp/internal/frame"
)

// This file holds the block-matching kernel. The motion search is
// motionSearch's coarse-to-fine square pattern — the eight neighbours of the
// running best at steps 8, 4, 2 and 1, re-centred on every improvement —
// which evaluates about 33 candidate vectors per partition on the synthetic
// suite; each evaluation is a sum of absolute differences over the
// partition rectangle, the single hottest loop in the encoder. Two
// mechanical optimizations keep results bit-identical while removing most
// of the work:
//
//  1. Row-wide SAD: rows are contiguous byte runs (a rectangle touching a
//     frame edge has its clamped rows gathered into a stack buffer first;
//     the encoder's searches read a reference padded once instead,
//     padded.go), so one kernel, sadRows, differences whole rows. On amd64 it is an SSE2
//     psadbw loop for the partition widths 16, 8 and 4 (sad_amd64.s); any
//     other width, every other GOARCH and the purego build tag use the
//     portable SWAR emulation of psadbw on uint64 loads below. The choice is made at
//     build time only; both forms return identical values for identical
//     arguments, early-terminated ones included.
//
//  2. Early termination: callers pass the running minimum as a limit. Once
//     the partial sum reaches the limit the candidate cannot win, and the
//     kernel returns the partial sum. Search loops only accept candidates
//     whose cost is strictly below the current best, so an early-terminated
//     (underestimated) value changes no accept/reject decision: the exact
//     SAD is >= the partial sum, and both are >= the limit.
//
// maxSADLimit disables early termination (an exact computation).
const maxSADLimit = math.MaxInt

const (
	swarH    = 0x8080808080808080
	swarLo8  = 0x0101010101010101
	swarLo16 = 0x0001000100010001
	swarM16  = 0x00ff00ff00ff00ff
)

// sad8 returns the sum of absolute byte differences of the eight byte pairs
// packed in a and b — a SWAR psadbw. Bytewise subtraction uses the
// borrow-contained form ((x|H) - (y&^H)) ^ ((x^^y) & H); the per-byte
// "x >= y" mask then selects between the two subtraction directions.
func sad8(a, b uint64) int {
	t := (a | swarH) - (b &^ swarH)
	d1 := t ^ ((a ^ ^b) & swarH)                            // bytewise a-b (mod 256)
	d2 := ((b | swarH) - (a &^ swarH)) ^ ((b ^ ^a) & swarH) // bytewise b-a
	ge := (a & ^b & swarH) | (^(a ^ b) & t & swarH)
	m := ((ge >> 7) & swarLo8) * 0xff // 0xff per byte where a >= b
	abs := (d1 & m) | (d2 &^ m)
	// Horizontal sum: fold bytes into 16-bit lanes, then one multiply.
	s := (abs & swarM16) + ((abs >> 8) & swarM16)
	return int((s * swarLo16) >> 48)
}

// sadRow sums absolute differences over two contiguous w-byte rows using
// 8-byte words, a 4-byte half word, and a scalar tail.
func sadRow(a, c []uint8) int {
	sad := 0
	x := 0
	for ; x+8 <= len(a); x += 8 {
		sad += sad8(binary.LittleEndian.Uint64(a[x:]), binary.LittleEndian.Uint64(c[x:]))
	}
	if x+4 <= len(a) {
		sad += sad8(uint64(binary.LittleEndian.Uint32(a[x:])), uint64(binary.LittleEndian.Uint32(c[x:])))
		x += 4
	}
	for ; x < len(a); x++ {
		d := int(a[x]) - int(c[x])
		if d < 0 {
			d = -d
		}
		sad += d
	}
	return sad
}

// sadRowsSWAR is the portable row kernel: the sum of absolute differences of
// h rows of w bytes, a and b starting at the first row and advancing by their
// strides (a stride of 0 compares every row against the same w bytes),
// checked against limit after every row. It is the only path on targets
// without an assembly kernel and the oracle the assembly is tested against.
func sadRowsSWAR(a []uint8, aStride int, b []uint8, bStride int, w, h, limit int) int {
	sad := 0
	for y := 0; y < h; y++ {
		sad += sadRow(a[y*aStride:][:w], b[y*bStride:][:w])
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// interior reports whether the w×h rectangle at (x, y) lies fully inside the
// f frame, so row reads need no edge clamping.
func interior(f *frame.Frame, x, y, w, h int) bool {
	return x >= 0 && y >= 0 && x+w <= f.W && y+h <= f.H
}

// clampedRow returns the w luma samples of f at (x..x+w-1, y) with edge
// clamping: a sub-slice of the plane when the run lies inside the row, and
// otherwise the samples gathered into buf. w is at most a macroblock wide.
func clampedRow(f *frame.Frame, x, y, w int, buf *[frame.MBSize]uint8) []uint8 {
	row := f.Y[clampInt(y, f.H)*f.W:][:f.W]
	if x >= 0 && x+w <= f.W {
		return row[x : x+w]
	}
	// lo samples lie left of the plane and repeat its first column, hi lie
	// right of it and repeat its last; the run between them is copied.
	lo, hi := min(max(-x, 0), w), min(max(x+w-f.W, 0), w)
	out := buf[:w]
	for i := range out[:lo] {
		out[i] = row[0]
	}
	if lo+hi < w {
		copy(out[lo:w-hi], row[x+lo:])
	}
	for i := w - hi; i < w; i++ {
		out[i] = row[f.W-1]
	}
	return out
}

// SADLimit computes the sum of absolute differences between the cur
// rectangle at (cx, cy) and the ref rectangle displaced by mv, with edge
// clamping, stopping early once the running sum reaches limit (checked at
// row boundaries). The result is exact whenever it is below limit; an
// early-terminated result is a lower bound on the exact SAD that is already
// >= limit, which strict-minimum searches reject identically. The rectangle
// must be partition-sized, 1 ≤ w, h ≤ frame.MBSize.
func SADLimit(cur, ref *frame.Frame, cx, cy, w, h int, mv MV, limit int) int {
	rx, ry := cx+int(mv.X), cy+int(mv.Y)
	if interior(cur, cx, cy, w, h) && interior(ref, rx, ry, w, h) {
		return sadRows(cur.Y[cy*cur.W+cx:], cur.W, ref.Y[ry*ref.W+rx:], ref.W, w, h, limit)
	}
	// A rectangle touching a border: each clamped row is gathered into a
	// stack buffer and fed to the same kernel.
	var cbuf, rbuf [frame.MBSize]uint8
	sad := 0
	for y := 0; y < h; y++ {
		sad += sadRows(clampedRow(cur, cx, cy+y, w, &cbuf), 0, clampedRow(ref, rx, ry+y, w, &rbuf), 0, w, 1, maxSADLimit)
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// SADAgainstLimit computes the SAD between the orig rectangle at (cx, cy)
// and a flat row-major prediction buffer, with early termination at limit
// under the same exactness contract as SADLimit.
func SADAgainstLimit(orig *frame.Frame, cx, cy, w, h int, pred []uint8, limit int) int {
	if interior(orig, cx, cy, w, h) {
		return sadRows(orig.Y[cy*orig.W+cx:], orig.W, pred, w, w, h, limit)
	}
	var buf [frame.MBSize]uint8
	sad := 0
	for y := 0; y < h; y++ {
		sad += sadRows(clampedRow(orig, cx, cy+y, w, &buf), 0, pred[y*w:], 0, w, 1, maxSADLimit)
		if sad >= limit {
			return sad
		}
	}
	return sad
}
