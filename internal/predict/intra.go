// Package predict implements the pixel-prediction substrate of the codec:
// directional intra prediction, block-based motion estimation, motion
// compensation, median motion-vector prediction, and — crucially for
// VideoApp — the computation of reference footprints: which source
// macroblocks a prediction reads and with what pixel counts, which become
// the weighted edges of the dependency graph.
package predict

import (
	"encoding/binary"

	"videoapp/internal/frame"
)

// IntraMode is a 16×16 luma intra prediction mode.
type IntraMode int

// Intra prediction modes, mirroring H.264's 16×16 luma modes.
const (
	IntraVertical IntraMode = iota
	IntraHorizontal
	IntraDC
	IntraPlane
	numIntraModes
)

// NumIntraModes is the count of intra modes (for validation of decoded values).
const NumIntraModes = int(numIntraModes)

// IntraPredict16Avail writes the 16×16 luma prediction of macroblock
// (mbx, mby) from the reconstructed frame rec into dst, whose rows are stride
// bytes apart (dst starts at the block's top-left sample). dst may be the
// macroblock's own place in rec.Y: the prediction reads only the row above
// and the column to the left, and reads them before it writes. hasAbove and
// hasLeft say which neighbors the mode may read — the scan order makes them
// mby > 0 and mbx > 0, and a slice boundary cuts the one above — and must not
// claim a neighbor outside the frame. Unavailable modes fall back to DC with
// the available neighbors (or 128 with none), exactly as the decoder will
// reproduce. The neighbor row and column lie inside the frame, so every mode
// reads them without clamping.
func IntraPredict16Avail(dst []uint8, stride int, rec *frame.Frame, mbx, mby int, mode IntraMode, hasAbove, hasLeft bool) {
	w := rec.W
	// o indexes the macroblock's top-left sample: the row above starts at
	// o-w, the column to the left at o-1, the corner between them at o-w-1.
	o := mby*frame.MBSize*w + mbx*frame.MBSize
	switch {
	case mode == IntraVertical && hasAbove:
		frame.CopyRows(dst, stride, rec.Y[o-w:], 0, 16, 16)
	case mode == IntraHorizontal && hasLeft:
		for y := 0; y < 16; y++ {
			fill16(dst[y*stride:], rec.Y[o+y*w-1])
		}
	case mode == IntraPlane && hasAbove && hasLeft:
		// Simplified plane fit through the neighbor row and column.
		above := rec.Y[o-w-1:][:17] // above[1+x] is the sample over column x
		left := func(y int) int { return int(rec.Y[o+y*w-1]) }
		var h, v int
		for i := 1; i <= 8; i++ {
			h += i * (int(above[8+i]) - int(above[8-i]))
			v += i * (left(7+i) - left(7-i))
		}
		a := 16 * (int(above[16]) + left(15))
		b := (5*h + 32) >> 6
		c := (5*v + 32) >> 6
		for y := 0; y < 16; y++ {
			row := dst[y*stride:][:16]
			acc := a + c*(y-7) - 7*b + 16
			for x := range row {
				row[x] = frame.ClampU8(acc >> 5)
				acc += b
			}
		}
	default:
		// DC (and the fallback for unavailable directional modes).
		sum, n := 0, 0
		if hasAbove {
			for _, s := range rec.Y[o-w:][:16] {
				sum += int(s)
			}
			n += 16
		}
		if hasLeft {
			for y := 0; y < 16; y++ {
				sum += int(rec.Y[o+y*w-1])
			}
			n += 16
		}
		dc := uint8(128)
		if n > 0 {
			dc = uint8((sum + n/2) / n)
		}
		for y := 0; y < 16; y++ {
			fill16(dst[y*stride:], dc)
		}
	}
}

// fill16 sets the first 16 bytes of dst to v.
func fill16(dst []uint8, v uint8) {
	splat := uint64(v) * 0x0101010101010101
	binary.LittleEndian.PutUint64(dst[0:8], splat)
	binary.LittleEndian.PutUint64(dst[8:16], splat)
}

// BestIntraModeAvail decides whether intra prediction of macroblock
// (mbx, mby) can beat a competing cost: it looks for the mode with the lowest
// SAD against the original pixels among those whose SAD is strictly below
// limit (the first such mode on ties) and returns it with its SAD; ok is
// false when no mode gets below limit. It writes no prediction: the caller
// predicts the winning mode once, where the macroblock goes.
//
// The bound makes the decision cheap without changing it. A limit <= 0 can
// admit no SAD, so nothing is predicted at all; otherwise each mode's
// row-wise SAD stops once it reaches min(best so far, limit), and a stopped
// sum is >= that bound, as the exact SAD would be — the strict comparison
// rejects both alike. Whenever some mode's SAD is below limit, the mode and
// SAD returned are those of an unbounded scan over all four modes.
func BestIntraModeAvail(orig, rec *frame.Frame, mbx, mby int, hasAbove, hasLeft bool, limit int) (mode IntraMode, sad int, ok bool) {
	if limit <= 0 {
		return IntraDC, 0, false
	}
	src := orig.Y[mby*frame.MBSize*orig.W+mbx*frame.MBSize:]
	mode, sad = IntraDC, limit
	var cand [256]uint8
	for m := IntraMode(0); m < numIntraModes; m++ {
		IntraPredict16Avail(cand[:], 16, rec, mbx, mby, m, hasAbove, hasLeft)
		if s := sadRows(src, orig.W, cand[:], 16, 16, 16, sad); s < sad {
			mode, sad, ok = m, s, true
		}
	}
	return mode, sad, ok
}

// IntraFootprintAvail appends to dst the dependency weights of an
// intra-predicted macroblock on its source macroblocks — the neighbor MBs
// contributing reference pixels, weighted by pixel share as in §4.1 of the
// paper — and returns the extended slice. The weights sum to a macroblock's
// 256 pixels when any neighbor is available; with none, nothing is appended.
func IntraFootprintAvail(dst []WeightedRef, mbx, mby int, mode IntraMode, hasAbove, hasLeft bool) []WeightedRef {
	above := frame.MB{X: mbx, Y: mby - 1}
	left := frame.MB{X: mbx - 1, Y: mby}
	switch {
	case mode == IntraVertical && hasAbove:
		return append(dst, WeightedRef{MB: above, Pixels: 256})
	case mode == IntraHorizontal && hasLeft:
		return append(dst, WeightedRef{MB: left, Pixels: 256})
	// Plane, DC, and the DC fallback of a mode whose neighbor is missing
	// all read whichever neighbors exist, in equal shares.
	case hasAbove && hasLeft:
		return append(dst, WeightedRef{MB: above, Pixels: 128}, WeightedRef{MB: left, Pixels: 128})
	case hasAbove:
		return append(dst, WeightedRef{MB: above, Pixels: 256})
	case hasLeft:
		return append(dst, WeightedRef{MB: left, Pixels: 256})
	}
	return dst
}
