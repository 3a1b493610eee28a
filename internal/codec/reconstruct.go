package codec

import (
	"math/bits"

	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// Macroblock reconstruction, shared by the encoder and the decoder so the
// two cannot drift. It happens in the reconstructed frame itself, and every
// sample is written once: the prediction — intra from the neighbours already
// reconstructed, inter from partition vectors — goes straight into the
// macroblock's place in the planes, and the residual of each 4×4 block that
// carries a level is then added onto it in place (transform.ReconstructAdd
// with dst == pred). A block with no level is its prediction, so it is not
// touched again; the encoder quantizes against the same in-frame prediction
// (transform.ForwardQuantize reads it with the plane's stride). Everything
// here works on blocks and rows — a sample is touched individually only
// inside the transform kernel and where compensation clamps at a frame
// border.

// Residual block indices: 16 luma blocks in raster order, then the 2×2 Cb
// and the 2×2 Cr blocks — the order the bitstream codes them in.
const (
	lumaBlocks = 16
	mbBlocks   = 24
)

// mbResidual is the quantized residual of one macroblock. Bit b of nz is set
// when block b may hold a nonzero level; a block whose bit is clear is
// all-zero by definition and its storage is never read, so it may hold stale
// levels from an earlier macroblock.
type mbResidual struct {
	blocks [mbBlocks]transform.Block
	nz     uint32
}

// addResidual completes macroblock (mx, my) of rec, whose samples hold its
// prediction: each 4×4 block with its nz bit set gets the dequantized,
// inverse-transformed residual added in place, saturated to 8 bits. A block
// whose bit is clear — every block of a skip, of a clear coded-block flag, of
// levels that all quantized to zero — reconstructs to a zero residual at
// every QP, so leaving it alone cannot change a sample.
func addResidual(rec *frame.Frame, mx, my int, res *mbResidual, qp int) {
	w, cw := rec.W, rec.W/2
	luma := rec.Y[my*frame.MBSize*w+mx*frame.MBSize:]
	for nz := res.nz & (1<<lumaBlocks - 1); nz != 0; nz &= nz - 1 {
		b := bits.TrailingZeros32(nz)
		blk := luma[(b>>2)*4*w+(b&3)*4:]
		transform.ReconstructAdd(blk, w, blk, w, &res.blocks[b], qp)
	}
	co := my*8*cw + mx*8
	for nz := res.nz >> lumaBlocks; nz != 0; nz &= nz - 1 {
		b := bits.TrailingZeros32(nz) // 0–3 Cb, 4–7 Cr
		plane := rec.Cb
		if b >= 4 {
			plane = rec.Cr
		}
		blk := plane[co+(b>>1&1)*4*cw+(b&1)*4:]
		transform.ReconstructAdd(blk, cw, blk, cw, &res.blocks[lumaBlocks+b], qp)
	}
}

// maxPartitions is the partition count of the finest shape (4×4).
const maxPartitions = 16

// mbMotion is the motion description of one inter macroblock: the partition
// rectangles (a predict.PartitionRects table, read-only) and per partition
// the prediction direction and vectors; entries past len(rects) are zero.
type mbMotion struct {
	rects []predict.Rect
	dirs  [maxPartitions]int
	mvF   [maxPartitions]predict.MV // forward vector (dirFwd, dirBi)
	mvB   [maxPartitions]predict.MV // backward vector (dirBwd, dirBi)
}

// first returns the vector of the first partition, the macroblock's
// representative for median prediction of its neighbours.
func (m *mbMotion) first() predict.MV {
	if m.dirs[0] == dirBwd {
		return m.mvB[0]
	}
	return m.mvF[0]
}

// intraPredict writes the luma and chroma predictions of the intra
// macroblock (mx, my) into its place in rec, from the neighbours the slice
// lets it read.
func intraPredict(rec *frame.Frame, mx, my int, mode predict.IntraMode, hasAbove, hasLeft bool) {
	w, cw := rec.W, rec.W/2
	predict.IntraPredict16Avail(rec.Y[my*frame.MBSize*w+mx*frame.MBSize:], w, rec, mx, my, mode, hasAbove, hasLeft)
	co := my*8*cw + mx*8
	chromaIntraPredict(rec.Cb[co:], rec.Cr[co:], cw, rec, mx, my, hasAbove, hasLeft)
}

// interPredict writes the luma and chroma predictions of the inter
// macroblock (mx, my) into its place in rec by compensating every partition
// straight into the planes; refF and refB are other frames. Chroma follows
// the first partition's direction for the whole macroblock — a backward
// first partition reads refB with the backward vectors (zero for partitions
// that have none), anything else refF with the forward ones.
func interPredict(rec, refF, refB *frame.Frame, mx, my int, m *mbMotion, halfPel bool) {
	w := rec.W
	px, py := mx*frame.MBSize, my*frame.MBSize
	luma := rec.Y[py*w+px:]
	for i, r := range m.rects {
		dst := luma[r.Y*w+r.X:]
		switch m.dirs[i] {
		case dirBi:
			compensateBi(dst, w, refF, refB, px+r.X, py+r.Y, r.W, r.H, m.mvF[i], m.mvB[i], halfPel)
		case dirBwd:
			compensate(dst, w, refB, px+r.X, py+r.Y, r.W, r.H, m.mvB[i], halfPel)
		default:
			compensate(dst, w, refF, px+r.X, py+r.Y, r.W, r.H, m.mvF[i], halfPel)
		}
	}
	mvDiv := 2
	if halfPel {
		mvDiv = 4
	}
	cw := w / 2
	co := my*8*cw + mx*8
	if m.dirs[0] == dirBwd {
		chromaInterPredict(rec.Cb[co:], rec.Cr[co:], cw, refB, mx, my, m.rects, &m.mvB, mvDiv)
	} else {
		chromaInterPredict(rec.Cb[co:], rec.Cr[co:], cw, refF, mx, my, m.rects, &m.mvF, mvDiv)
	}
}

// compensate is predict.Compensate in the vector units the stream uses:
// full-pel, or half-pel when the video was coded with HalfPel.
func compensate(dst []uint8, stride int, ref *frame.Frame, cx, cy, w, h int, mv predict.MV, halfPel bool) {
	if halfPel {
		predict.CompensateHP(dst, stride, ref, cx, cy, w, h, mv)
	} else {
		predict.Compensate(dst, stride, ref, cx, cy, w, h, mv)
	}
}

// compensateBi is the bi-predictive counterpart of compensate.
func compensateBi(dst []uint8, stride int, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 predict.MV, halfPel bool) {
	if halfPel {
		predict.CompensateBiHP(dst, stride, ref0, ref1, cx, cy, w, h, mv0, mv1)
	} else {
		predict.CompensateBi(dst, stride, ref0, ref1, cx, cy, w, h, mv0, mv1)
	}
}

// chromaInterPredict writes the 8×8 chroma predictions of a macroblock into
// dstCb and dstCr, whose rows are stride bytes apart, from ref using the
// partition vectors scaled down by mvDiv: 2 for full-pel vectors, 4 for
// half-pel vectors (4:2:0 chroma is half luma resolution). The division
// truncates toward zero, as the bitstream always has.
func chromaInterPredict(dstCb, dstCr []uint8, stride int, ref *frame.Frame, mbx, mby int, rects []predict.Rect, mvs *[maxPartitions]predict.MV, mvDiv int) {
	for i, r := range rects {
		x, y := r.X/2, r.Y/2
		w, h := (r.X+r.W)/2-x, (r.Y+r.H)/2-y
		x0 := mbx*8 + x + int(mvs[i].X)/mvDiv
		y0 := mby*8 + y + int(mvs[i].Y)/mvDiv
		compensateChroma(dstCb[y*stride+x:], dstCr[y*stride+x:], stride, ref, x0, y0, w, h)
	}
}

// compensateChroma copies the w×h chroma rectangle at (x0, y0) of ref into
// the strided dstCb/dstCr: whole rows when the rectangle lies inside the
// planes, the clamped accessor per sample when it touches a border.
func compensateChroma(dstCb, dstCr []uint8, stride int, ref *frame.Frame, x0, y0, w, h int) {
	cw, ch := ref.W/2, ref.H/2
	if x0 >= 0 && y0 >= 0 && x0+w <= cw && y0+h <= ch {
		frame.CopyRows(dstCb, stride, ref.Cb[y0*cw+x0:], cw, w, h)
		frame.CopyRows(dstCr, stride, ref.Cr[y0*cw+x0:], cw, w, h)
		return
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dstCb[y*stride+x], dstCr[y*stride+x] = ref.ChromaAt(x0+x, y0+y)
		}
	}
}

// appendMotionDeps appends the compensation dependencies of an inter
// macroblock in partition order; bi-predicted partitions draw half their
// content from each reference, so their pixel weights are halved.
func appendMotionDeps(deps []CompDep, ef *EncodedFrame, w, h, mx, my int, m *mbMotion, halfPel bool) []CompDep {
	px, py := mx*frame.MBSize, my*frame.MBSize
	for i, r := range m.rects {
		switch m.dirs[i] {
		case dirBwd:
			deps = appendDeps(deps, ef.RefBwd, w, h, px+r.X, py+r.Y, r.W, r.H, m.mvB[i], 1, halfPel)
		case dirBi:
			deps = appendDeps(deps, ef.RefFwd, w, h, px+r.X, py+r.Y, r.W, r.H, m.mvF[i], 2, halfPel)
			deps = appendDeps(deps, ef.RefBwd, w, h, px+r.X, py+r.Y, r.W, r.H, m.mvB[i], 2, halfPel)
		default:
			deps = appendDeps(deps, ef.RefFwd, w, h, px+r.X, py+r.Y, r.W, r.H, m.mvF[i], 1, halfPel)
		}
	}
	return deps
}

// appendDeps appends the dependencies of one compensated rectangle on the
// frame at coded index refCoded (none when negative); share divides the
// pixel weights.
func appendDeps(deps []CompDep, refCoded, w, h, cx, cy, rw, rh int, mv predict.MV, share int, halfPel bool) []CompDep {
	if refCoded < 0 {
		return deps
	}
	// A partition straddles at most four macroblocks. The calls are direct
	// so that buf stays on the stack.
	var buf [4]predict.WeightedRef
	var fp []predict.WeightedRef
	if halfPel {
		fp = predict.FootprintHP(buf[:0], w, h, cx, cy, rw, rh, mv)
	} else {
		fp = predict.Footprint(buf[:0], w, h, cx, cy, rw, rh, mv)
	}
	mbCols := w / frame.MBSize
	for _, wr := range fp {
		deps = appendDep(deps, refCoded, wr, mbCols, share)
	}
	return deps
}

// appendDep appends the dependency on wr in the frame at coded index
// srcFrame, its pixel weight divided by share.
func appendDep(deps []CompDep, srcFrame int, wr predict.WeightedRef, mbCols, share int) []CompDep {
	return append(deps, CompDep{SrcFrame: int32(srcFrame), SrcMB: int32(wr.MB.Index(mbCols)), Pixels: uint16(wr.Pixels / share)})
}
