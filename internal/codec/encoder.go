package codec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"

	"videoapp/internal/bitio"
	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// encode compresses the sequence with the given parameters, producing the
// coded video together with the per-macroblock records consumed by the
// VideoApp dependency analysis. It is the serial kernel
// EncodeParallelContext runs once per unit of work.
func encode(seq *frame.Sequence, p Params) (*Video, error) {
	v, rec, err := encodeRecs(seq, p)
	// Reconstructed frames never leave encode; recycle their planes.
	for _, r := range rec {
		frame.Recycle(r)
	}
	return v, err
}

// encodeRecs is encode that also returns the encoder's reconstructions in
// coded order — what a decoder of the stream must reproduce sample for
// sample. The caller owns them.
func encodeRecs(seq *frame.Sequence, p Params) (*Video, []*frame.Frame, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if len(seq.Frames) == 0 {
		return nil, nil, fmt.Errorf("codec: empty sequence")
	}
	w, h := seq.W(), seq.H()
	if err := checkGeometry(w, h); err != nil {
		return nil, nil, err
	}
	v := &Video{Params: p, W: w, H: h, FPS: seq.FPS}
	order := codedOrder(len(seq.Frames), p)
	// rec holds reconstructed frames by coded index; displayToCoded maps
	// display positions of already-coded frames.
	rec := make([]*frame.Frame, len(order))
	displayToCoded := make(map[int]int, len(order))
	fe := newFrameEncoder(p, w, h, rec)
	for codedIdx, disp := range order {
		ft := frameTypeOf(disp.display, len(seq.Frames), p)
		ef := &EncodedFrame{
			Type:       ft,
			CodedIdx:   codedIdx,
			DisplayIdx: disp.display,
			RefFwd:     -1,
			RefBwd:     -1,
		}
		ef.BaseQP = baseQPFor(ft, p)
		switch ft {
		case FrameP:
			ef.RefFwd = nearestCodedBefore(displayToCoded, disp.display, p)
		case FrameB:
			ef.RefFwd = nearestCodedBefore(displayToCoded, disp.display, p)
			ef.RefBwd = nearestCodedAfter(displayToCoded, disp.display)
		}
		rec[codedIdx] = fe.encode(ef, seq.Frames[disp.display])
		displayToCoded[disp.display] = codedIdx
		v.Frames = append(v.Frames, ef)
	}
	fe.release()
	return v, rec, nil
}

type codedEntry struct{ display int }

// codedOrder computes the coded (stream) order of display frames: each
// anchor first, then the B frames that precede it in display order.
func codedOrder(n int, p Params) []codedEntry {
	var order []codedEntry
	if p.BFrames == 0 {
		for d := 0; d < n; d++ {
			order = append(order, codedEntry{d})
		}
		return order
	}
	prevAnchor := -1
	for d := 0; d < n; d++ {
		if !isAnchor(d, p) {
			continue
		}
		order = append(order, codedEntry{d})
		// The Bs between two anchors follow in display order, referenced
		// or not.
		for b := prevAnchor + 1; b < d; b++ {
			order = append(order, codedEntry{b})
		}
		prevAnchor = d
	}
	// Trailing frames after the last anchor are coded as P frames.
	for d := prevAnchor + 1; d < n; d++ {
		order = append(order, codedEntry{d})
	}
	return order
}

func isAnchor(display int, p Params) bool {
	return display%(p.BFrames+1) == 0
}

func frameTypeOf(display, n int, p Params) FrameType {
	if display%p.GOPSize == 0 {
		return FrameI
	}
	if p.BFrames > 0 && !isAnchor(display, p) {
		// Trailing frames past the final anchor become P.
		lastAnchor := (n - 1) / (p.BFrames + 1) * (p.BFrames + 1)
		if display > lastAnchor {
			return FrameP
		}
		return FrameB
	}
	return FrameP
}

func baseQPFor(t FrameType, p Params) int {
	switch t {
	case FrameI:
		return transform.ClampQP(p.CRF - 3)
	case FrameB:
		return transform.ClampQP(p.CRF + 2)
	default:
		return transform.ClampQP(p.CRF)
	}
}

// nearestCodedBefore finds the coded index of the closest already-coded
// frame displayed before d that is allowed as a reference.
func nearestCodedBefore(d2c map[int]int, d int, p Params) int {
	for disp := d - 1; disp >= 0; disp-- {
		if ci, ok := d2c[disp]; ok {
			if !p.BReference && !isAnchor(disp, p) && p.BFrames > 0 {
				continue
			}
			return ci
		}
	}
	return -1
}

func nearestCodedAfter(d2c map[int]int, d int) int {
	best, bestDisp := -1, 1<<30
	for disp, ci := range d2c {
		if disp > d && disp < bestDisp {
			best, bestDisp = ci, disp
		}
	}
	return best
}

// frameEncoder encodes the frames of one encode call, one at a time. It owns
// the per-macroblock scratch (quantizer and motion-vector maps, prediction
// and residual buffers), the payload writer and the slab dependency records
// are carved from, so encoding a frame allocates only what the EncodedFrame
// keeps — its records, its payload — and the reconstruction, which comes
// from frame.Scratch: every sample of it is written before any is read.
type frameEncoder struct {
	params  Params
	recRefs []*frame.Frame

	// State of the frame being encoded.
	ef   *EncodedFrame
	orig *frame.Frame
	rec  *frame.Frame
	sw   entropy.SymbolWriter
	// sliceTop is the first macroblock row of the slice being coded;
	// prediction never crosses it.
	sliceTop int

	// Scratch reused across macroblocks and frames.
	w       bitio.Writer
	qps     []int
	mvRep   []predict.MV
	mvAvail []bool
	// deps collects the frame's macroblock dependencies in scan order; the
	// frame keeps an exact-size copy as its Deps.
	deps []CompDep
	// biBuf is scratch for bi-predicted candidates (a partition is at most
	// one 16×16 macroblock), hoisted out of the search loops so candidate
	// evaluation never allocates.
	biBuf [frame.MBSize * frame.MBSize]uint8
	// res is the quantized residual of the macroblock being coded, quantized
	// against and added onto the prediction in rec (addResidual), and nnz
	// the nonzero count of each of its blocks, which the residual writers
	// code as they are.
	res mbResidual
	nnz [mbBlocks]uint8
	// pads holds edge-replicated copies of reference luma planes, the
	// motion search's view of a reference (predict.Padded): padF and padB
	// are those of the frame's forward and backward reference. A reference
	// is padded once, when the first frame that refers to it starts; two
	// slots hold both references of a B frame.
	pads       [2]paddedRef
	padF, padB *predict.Padded
}

// paddedRef is one slot of frameEncoder.pads: pad holds the luma of
// reference idx (coded order) when used is set.
type paddedRef struct {
	used bool
	idx  int
	pad  predict.Padded
}

// encoderPool recycles the frameEncoders of finished encodes: their
// macroblock maps, payload writer, dependency scratch and padded planes are
// reused — resized when a geometry needs more — by the next encode, so the
// padded references cost no allocation once a process has encoded.
var encoderPool sync.Pool

// newFrameEncoder returns an encoder of w×h frames that resolves reference
// indices in recRefs (coded order), from the pool when it holds one; the
// caller hands it back with release after its last frame.
func newFrameEncoder(p Params, w, h int, recRefs []*frame.Frame) *frameEncoder {
	n := (w / frame.MBSize) * (h / frame.MBSize)
	fe, _ := encoderPool.Get().(*frameEncoder)
	if fe == nil {
		fe = new(frameEncoder)
	}
	fe.params, fe.recRefs = p, recRefs
	if cap(fe.qps) < n {
		fe.qps, fe.mvRep, fe.mvAvail = make([]int, n), make([]predict.MV, n), make([]bool, n)
	}
	fe.qps, fe.mvRep, fe.mvAvail = fe.qps[:n], fe.mvRep[:n], fe.mvAvail[:n]
	return fe
}

// release returns the encoder to the pool once its last frame is coded,
// dropping what belongs to the call: the frames, records and padded
// references (the planes themselves are kept).
func (fe *frameEncoder) release() {
	fe.recRefs, fe.ef, fe.orig, fe.rec, fe.sw = nil, nil, nil, nil, nil
	for i := range fe.pads {
		fe.pads[i].used = false
	}
	fe.padF, fe.padB = nil, nil
	encoderPool.Put(fe)
}

// encode codes orig as the frame described by ef — filling its payload, slice
// table and macroblock records — and returns the reconstruction, a pooled
// frame the caller owns.
func (fe *frameEncoder) encode(ef *EncodedFrame, orig *frame.Frame) *frame.Frame {
	fe.ef, fe.orig = ef, orig
	fe.padF = fe.padded(ef.RefFwd, ef.RefBwd)
	fe.padB = fe.padded(ef.RefBwd, ef.RefFwd)
	fe.rec = frame.Scratch(orig.W, orig.H)
	clear(fe.qps)
	clear(fe.mvRep)
	clear(fe.mvAvail)
	w := &fe.w
	w.Reset()
	mbCols, mbRows := fe.orig.MBCols(), fe.orig.MBRows()
	fe.ef.MBs = make([]MBRecord, 0, mbCols*mbRows)
	fe.deps = fe.deps[:0]
	nSlices := fe.params.slices()
	if nSlices > mbRows {
		nSlices = mbRows
	}
	for s := 0; s < nSlices; s++ {
		topRow := s * mbRows / nSlices
		botRow := (s + 1) * mbRows / nSlices
		fe.sliceTop = topRow
		fe.ef.SliceMBStart = append(fe.ef.SliceMBStart, topRow*mbCols)
		fe.ef.SliceByteStart = append(fe.ef.SliceByteStart, w.Len())
		// Each slice has its own entropy context: a fresh coder over the
		// shared byte-aligned output.
		fe.sw = newSymbolWriter(fe.params.Entropy, w)
		for my := topRow; my < botRow; my++ {
			for mx := 0; mx < mbCols; mx++ {
				start := fe.sw.BitPos()
				fe.ef.MBs = append(fe.ef.MBs, MBRecord{MB: int32(my*mbCols + mx), BitStart: start, DepOff: int32(len(fe.deps))})
				rec := &fe.ef.MBs[len(fe.ef.MBs)-1]
				fe.encodeMB(rec, mx, my)
				rec.BitLen = int32(fe.sw.BitPos() - start)
				rec.DepN = uint16(len(fe.deps) - int(rec.DepOff))
			}
		}
		fe.sw.Flush()
		// Flush/termination bits are charged to the slice's last macroblock
		// so every payload bit belongs to exactly one importance region.
		if n := len(fe.ef.MBs); n > 0 {
			last := &fe.ef.MBs[n-1]
			last.BitLen = int32(w.BitPos() - last.BitStart)
		}
	}
	// The writer's buffer and the dependency scratch are reused by the next
	// frame; the frame keeps exact-size copies.
	fe.ef.Payload = bytes.Clone(w.Bytes())
	fe.ef.Deps = slices.Clone(fe.deps)
	if fe.params.Deblock {
		deblockFrame(fe.rec, fe.qps, mbCols)
	}
	return fe.rec
}

// padded returns the padded luma of reference codedIdx (nil when there is
// none), padding it into a slot that does not hold keep, the frame's other
// reference, unless a slot holds it already.
func (fe *frameEncoder) padded(codedIdx, keep int) *predict.Padded {
	ref := fe.refFrame(codedIdx)
	if ref == nil {
		return nil
	}
	slot := &fe.pads[0]
	for i := range fe.pads {
		s := &fe.pads[i]
		if s.used && s.idx == codedIdx {
			return &s.pad
		}
		if !s.used || s.idx != keep {
			slot = s
		}
	}
	slot.pad.Pad(ref)
	slot.used, slot.idx = true, codedIdx
	return &slot.pad
}

func (fe *frameEncoder) motionSearch(ref *predict.Padded, cx, cy, w, h int, seed predict.MV, sr int) (predict.MV, int) {
	if fe.params.HalfPel {
		return ref.MotionSearchHP(fe.orig, cx, cy, w, h, seed, sr)
	}
	return ref.MotionSearch(fe.orig, cx, cy, w, h, seed, sr)
}

func (fe *frameEncoder) refFrame(codedIdx int) *frame.Frame {
	if codedIdx < 0 || codedIdx >= len(fe.recRefs) || fe.recRefs[codedIdx] == nil {
		return nil
	}
	return fe.recRefs[codedIdx]
}

// interCandidate is one evaluated motion configuration.
type interCandidate struct {
	mbType int
	mbMotion
	cost int
}

// encodeMB codes macroblock (mx, my) and completes its record.
func (fe *frameEncoder) encodeMB(rec *MBRecord, mx, my int) {
	mbCols := fe.orig.MBCols()
	mbIdx := my*mbCols + mx

	qp := fe.mbQP(mx, my)
	fe.qps[mbIdx] = qp

	refF := fe.refFrame(fe.ef.RefFwd)
	refB := fe.refFrame(fe.ef.RefBwd)
	predMV := mvPrediction(fe.mvRep, fe.mvAvail, mx, my, mbCols, fe.sliceTop)

	// Mode decision, inter first: intra carries a fixed penalty
	// approximating its larger coded size, so it wins only with
	// intraSAD + intraPenalty < inter.cost (scene changes still select it).
	// That is a bound the intra search can stop at — or, when the inter
	// cost is within the penalty, a reason not to run it at all.
	const intraPenalty = 512
	var inter interCandidate
	intraLimit := math.MaxInt
	if fe.ef.Type != FrameI && refF != nil {
		inter = fe.searchInter(mx, my, predMV, refF, refB)
		intraLimit = inter.cost - intraPenalty
	}
	if mode, _, ok := predict.BestIntraModeAvail(fe.orig, fe.rec, mx, my, my > fe.sliceTop, mx > 0, intraLimit); ok {
		fe.codeIntraMB(rec, mx, my, mode, qp, mbIdx)
	} else {
		fe.codeInterMB(rec, mx, my, &inter, predMV, refF, refB, qp, mbIdx)
	}
}

// mbQP selects this macroblock's quantizer: the frame base QP plus an
// activity-driven offset (adaptive quantization).
func (fe *frameEncoder) mbQP(mx, my int) int {
	qp := fe.ef.BaseQP
	w := fe.orig.W
	luma := fe.orig.Y[my*frame.MBSize*w+mx*frame.MBSize:]
	var sum, sum2 int
	for y := 0; y < 16; y++ {
		for _, s := range luma[y*w:][:16] {
			v := int(s)
			sum += v
			sum2 += v * v
		}
	}
	mean := sum / 256
	variance := sum2/256 - mean*mean
	switch {
	case variance > 2000:
		qp += 2 // busy areas hide quantization noise
	case variance < 100:
		qp -= 2 // flat areas show banding; spend bits here
	}
	return transform.ClampQP(qp)
}

func (fe *frameEncoder) searchInter(mx, my int, predMV predict.MV, refF, refB *frame.Frame) interCandidate {
	px, py := mx*frame.MBSize, my*frame.MBSize
	sr := fe.params.SearchRange
	searchShape := func(shape predict.PartitionShape) interCandidate {
		rects := predict.PartitionRects(shape)
		cand := interCandidate{mbType: shapeToMBType(shape), mbMotion: mbMotion{rects: rects}}
		// Each extra partition costs bits; penalize finer shapes.
		cand.cost = 24 * (len(rects) - 1)
		seed := predMV
		for i, r := range rects {
			mvf, costF := fe.motionSearch(fe.padF, px+r.X, py+r.Y, r.W, r.H, seed, sr)
			dir, mv0, mv1, cost := dirFwd, mvf, predict.MV{}, costF
			if fe.ef.Type == FrameB && refB != nil {
				mvb, costB := fe.motionSearch(fe.padB, px+r.X, py+r.Y, r.W, r.H, seed, sr)
				if costB < cost {
					dir, mv0, mv1, cost = dirBwd, mvb, predict.MV{}, costB
				}
				// Bi-prediction: average of both best vectors — when the
				// stream can say so. The backward vector is coded as its
				// difference from the forward one and the decoder saturates
				// coded differences to ±MaxMV; two searches of range above
				// MaxMV/2 can end further apart, and such a pair is not a
				// candidate. The SAD terminates early once it cannot beat
				// cost-8; the strict comparison rejects partial sums
				// exactly as it would the full SAD.
				if d := mvb.Sub(mvf); predict.ClampMV(d) == d {
					bi := fe.biBuf[:r.W*r.H]
					compensateBi(bi, r.W, refF, refB, px+r.X, py+r.Y, r.W, r.H, mvf, mvb, fe.params.HalfPel)
					biSAD := predict.SADAgainstLimit(fe.orig, px+r.X, py+r.Y, r.W, r.H, bi, cost-8)
					if biCost := biSAD + 8; biCost < cost {
						dir, mv0, mv1, cost = dirBi, mvf, mvb, biCost
					}
				}
			}
			cand.dirs[i] = dir
			cand.mvF[i] = mv0
			cand.mvB[i] = mv1
			if dir == dirBwd {
				// A backward partition has no forward vector in the stream,
				// and chroma reads this slot when the first partition is not
				// backward: it must be the decoder's zero.
				cand.mvF[i] = predict.MV{}
			}
			cand.cost += cost
			seed = mv0
		}
		return cand
	}

	best := searchShape(predict.Part16x16)
	// Coarse-to-fine shape evaluation, pruned by per-pixel cost thresholds.
	if best.cost > 256*3 {
		for _, s := range []predict.PartitionShape{predict.Part16x8, predict.Part8x16} {
			if c := searchShape(s); c.cost < best.cost {
				best = c
			}
		}
	}
	if best.cost > 256*5 {
		if c := searchShape(predict.Part8x8); c.cost < best.cost {
			best = c
		}
	}
	if best.cost > 256*8 {
		for _, s := range []predict.PartitionShape{predict.Part8x4, predict.Part4x8, predict.Part4x4} {
			if c := searchShape(s); c.cost < best.cost {
				best = c
			}
		}
	}
	return best
}

func (fe *frameEncoder) codeIntraMB(rec *MBRecord, mx, my int, mode predict.IntraMode, qp, mbIdx int) {
	rec.Intra = true
	rec.QP = int8(qp)
	if fe.ef.Type != FrameI {
		fe.sw.PutUVal(entropy.ClassMBType, mbIntra)
	}
	fe.sw.PutUVal(entropy.ClassIntraMode, uint32(mode))
	fe.codeDQP(mx, my, qp)

	// Intra reference footprint: spatial dependency on neighbor MBs.
	var buf [2]predict.WeightedRef
	for _, wr := range predict.IntraFootprintAvail(buf[:0], mx, my, mode, my > fe.sliceTop, mx > 0) {
		fe.deps = appendDep(fe.deps, fe.ef.CodedIdx, wr, fe.orig.MBCols(), 1)
	}

	intraPredict(fe.rec, mx, my, mode, my > fe.sliceTop, mx > 0)
	fe.quantizeResidual(mx, my, qp, true)
	fe.codeResidual()
	addResidual(fe.rec, mx, my, &fe.res, qp)
	fe.mvAvail[mbIdx] = false
}

func (fe *frameEncoder) codeInterMB(rec *MBRecord, mx, my int, cand *interCandidate, predMV predict.MV, refF, refB *frame.Frame, qp, mbIdx int) {
	mbCols := fe.orig.MBCols()

	// Build the prediction and the dependency footprints.
	interPredict(fe.rec, refF, refB, mx, my, &cand.mbMotion, fe.params.HalfPel)
	fe.deps = appendMotionDeps(fe.deps, fe.ef, fe.orig.W, fe.orig.H, mx, my, &cand.mbMotion, fe.params.HalfPel)

	// Quantize the residual to test for skip (P frames, 16x16, no MV delta).
	fe.quantizeResidual(mx, my, qp, false)
	hasResidual := fe.res.nz != 0

	canSkip := fe.ef.Type == FrameP && cand.mbType == mbInter16 &&
		cand.mvF[0] == predMV && !hasResidual
	if canSkip {
		fe.sw.PutUVal(entropy.ClassMBType, mbSkip)
		// No delta-QP is coded for skip; encoder and decoder both fall back
		// to the neighborhood prediction. The residual is zero, so the QP
		// value itself does not affect reconstruction: the prediction in rec
		// is the macroblock.
		skipQP := qpPrediction(fe.qps, mx, my, mbCols, fe.ef.BaseQP, fe.sliceTop)
		fe.qps[mbIdx] = skipQP
		rec.QP = int8(skipQP)
		fe.mvRep[mbIdx] = predMV
		fe.mvAvail[mbIdx] = true
		return
	}

	fe.sw.PutUVal(entropy.ClassMBType, uint32(cand.mbType))
	prevMV := predMV
	for i := range cand.rects {
		if fe.ef.Type == FrameB {
			fe.sw.PutUVal(entropy.ClassRefIdx, uint32(cand.dirs[i]))
		}
		switch cand.dirs[i] {
		case dirBwd:
			d := cand.mvB[i].Sub(prevMV)
			fe.sw.PutSVal(entropy.ClassMVX, int32(d.X))
			fe.sw.PutSVal(entropy.ClassMVY, int32(d.Y))
			prevMV = cand.mvB[i]
		case dirBi:
			dF := cand.mvF[i].Sub(prevMV)
			fe.sw.PutSVal(entropy.ClassMVX, int32(dF.X))
			fe.sw.PutSVal(entropy.ClassMVY, int32(dF.Y))
			dB := cand.mvB[i].Sub(cand.mvF[i])
			fe.sw.PutSVal(entropy.ClassMVX, int32(dB.X))
			fe.sw.PutSVal(entropy.ClassMVY, int32(dB.Y))
			prevMV = cand.mvF[i]
		default:
			d := cand.mvF[i].Sub(prevMV)
			fe.sw.PutSVal(entropy.ClassMVX, int32(d.X))
			fe.sw.PutSVal(entropy.ClassMVY, int32(d.Y))
			prevMV = cand.mvF[i]
		}
	}
	fe.codeDQP(mx, my, qp)
	rec.QP = int8(qp)

	fe.codeResidual()
	addResidual(fe.rec, mx, my, &fe.res, qp)
	fe.mvRep[mbIdx] = cand.first()
	fe.mvAvail[mbIdx] = true
}

func (fe *frameEncoder) codeDQP(mx, my, qp int) {
	pred := qpPrediction(fe.qps, mx, my, fe.orig.MBCols(), fe.ef.BaseQP, fe.sliceTop)
	fe.sw.PutSVal(entropy.ClassDQP, int32(qp-pred))
}

// quantizeResidual transforms and quantizes the macroblock's residual —
// source minus the prediction in fe.rec, 16 luma then 4 Cb and 4 Cr blocks —
// into fe.res, and their nonzero counts into fe.nnz. Every block is written,
// so none of fe.res is stale afterwards.
func (fe *frameEncoder) quantizeResidual(mx, my, qp int, intra bool) {
	var nz uint32
	w, cw := fe.orig.W, fe.orig.W/2
	mo, co := my*frame.MBSize*w+mx*frame.MBSize, my*8*cw+mx*8
	luma, pred := fe.orig.Y[mo:], fe.rec.Y[mo:]
	for b := 0; b < lumaBlocks; b++ {
		o := (b>>2)*4*w + (b&3)*4
		n := transform.ForwardQuantize(&fe.res.blocks[b], luma[o:], w, pred[o:], w, qp, intra)
		fe.nnz[b] = uint8(n)
		if n != 0 {
			nz |= 1 << uint(b)
		}
	}
	for b := 0; b < 4; b++ {
		o := co + (b>>1)*4*cw + (b&1)*4
		n := transform.ForwardQuantize(&fe.res.blocks[lumaBlocks+b], fe.orig.Cb[o:], cw, fe.rec.Cb[o:], cw, qp, intra)
		fe.nnz[lumaBlocks+b] = uint8(n)
		if n != 0 {
			nz |= 1 << uint(lumaBlocks+b)
		}
		n = transform.ForwardQuantize(&fe.res.blocks[lumaBlocks+4+b], fe.orig.Cr[o:], cw, fe.rec.Cr[o:], cw, qp, intra)
		fe.nnz[lumaBlocks+4+b] = uint8(n)
		if n != 0 {
			nz |= 1 << uint(lumaBlocks+4+b)
		}
	}
	fe.res.nz = nz
}

// codeResidual writes the coded-block flag and, when any level is nonzero,
// the macroblock's 24 residual blocks.
func (fe *frameEncoder) codeResidual() {
	fe.sw.PutFlag(entropy.ClassCBP, fe.res.nz != 0)
	if fe.res.nz == 0 {
		return
	}
	for b := range fe.res.blocks {
		writeResidualBlock(fe.sw, &fe.res.blocks[b], int(fe.nnz[b]))
	}
}
