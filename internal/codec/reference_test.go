package codec

import (
	"videoapp/internal/bitio"
	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// The reference decoder: the sample-at-a-time macroblock decoder as it stood
// before reconstruction was rebuilt around blocks and rows, moved here
// verbatim (identifiers prefixed ref) together with the kernels it called —
// per-sample clamped compensation, per-coefficient dequantization through
// transform.Reconstruct, per-macroblock partition slices, the slice-building
// qpPrediction, the per-sample deblocking thresholds. It exists only as the
// oracle of the differential tests (FuzzDecodeVsReference,
// TestDecodeMatchesReference): the production decoder must produce the same
// planes and the same Reanalyze records from any input, damaged or not.

// refDecodeRecs is the pre-change decodeRecsOpts.
func refDecodeRecs(v *Video) ([]*frame.Frame, error) {
	if v.W%frame.MBSize != 0 || v.H%frame.MBSize != 0 || v.W <= 0 || v.H <= 0 {
		return nil, errFrameGeometry(v.W, v.H)
	}
	rec := make([]*frame.Frame, len(v.Frames))
	for i := range v.Frames {
		fd := &refFrameDecoder{video: v, ef: v.Frames[i], recRefs: rec, rec: frame.MustNew(v.W, v.H)}
		fd.run()
		rec[i] = fd.rec
	}
	return rec, nil
}

type refFrameDecoder struct {
	video   *Video
	ef      *EncodedFrame
	recRefs []*frame.Frame
	rec     *frame.Frame

	sr       entropy.SymbolReader
	qps      []int
	mvRep    []predict.MV
	mvAvail  []bool
	sliceTop int

	// Recording mode (Reanalyze): rebuild per-MB records while decoding.
	record  bool
	recs    []MBRecord
	curRec  *MBRecord
	bitBase int64
}

// mvDiv is the divisor converting motion vector units to chroma pixels.
func (fd *refFrameDecoder) mvDiv() int {
	if fd.video.Params.HalfPel {
		return 4
	}
	return 2
}

func (fd *refFrameDecoder) compensate(buf []uint8, ref *frame.Frame, cx, cy, w, h int, mv predict.MV) {
	if fd.video.Params.HalfPel {
		refCompensateHP(buf, ref, cx, cy, w, h, mv)
	} else {
		refCompensate(buf, ref, cx, cy, w, h, mv)
	}
}

func (fd *refFrameDecoder) compensateBi(buf []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 predict.MV) {
	if fd.video.Params.HalfPel {
		refCompensateBiHP(buf, ref0, ref1, cx, cy, w, h, mv0, mv1)
	} else {
		refCompensateBi(buf, ref0, ref1, cx, cy, w, h, mv0, mv1)
	}
}

func (fd *refFrameDecoder) refFrame(codedIdx int) *frame.Frame {
	if !validFrameRef(codedIdx, len(fd.recRefs)) || fd.recRefs[codedIdx] == nil {
		return nil
	}
	return fd.recRefs[codedIdx]
}

func (fd *refFrameDecoder) run() {
	mbCols, mbRows := fd.rec.MBCols(), fd.rec.MBRows()
	defer func() {
		if fd.video.Params.Deblock {
			refDeblockFrame(fd.rec, fd.qps, mbCols)
		}
	}()
	fd.qps = make([]int, mbCols*mbRows)
	fd.mvRep = make([]predict.MV, mbCols*mbRows)
	fd.mvAvail = make([]bool, mbCols*mbRows)
	starts := fd.ef.SliceMBStart
	byteStarts := fd.ef.SliceByteStart
	if len(starts) == 0 {
		starts, byteStarts = []int{0}, []int{0}
	}
	for s := range starts {
		topMB := clampRange(starts[s], 0, mbCols*mbRows)
		endMB := mbCols * mbRows
		if s+1 < len(starts) {
			endMB = clampRange(starts[s+1], topMB, mbCols*mbRows)
		}
		byteStart := clampRange(byteStarts[s], 0, len(fd.ef.Payload))
		byteEnd := len(fd.ef.Payload)
		if s+1 < len(byteStarts) {
			byteEnd = clampRange(byteStarts[s+1], byteStart, len(fd.ef.Payload))
		}
		// Fresh entropy context per slice over its own payload span.
		fd.sr = newSymbolReader(fd.video.Params.Entropy, bitio.NewReader(fd.ef.Payload[byteStart:byteEnd]))
		fd.sliceTop = topMB / mbCols
		fd.bitBase = int64(byteStart) * 8
		sliceRecStart := len(fd.recs)
		for m := topMB; m < endMB; m++ {
			if fd.record {
				fd.recs = append(fd.recs, MBRecord{MB: frame.MB{X: m % mbCols, Y: m / mbCols}})
				fd.curRec = &fd.recs[len(fd.recs)-1]
				fd.curRec.BitStart = fd.bitBase + fd.sr.BitPos()
				if m == topMB {
					// The arithmetic decoder's prefetch belongs to the
					// slice's first macroblock.
					fd.curRec.BitStart = fd.bitBase
				}
			}
			fd.decodeMB(m%mbCols, m/mbCols)
		}
		if fd.record {
			// Bit lengths from consecutive starts; the slice's last MB
			// absorbs the termination bits, mirroring the encoder.
			sliceEndBit := int64(byteEnd) * 8
			for i := sliceRecStart; i < len(fd.recs); i++ {
				end := sliceEndBit
				if i+1 < len(fd.recs) {
					end = fd.recs[i+1].BitStart
				}
				if end < fd.recs[i].BitStart {
					end = fd.recs[i].BitStart
				}
				fd.recs[i].BitLen = end - fd.recs[i].BitStart
			}
		}
	}
}

// refReanalyze is the pre-change Reanalyze over the reference decoder.
func refReanalyze(v *Video) error {
	if v.W%frame.MBSize != 0 || v.H%frame.MBSize != 0 || v.W <= 0 || v.H <= 0 {
		return errFrameGeometry(v.W, v.H)
	}
	rec := make([]*frame.Frame, len(v.Frames))
	for i, ef := range v.Frames {
		fd := &refFrameDecoder{video: v, ef: ef, recRefs: rec, rec: frame.MustNew(v.W, v.H), record: true}
		fd.run()
		rec[i] = fd.rec
		ef.MBs = fd.recs
	}
	return nil
}

// addDep records one dependency while in recording mode.
func (fd *refFrameDecoder) addDep(refCoded, cx, cy, w, h int, mv predict.MV, share int) {
	if !fd.record || fd.curRec == nil || refCoded < 0 {
		return
	}
	fp := predict.Footprint(nil, fd.rec.W, fd.rec.H, cx, cy, w, h, mv)
	if fd.video.Params.HalfPel {
		fp = predict.FootprintHP(nil, fd.rec.W, fd.rec.H, cx, cy, w, h, mv)
	}
	for _, wr := range fp {
		fd.curRec.Deps = append(fd.curRec.Deps, CompDep{SrcFrame: refCoded, SrcMB: wr.MB, Pixels: wr.Pixels / share})
	}
}

func (fd *refFrameDecoder) decodeMB(mx, my int) {
	mbCols := fd.rec.MBCols()
	mbIdx := my*mbCols + mx
	refF := fd.refFrame(fd.ef.RefFwd)
	refB := fd.refFrame(fd.ef.RefBwd)
	predMV := mvPrediction(fd.mvRep, fd.mvAvail, mx, my, mbCols, fd.sliceTop)

	mbType := mbIntra
	if fd.ef.Type != FrameI {
		mbType = int(fd.sr.GetUVal(entropy.ClassMBType)) % numMBTypes
	}
	// A frame without a forward reference cannot code inter MBs; corrupt
	// types collapse to intra, keeping decode well-defined.
	if mbType != mbIntra && refF == nil {
		mbType = mbIntra
	}

	switch mbType {
	case mbSkip:
		skipQP := refQPPrediction(fd.qps, mx, my, mbCols, fd.ef.BaseQP, fd.sliceTop)
		fd.qps[mbIdx] = skipQP
		fd.reconstructSkip(mx, my, refF, predMV)
		fd.addDep(fd.ef.RefFwd, mx*frame.MBSize, my*frame.MBSize, 16, 16, predMV, 1)
		if fd.record && fd.curRec != nil {
			fd.curRec.QP = skipQP
		}
		fd.mvRep[mbIdx] = predMV
		fd.mvAvail[mbIdx] = true
	case mbIntra:
		mode := predict.IntraMode(int(fd.sr.GetUVal(entropy.ClassIntraMode)) % predict.NumIntraModes)
		qp := fd.decodeQP(mx, my, mbIdx)
		var pred [256]uint8
		predict.IntraPredict16Avail(pred[:], 16, fd.rec, mx, my, mode, my > fd.sliceTop, mx > 0)
		var predCb, predCr [64]uint8
		chromaIntraPredict(predCb[:], predCr[:], 8, fd.rec, mx, my, my > fd.sliceTop, mx > 0)
		fd.decodeResidualAndReconstruct(mx, my, pred[:], predCb[:], predCr[:], qp)
		if fd.record && fd.curRec != nil {
			fd.curRec.Intra = true
			fd.curRec.QP = qp
			for _, wr := range predict.IntraFootprintAvail(nil, mx, my, mode, my > fd.sliceTop, mx > 0) {
				fd.curRec.Deps = append(fd.curRec.Deps, CompDep{SrcFrame: fd.ef.CodedIdx, SrcMB: wr.MB, Pixels: wr.Pixels})
			}
		}
		fd.mvAvail[mbIdx] = false
	default:
		shape := mbTypeToShape(mbType)
		rects := refPartitionRects(shape)
		dirs := make([]int, len(rects))
		mvF := make([]predict.MV, len(rects))
		mvB := make([]predict.MV, len(rects))
		prevMV := predMV
		for i := range rects {
			dir := dirFwd
			if fd.ef.Type == FrameB {
				dir = int(fd.sr.GetUVal(entropy.ClassRefIdx)) % 3
				if refB == nil && dir != dirFwd {
					dir = dirFwd
				}
			}
			dirs[i] = dir
			switch dir {
			case dirBwd:
				d := fd.readMVD()
				mvB[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = mvB[i]
			case dirBi:
				dF := fd.readMVD()
				mvF[i] = predict.ClampMV(prevMV.Add(dF))
				dB := fd.readMVD()
				mvB[i] = predict.ClampMV(mvF[i].Add(dB))
				prevMV = mvF[i]
			default:
				d := fd.readMVD()
				mvF[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = mvF[i]
			}
		}
		qp := fd.decodeQP(mx, my, mbIdx)

		px, py := mx*frame.MBSize, my*frame.MBSize
		var predY [256]uint8
		for i, r := range rects {
			buf := make([]uint8, r.W*r.H)
			switch dirs[i] {
			case dirBwd:
				fd.compensate(buf, refB, px+r.X, py+r.Y, r.W, r.H, mvB[i])
				fd.addDep(fd.ef.RefBwd, px+r.X, py+r.Y, r.W, r.H, mvB[i], 1)
			case dirBi:
				fd.compensateBi(buf, refF, refB, px+r.X, py+r.Y, r.W, r.H, mvF[i], mvB[i])
				fd.addDep(fd.ef.RefFwd, px+r.X, py+r.Y, r.W, r.H, mvF[i], 2)
				fd.addDep(fd.ef.RefBwd, px+r.X, py+r.Y, r.W, r.H, mvB[i], 2)
			default:
				fd.compensate(buf, refF, px+r.X, py+r.Y, r.W, r.H, mvF[i])
				fd.addDep(fd.ef.RefFwd, px+r.X, py+r.Y, r.W, r.H, mvF[i], 1)
			}
			for y := 0; y < r.H; y++ {
				copy(predY[(r.Y+y)*16+r.X:(r.Y+y)*16+r.X+r.W], buf[y*r.W:(y+1)*r.W])
			}
		}
		var predCb, predCr [64]uint8
		if dirs[0] == dirBwd {
			refChromaInterPredict(predCb[:], predCr[:], refB, mx, my, rects, mvB, fd.mvDiv())
		} else {
			refChromaInterPredict(predCb[:], predCr[:], refF, mx, my, rects, mvF, fd.mvDiv())
		}
		fd.decodeResidualAndReconstruct(mx, my, predY[:], predCb[:], predCr[:], qp)
		if fd.record && fd.curRec != nil {
			fd.curRec.QP = qp
		}
		if dirs[0] == dirBwd {
			fd.mvRep[mbIdx] = mvB[0]
		} else {
			fd.mvRep[mbIdx] = mvF[0]
		}
		fd.mvAvail[mbIdx] = true
	}
}

func (fd *refFrameDecoder) readMVD() predict.MV {
	x := fd.sr.GetSVal(entropy.ClassMVX)
	y := fd.sr.GetSVal(entropy.ClassMVY)
	return predict.ClampMV(predict.MV{X: clamp16(x), Y: clamp16(y)})
}

func (fd *refFrameDecoder) decodeQP(mx, my, mbIdx int) int {
	dqp := int(fd.sr.GetSVal(entropy.ClassDQP))
	if dqp > transform.MaxQP {
		dqp = transform.MaxQP
	}
	if dqp < -transform.MaxQP {
		dqp = -transform.MaxQP
	}
	pred := refQPPrediction(fd.qps, mx, my, fd.rec.MBCols(), fd.ef.BaseQP, fd.sliceTop)
	qp := transform.ClampQP(pred + dqp)
	fd.qps[mbIdx] = qp
	return qp
}

func (fd *refFrameDecoder) reconstructSkip(mx, my int, refF *frame.Frame, mv predict.MV) {
	px, py := mx*frame.MBSize, my*frame.MBSize
	var buf [256]uint8
	fd.compensate(buf[:], refF, px, py, 16, 16, mv)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			fd.rec.SetLuma(px+x, py+y, buf[y*16+x])
		}
	}
	rects := []predict.Rect{{X: 0, Y: 0, W: 16, H: 16}}
	var predCb, predCr [64]uint8
	refChromaInterPredict(predCb[:], predCr[:], refF, mx, my, rects, []predict.MV{mv}, fd.mvDiv())
	cx0, cy0 := mx*8, my*8
	cw, ch := fd.rec.W/2, fd.rec.H/2
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if cx0+x < cw && cy0+y < ch {
				fd.rec.Cb[(cy0+y)*cw+cx0+x] = predCb[y*8+x]
				fd.rec.Cr[(cy0+y)*cw+cx0+x] = predCr[y*8+x]
			}
		}
	}
}

func (fd *refFrameDecoder) decodeResidualAndReconstruct(mx, my int, predY, predCb, predCr []uint8, qp int) {
	px, py := mx*frame.MBSize, my*frame.MBSize
	hasResidual := fd.sr.GetFlag(entropy.ClassCBP)
	var levels [16]transform.Block
	var chromaLevels [8]transform.Block
	if hasResidual {
		for b := 0; b < 16; b++ {
			readResidualBlockRef(fd.sr, &levels[b])
		}
		for b := 0; b < 8; b++ {
			readResidualBlockRef(fd.sr, &chromaLevels[b])
		}
	}
	for by := 0; by < 4; by++ {
		for bx := 0; bx < 4; bx++ {
			recon := transform.Reconstruct(&levels[by*4+bx], qp)
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					ox, oy := bx*4+x, by*4+y
					fd.rec.SetLuma(px+ox, py+oy, frame.ClampU8(int(predY[oy*16+ox])+int(recon[y*4+x])))
				}
			}
		}
	}
	cx0, cy0 := mx*8, my*8
	cw, ch := fd.rec.W/2, fd.rec.H/2
	for plane := 0; plane < 2; plane++ {
		dst, prd := fd.rec.Cb, predCb
		if plane == 1 {
			dst, prd = fd.rec.Cr, predCr
		}
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				recon := transform.Reconstruct(&chromaLevels[plane*4+by*2+bx], qp)
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						sx, sy := cx0+bx*4+x, cy0+by*4+y
						if sx < cw && sy < ch {
							i := (by*4+y)*8 + bx*4 + x
							dst[sy*cw+sx] = frame.ClampU8(int(prd[i]) + int(recon[y*4+x]))
						}
					}
				}
			}
		}
	}
}

// refChromaInterPredict fills the 8×8 chroma predictions for a macroblock from
// ref using the partition vectors scaled down by mvDiv: 2 for full-pel
// vectors, 4 for half-pel vectors (4:2:0 chroma is half luma resolution).
func refChromaInterPredict(dstCb, dstCr []uint8, ref *frame.Frame, mbx, mby int, rects []predict.Rect, mvs []predict.MV, mvDiv int) {
	cx0, cy0 := mbx*8, mby*8
	for i, r := range rects {
		mv := mvs[i]
		for y := r.Y / 2; y < (r.Y+r.H)/2; y++ {
			for x := r.X / 2; x < (r.X+r.W)/2; x++ {
				cb, cr := ref.ChromaAt(cx0+x+int(mv.X)/mvDiv, cy0+y+int(mv.Y)/mvDiv)
				dstCb[y*8+x] = cb
				dstCr[y*8+x] = cr
			}
		}
	}
}

// refQPPrediction returns the median-of-neighbors QP prediction described in
// §3 of the paper: the median of the QPs of MBs A (left), B (above) and
// C (above-right), falling back to the frame base QP.
func refQPPrediction(qps []int, mbx, mby, mbCols, baseQP, sliceTop int) int {
	get := func(x, y int) (int, bool) {
		if x < 0 || y < sliceTop || x >= mbCols {
			return 0, false
		}
		return qps[y*mbCols+x], true
	}
	a, okA := get(mbx-1, mby)
	b, okB := get(mbx, mby-1)
	c, okC := get(mbx+1, mby-1)
	vals := []int{}
	if okA {
		vals = append(vals, a)
	}
	if okB {
		vals = append(vals, b)
	}
	if okC {
		vals = append(vals, c)
	}
	switch len(vals) {
	case 0:
		return baseQP
	case 1:
		return vals[0]
	case 2:
		return (vals[0] + vals[1]) / 2
	default:
		return median3i(vals[0], vals[1], vals[2])
	}
}

// refDeblockFrame filters all 4×4 luma edges of rec in place. qps holds the
// per-macroblock quantizers used for reconstruction.
func refDeblockFrame(rec *frame.Frame, qps []int, mbCols int) {
	// Vertical edges (filtering across columns), then horizontal edges.
	for y := 0; y < rec.H; y++ {
		for x := 4; x < rec.W; x += 4 {
			qp := qps[(y/16)*mbCols+x/16]
			refFilterEdge(rec, x, y, 1, 0, qp)
		}
	}
	for y := 4; y < rec.H; y += 4 {
		for x := 0; x < rec.W; x++ {
			qp := qps[(y/16)*mbCols+x/16]
			refFilterEdge(rec, x, y, 0, 1, qp)
		}
	}
}

// refFilterEdge smooths one sample pair across an edge at (x, y); (dx, dy) is
// the direction across the edge.
func refFilterEdge(rec *frame.Frame, x, y, dx, dy, qp int) {
	alpha, beta := deblockThresholds(qp)
	p0 := int(rec.LumaAt(x-dx, y-dy))
	q0 := int(rec.LumaAt(x, y))
	d0 := p0 - q0
	if d0 < 0 {
		d0 = -d0
	}
	if d0 == 0 || d0 >= alpha {
		return // flat already, or a real edge
	}
	p1 := int(rec.LumaAt(x-2*dx, y-2*dy))
	q1 := int(rec.LumaAt(x+dx, y+dy))
	if abs(p1-p0) >= beta || abs(q1-q0) >= beta {
		return // activity next to the edge: not blocking
	}
	// Weak four-tap smoothing of the two edge samples.
	delta := clamp(((q0-p0)*3+(p1-q1)+4)>>3, -beta, beta)
	rec.SetLuma(x-dx, y-dy, frame.ClampU8(p0+delta))
	rec.SetLuma(x, y, frame.ClampU8(q0-delta))
}

// refPartitionRects is the pre-change predict.PartitionRects: a fresh slice
// per call, built by the original loops (fields keyed for vet).
func refPartitionRects(s predict.PartitionShape) []predict.Rect {
	tile := func(n, xStep, yStep, w, h int) []predict.Rect {
		rects := make([]predict.Rect, 0, n)
		for y := 0; y < 16; y += yStep {
			for x := 0; x < 16; x += xStep {
				rects = append(rects, predict.Rect{X: x, Y: y, W: w, H: h})
			}
		}
		return rects
	}
	switch s {
	case predict.Part16x8:
		return []predict.Rect{{X: 0, Y: 0, W: 16, H: 8}, {X: 0, Y: 8, W: 16, H: 8}}
	case predict.Part8x16:
		return []predict.Rect{{X: 0, Y: 0, W: 8, H: 16}, {X: 8, Y: 0, W: 8, H: 16}}
	case predict.Part8x8:
		return []predict.Rect{{X: 0, Y: 0, W: 8, H: 8}, {X: 8, Y: 0, W: 8, H: 8}, {X: 0, Y: 8, W: 8, H: 8}, {X: 8, Y: 8, W: 8, H: 8}}
	case predict.Part8x4:
		return tile(8, 8, 4, 8, 4)
	case predict.Part4x8:
		return tile(8, 4, 8, 4, 8)
	case predict.Part4x4:
		return tile(16, 4, 4, 4, 4)
	default:
		return []predict.Rect{{X: 0, Y: 0, W: 16, H: 16}}
	}
}

// refCompensate writes the motion-compensated luma prediction for the rectangle
// at absolute position (cx, cy) of size w×h into dst (row-major w×h),
// reading ref displaced by mv with edge clamping.
func refCompensate(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv predict.MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = ref.LumaAt(cx+x+int(mv.X), cy+y+int(mv.Y))
		}
	}
}

// refCompensateBi writes the average of two motion-compensated predictions,
// used by bi-predicted B-frame partitions.
func refCompensateBi(dst []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 predict.MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(ref0.LumaAt(cx+x+int(mv0.X), cy+y+int(mv0.Y)))
			b := int(ref1.LumaAt(cx+x+int(mv1.X), cy+y+int(mv1.Y)))
			dst[y*w+x] = uint8((a + b + 1) / 2)
		}
	}
}

// refCompensateHP writes the motion-compensated prediction for the rectangle at
// (cx, cy) with the half-pel vector mv.
func refCompensateHP(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv predict.MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = predict.SampleHP(ref, 2*(cx+x)+int(mv.X), 2*(cy+y)+int(mv.Y))
		}
	}
}

// refCompensateBiHP averages two half-pel compensations (bi-prediction).
func refCompensateBiHP(dst []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 predict.MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(predict.SampleHP(ref0, 2*(cx+x)+int(mv0.X), 2*(cy+y)+int(mv0.Y)))
			b := int(predict.SampleHP(ref1, 2*(cx+x)+int(mv1.X), 2*(cy+y)+int(mv1.Y)))
			dst[y*w+x] = uint8((a + b + 1) / 2)
		}
	}
}
