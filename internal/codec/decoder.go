package codec

import (
	"bytes"

	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// DecodeOptions is DecodeContext's options parameter. It has no fields: the
// decoder has one desync behaviour, the paper's (it keeps interpreting
// garbage until the next slice resets the entropy context). The parameter
// stays only because the benchmark module (bench/) names it.
type DecodeOptions struct{}

// DecodeSingle decodes only coded frame idx against the given coded-order
// reference reconstructions (entries beyond idx are not read). Callers can
// substitute clean references to isolate one frame's coding errors from
// compensation errors, as the Figure 3 experiment requires.
func DecodeSingle(v *Video, idx int, recs []*frame.Frame) *frame.Frame {
	return newFrameDecoder(v, recs, nil).decode(idx)
}

// frameDecoder decodes the frames of one video, one at a time. It owns the
// per-macroblock scratch (quantizer and motion-vector maps, the macroblock
// syntax) and the symbol readers, so decoding a run of frames —
// a whole video, or one independent span of it — allocates per frame only
// the output planes, and those come from frame.NewPooled. A frameDecoder is
// not safe for concurrent use; parallel decode gives every span its own.
type frameDecoder struct {
	video   *Video
	recRefs []*frame.Frame
	// o receives the per-frame replay and per-slice entropy resync counters
	// (obs.CtrFramesReplayed, obs.CtrResync); nil publishes nothing.
	o obs.Observer
	// record selects recording mode (Reanalyze): rebuild per-MB records
	// while decoding.
	record bool

	// State of the frame being decoded.
	ef         *EncodedFrame
	rec        *frame.Frame
	refF, refB *frame.Frame // the header's references, nil when unresolved
	sr         entropy.SymbolReader
	sliceTop   int
	recs       []MBRecord
	curRec     *MBRecord
	bitBase    int64
	// A frame that shares its syntax (ShareSyntax) is either replaying —
	// its macroblocks come from the record under replay, not from the
	// payload — or recording what the parse stage reads into parsed.
	replaying, recording bool
	replay               syntaxReader

	// Scratch reused across macroblocks and frames.
	cabac   entropy.CABACReader
	cavlc   entropy.CAVLCReader
	qps     []int
	mvRep   []predict.MV
	mvAvail []bool
	syn     mbSyntax
	parsed  []byte
}

// newFrameDecoder returns a decoder of v's frames that resolves header
// references in recRefs (coded order; entries at or beyond the frame being
// decoded are never read as references of a well-formed stream) and
// publishes its counters to o, when o is not nil.
func newFrameDecoder(v *Video, recRefs []*frame.Frame, o obs.Observer) *frameDecoder {
	n := v.MBCols() * v.MBRows()
	return &frameDecoder{
		video: v, recRefs: recRefs, o: o,
		qps: make([]int, n), mvRep: make([]predict.MV, n), mvAvail: make([]bool, n),
	}
}

// decode reconstructs coded frame idx into a fresh pooled frame, which the
// caller owns (see frame.Recycle for who may give it back).
func (fd *frameDecoder) decode(idx int) *frame.Frame {
	fd.ef = fd.video.Frames[idx]
	fd.rec = frame.MustNewPooled(fd.video.W, fd.video.H)
	fd.refF, fd.refB = fd.refFrame(fd.ef.RefFwd), fd.refFrame(fd.ef.RefBwd)
	fd.recs, fd.curRec = nil, nil
	// Macroblocks a corrupt slice table never reaches must read as zero,
	// exactly as in a freshly allocated map.
	clear(fd.qps)
	clear(fd.mvRep)
	clear(fd.mvAvail)
	// A frame that shares a syntax slot (ShareSyntax) replays the parse on
	// record there when it was made of these bytes under these conditions,
	// and otherwise leaves its own. Recording mode needs the bit
	// positions only the entropy reader knows, so it always parses. The
	// previous frame's record is let go either way: a slot's owner may drop
	// it (an evicted chunk's slots) long before this decoder is done.
	fd.replaying, fd.recording = false, false
	fd.replay = syntaxReader{}
	slot := fd.ef.shared
	var key syntaxKey
	if slot != nil && !fd.record {
		key = fd.syntaxKeyOf()
		if m := slot.rec.Load(); m != nil && m.key == key {
			fd.replaying, fd.replay = true, syntaxReader{data: m.data}
		} else {
			fd.recording, fd.parsed = true, fd.parsed[:0]
		}
	}
	fd.run()
	switch {
	case fd.recording:
		slot.rec.Store(&frameSyntax{key: key, data: bytes.Clone(fd.parsed)})
	case fd.replaying && fd.o != nil:
		fd.o.Counter(obs.CtrFramesReplayed, fd.ef.Type.String(), 1)
	}
	return fd.rec
}

// resetReader points the configured entropy backend at one slice's payload
// span with a fresh context.
func (fd *frameDecoder) resetReader(span []byte) {
	if fd.video.Params.Entropy == CAVLC {
		fd.cavlc.Reset(span)
		fd.sr = &fd.cavlc
	} else {
		fd.cabac.Reset(span)
		fd.sr = &fd.cabac
	}
}

func (fd *frameDecoder) refFrame(codedIdx int) *frame.Frame {
	if !validFrameRef(codedIdx, len(fd.recRefs)) || fd.recRefs[codedIdx] == nil {
		return nil
	}
	return fd.recRefs[codedIdx]
}

func (fd *frameDecoder) run() {
	mbCols, mbRows := fd.rec.MBCols(), fd.rec.MBRows()
	defer func() {
		if fd.video.Params.Deblock {
			deblockFrame(fd.rec, fd.qps, mbCols)
		}
	}()
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
		if !fd.replaying {
			fd.resetReader(fd.ef.Payload[byteStart:byteEnd])
		}
		fd.sliceTop = topMB / mbCols
		fd.bitBase = int64(byteStart) * 8
		sliceRecStart := len(fd.recs)
		for m := topMB; m < endMB; m++ {
			mx, my := m%mbCols, m/mbCols
			if fd.replaying {
				fd.replay.readMB(&fd.syn)
				fd.reconstruct(mx, my, &fd.syn)
				continue
			}
			if fd.record {
				fd.recs = append(fd.recs, MBRecord{MB: frame.MB{X: mx, Y: my}, BitStart: fd.bitBase + fd.sr.BitPos()})
				fd.curRec = &fd.recs[len(fd.recs)-1]
				if m == topMB {
					// The arithmetic decoder's prefetch belongs to the
					// slice's first macroblock.
					fd.curRec.BitStart = fd.bitBase
				}
			}
			fd.parseMB(mx, my, &fd.syn)
			if fd.recording {
				fd.parsed = appendMB(fd.parsed, &fd.syn)
			}
			fd.reconstruct(mx, my, &fd.syn)
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
		// Whether the slice's reader ended desynced closes its record.
		var desynced bool
		if fd.replaying {
			desynced = fd.replay.u8() != 0
		} else {
			desynced = fd.sr.Desynced()
		}
		if fd.recording {
			var b byte
			if desynced {
				b = 1
			}
			fd.parsed = append(fd.parsed, b)
		}
		if fd.o != nil && desynced {
			fd.o.Counter(obs.CtrResync, fd.video.Params.Entropy.String(), 1)
		}
	}
}

// Reanalyze rebuilds the per-macroblock analysis records (bit ranges and
// dependency footprints) of every frame by decoding the video, replacing
// v.Frames[i].MBs in place. This is how VideoApp operates on videos it did
// not encode itself — e.g. ones loaded with Unmarshal. Dependencies are
// exact for clean streams; CABAC bit ranges are attribution estimates
// accurate to the arithmetic decoder's few-bit lookahead.
func Reanalyze(v *Video) error {
	if v.W%frame.MBSize != 0 || v.H%frame.MBSize != 0 || v.W <= 0 || v.H <= 0 {
		return errFrameGeometry(v.W, v.H)
	}
	rec := make([]*frame.Frame, len(v.Frames))
	fd := newFrameDecoder(v, rec, nil)
	fd.record = true
	for i, ef := range v.Frames {
		rec[i] = fd.decode(i)
		ef.MBs = fd.recs
	}
	// The reconstructions never leave Reanalyze; recycle their planes.
	for _, r := range rec {
		frame.Recycle(r)
	}
	return nil
}

func clampRange(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// parseMB is the parse stage: it reads macroblock (mx, my) from the entropy
// stream into s — every value range-checked and clamped, so s is well-formed
// whatever the bits were — and advances the vector-prediction state the next
// macroblock's parse reads (the quantizer map is the reconstruct stage's: the
// deblocking filter needs it on replay too). It touches no sample.
func (fd *frameDecoder) parseMB(mx, my int, s *mbSyntax) {
	mbCols := fd.rec.MBCols()
	mbIdx := my*mbCols + mx
	predMV := mvPrediction(fd.mvRep, fd.mvAvail, mx, my, mbCols, fd.sliceTop)

	mbType := mbIntra
	if fd.ef.Type != FrameI {
		mbType = int(fd.sr.GetUVal(entropy.ClassMBType)) % numMBTypes
	}
	// A frame without a forward reference cannot code inter MBs; corrupt
	// types collapse to intra, keeping decode well-defined.
	if mbType != mbIntra && fd.refF == nil {
		mbType = mbIntra
	}
	s.setType(mbType)
	s.res.nz = 0

	switch mbType {
	case mbSkip:
		// A skipped MB is its prediction from the median vector: no coded
		// vector, no delta-QP, no residual.
		s.qp = qpPrediction(fd.qps, mx, my, mbCols, fd.ef.BaseQP, fd.sliceTop)
		s.motion.mvF[0] = predMV
	case mbIntra:
		s.mode = predict.IntraMode(int(fd.sr.GetUVal(entropy.ClassIntraMode)) % predict.NumIntraModes)
		s.qp = fd.parseQP(mx, my)
		fd.parseResidual(&s.res)
	default:
		m := &s.motion
		prevMV := predMV
		for i := range m.rects {
			dir := dirFwd
			if fd.ef.Type == FrameB {
				dir = int(fd.sr.GetUVal(entropy.ClassRefIdx)) % 3
				if fd.refB == nil && dir != dirFwd {
					dir = dirFwd
				}
			}
			m.dirs[i] = dir
			switch dir {
			case dirBwd:
				d := fd.readMVD()
				m.mvB[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = m.mvB[i]
			case dirBi:
				dF := fd.readMVD()
				m.mvF[i] = predict.ClampMV(prevMV.Add(dF))
				dB := fd.readMVD()
				m.mvB[i] = predict.ClampMV(m.mvF[i].Add(dB))
				prevMV = m.mvF[i]
			default:
				d := fd.readMVD()
				m.mvF[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = m.mvF[i]
			}
		}
		s.qp = fd.parseQP(mx, my)
		fd.parseResidual(&s.res)
	}
	fd.mvAvail[mbIdx] = mbType != mbIntra
	if mbType != mbIntra {
		fd.mvRep[mbIdx] = s.motion.first()
	}
}

// reconstruct is the reconstruct stage: it writes macroblock (mx, my) of the
// frame from s — the prediction into the frame, then the residual added in
// place — whether s was just parsed or read back from a record, and notes the
// quantizer for the next macroblock's prediction and the deblocking filter.
func (fd *frameDecoder) reconstruct(mx, my int, s *mbSyntax) {
	switch s.mbType {
	case mbIntra:
		hasAbove, hasLeft := my > fd.sliceTop, mx > 0
		intraPredict(fd.rec, mx, my, s.mode, hasAbove, hasLeft)
		if fd.record && fd.curRec != nil {
			fd.curRec.Intra = true
			var buf [2]predict.WeightedRef
			for _, wr := range predict.IntraFootprintAvail(buf[:0], mx, my, s.mode, hasAbove, hasLeft) {
				fd.curRec.Deps = append(fd.curRec.Deps, CompDep{SrcFrame: fd.ef.CodedIdx, SrcMB: wr.MB, Pixels: wr.Pixels})
			}
		}
	default:
		interPredict(fd.rec, fd.refF, fd.refB, mx, my, &s.motion, fd.video.Params.HalfPel)
		if fd.record && fd.curRec != nil {
			fd.curRec.Deps = appendMotionDeps(fd.curRec.Deps, fd.ef, fd.rec.W, fd.rec.H, mx, my, &s.motion, fd.video.Params.HalfPel)
		}
	}
	fd.qps[my*fd.rec.MBCols()+mx] = s.qp
	addResidual(fd.rec, mx, my, &s.res, s.qp)
	if fd.record && fd.curRec != nil {
		fd.curRec.QP = s.qp
	}
}

func (fd *frameDecoder) readMVD() predict.MV {
	x := fd.sr.GetSVal(entropy.ClassMVX)
	y := fd.sr.GetSVal(entropy.ClassMVY)
	return predict.ClampMV(predict.MV{X: clamp16(x), Y: clamp16(y)})
}

func clamp16(v int32) int16 {
	if v > 1<<14 {
		return 1 << 14
	}
	if v < -(1 << 14) {
		return -(1 << 14)
	}
	return int16(v)
}

// parseQP reads the macroblock's delta-QP and returns the quantizer it
// selects against the median prediction.
func (fd *frameDecoder) parseQP(mx, my int) int {
	dqp := int(fd.sr.GetSVal(entropy.ClassDQP))
	if dqp > transform.MaxQP {
		dqp = transform.MaxQP
	}
	if dqp < -transform.MaxQP {
		dqp = -transform.MaxQP
	}
	pred := qpPrediction(fd.qps, mx, my, fd.rec.MBCols(), fd.ef.BaseQP, fd.sliceTop)
	return transform.ClampQP(pred + dqp)
}

// parseResidual reads the macroblock's coded-block flag and, when set, its
// 24 residual blocks.
func (fd *frameDecoder) parseResidual(res *mbResidual) {
	if fd.sr.GetFlag(entropy.ClassCBP) {
		for b := range res.blocks {
			if readResidualBlock(fd.sr, &res.blocks[b]) {
				res.nz |= 1 << uint(b)
			}
		}
	}
}
