package codec

import (
	"context"
	"fmt"
	"slices"

	"videoapp/internal/bitio"
	"videoapp/internal/frame"
	"videoapp/internal/transform"
)

// SNR-scalable (layered) coding, the extension sketched in the paper's
// related-work discussion: "videos could be also encoded in a layered way,
// where each layer refines the quality produced by the previous... Our work
// focuses on approximation within a layer, and is trivially extensible to
// multiple layers by adding another dimension of approximation."
//
// The base layer is an ordinary Video. The enhancement layer codes, per
// frame, the residual between the source and the base reconstruction at a
// finer quantizer. Crucially, the prediction loop uses only base-layer
// reconstructions (MPEG-2-style SNR scalability without drift), so
// enhancement bits are never referenced by anything: an error there damages
// exactly one frame's refinement — the maximally approximable class.

// LayeredVideo is a base layer plus an optional enhancement layer.
type LayeredVideo struct {
	Base *Video
	// EnhQPDelta is subtracted from each macroblock's base QP to form the
	// enhancement quantizer.
	EnhQPDelta int
	// Enh[i] is the enhancement payload for coded frame i.
	Enh [][]byte
	// EnhMBs[i] are the enhancement bit ranges per macroblock (scan order),
	// the analysis records for the enhancement dimension.
	EnhMBs [][]MBRecord
}

// EncodeLayered produces a two-layer encoding: p configures the base layer,
// enhQPDelta (> 0) how much finer the enhancement quantizer is.
func EncodeLayered(seq *frame.Sequence, p Params, enhQPDelta int) (*LayeredVideo, error) {
	if enhQPDelta < 1 || enhQPDelta > 20 {
		return nil, fmt.Errorf("codec: enhancement QP delta %d outside 1..20", enhQPDelta)
	}
	// The encoder's reconstructions are what a decoder of the base layer
	// reproduces sample for sample; the refinement codes against them.
	base, baseRecs, err := encodeRecs(seq, p)
	defer func() {
		for _, r := range baseRecs {
			frame.Recycle(r)
		}
	}()
	if err != nil {
		return nil, err
	}
	lv := &LayeredVideo{Base: base, EnhQPDelta: enhQPDelta}
	for i, ef := range base.Frames {
		orig := seq.Frames[ef.DisplayIdx]
		payload, mbs := encodeEnhFrame(orig, baseRecs[i], ef, p, enhQPDelta)
		lv.Enh = append(lv.Enh, payload)
		lv.EnhMBs = append(lv.EnhMBs, mbs)
	}
	return lv, nil
}

// encodeEnhFrame codes the luma refinement residual of one frame.
func encodeEnhFrame(orig, baseRec *frame.Frame, ef *EncodedFrame, p Params, delta int) ([]byte, []MBRecord) {
	w := bitio.NewWriter()
	sw := newSymbolWriter(p.Entropy, w)
	mbCols, mbRows := orig.MBCols(), orig.MBRows()
	mbs := make([]MBRecord, 0, mbCols*mbRows)
	for my := 0; my < mbRows; my++ {
		for mx := 0; mx < mbCols; mx++ {
			start := sw.BitPos()
			mbQP := ef.BaseQP
			if idx := my*mbCols + mx; idx < len(ef.MBs) {
				mbQP = int(ef.MBs[idx].QP)
			}
			qp := transform.ClampQP(mbQP - delta)
			mo := my*frame.MBSize*orig.W + mx*frame.MBSize
			for b := 0; b < lumaBlocks; b++ {
				o := mo + (b>>2)*4*orig.W + (b&3)*4
				var lv transform.Block
				nnz := transform.ForwardQuantize(&lv, orig.Y[o:], orig.W, baseRec.Y[o:], baseRec.W, qp, false)
				writeResidualBlock(sw, &lv, nnz)
			}
			mbs = append(mbs, MBRecord{
				MB:       int32(my*mbCols + mx),
				BitStart: start,
				BitLen:   int32(sw.BitPos() - start),
				QP:       int8(qp),
			})
		}
	}
	sw.Flush()
	if n := len(mbs); n > 0 {
		mbs[n-1].BitLen = int32(int64(w.Len())*8 - mbs[n-1].BitStart)
	}
	return w.Bytes(), mbs
}

// DecodeLayered decodes the base layer with DecodeContext (one worker)
// and applies the enhancement refinements. Corrupt enhancement payloads
// damage only their own frame's refinement; the base reconstruction is
// untouched.
func DecodeLayered(ctx context.Context, lv *LayeredVideo) (*frame.Sequence, error) {
	if len(lv.Enh) != len(lv.Base.Frames) {
		return nil, fmt.Errorf("codec: %d enhancement frames for %d base frames", len(lv.Enh), len(lv.Base.Frames))
	}
	seq, err := DecodeContext(ctx, lv.Base, DecodeOptions{}, 1)
	if err != nil {
		return nil, err
	}
	// Refine into a copy of the frame list: a display slot no frame claims
	// stays the blank base picture, and each refinement reads the base
	// picture, never another frame's refinement.
	enhanced := slices.Clone(seq.Frames)
	for i, ef := range lv.Base.Frames {
		d := ef.DisplayIdx
		enhanced[d] = applyEnhFrame(seq.Frames[d], lv.Enh[i], ef, lv.Base.Params, lv.EnhQPDelta)
	}
	seq.Frames = enhanced
	return seq, nil
}

func applyEnhFrame(baseRec *frame.Frame, payload []byte, ef *EncodedFrame, p Params, delta int) *frame.Frame {
	rec := baseRec.Clone()
	sr := newSymbolReader(p.Entropy, bitio.NewReader(payload))
	mbCols, mbRows := rec.MBCols(), rec.MBRows()
	var lv transform.Block
	for my := 0; my < mbRows; my++ {
		for mx := 0; mx < mbCols; mx++ {
			// Containers do not persist MB records; fall back to the frame
			// base QP (Reanalyze restores the exact per-MB values).
			mbQP := ef.BaseQP
			if idx := my*mbCols + mx; idx < len(ef.MBs) {
				mbQP = int(ef.MBs[idx].QP)
			}
			qp := transform.ClampQP(mbQP - delta)
			for b := 0; b < lumaBlocks; b++ {
				if !readResidualBlock(sr, &lv) {
					continue // no level: the base reconstruction stands
				}
				// The refinement adds onto the base reconstruction in place.
				bx, by := b&3, b>>2
				blk := rec.Y[(my*frame.MBSize+by*4)*rec.W+mx*frame.MBSize+bx*4:]
				transform.ReconstructAdd(blk, rec.W, blk, rec.W, &lv, qp)
			}
		}
	}
	return rec
}

// EnhBits returns the total enhancement payload size in bits.
func (lv *LayeredVideo) EnhBits() int64 {
	var n int64
	for _, p := range lv.Enh {
		n += int64(len(p)) * 8
	}
	return n
}
