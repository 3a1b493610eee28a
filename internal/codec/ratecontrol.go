package codec

import (
	"fmt"

	"videoapp/internal/frame"
	"videoapp/internal/transform"
)

// Average-bitrate (ABR) rate control: instead of the fixed CRF→QP mapping,
// the encoder tracks a virtual buffer of produced-vs-budgeted bits and
// nudges the quantizer to hold a target bitrate — the second of the two
// rate-control styles the paper's §6.3 discussion contrasts with CRF.

// RateControl configures ABR encoding.
type RateControl struct {
	// TargetBitsPerFrame is the bit budget per coded frame.
	TargetBitsPerFrame int64
	// MaxQPDelta bounds how far the controller may move the quantizer away
	// from the CRF baseline in either direction.
	MaxQPDelta int
}

// EncodeABR encodes with closed-loop rate control toward the target
// bitrate (bits per second at the sequence's frame rate). The CRF in p
// seeds the quantizer; the controller then adapts it frame by frame.
func EncodeABR(seq *frame.Sequence, p Params, targetBitsPerSecond int64) (*Video, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(seq.Frames) == 0 {
		return nil, fmt.Errorf("codec: empty sequence")
	}
	if targetBitsPerSecond <= 0 {
		return nil, fmt.Errorf("codec: target bitrate must be positive")
	}
	fps := seq.FPS
	if fps <= 0 {
		fps = 25
	}
	rc := RateControl{
		TargetBitsPerFrame: targetBitsPerSecond / int64(fps),
		MaxQPDelta:         8,
	}
	if p.BFrames != 0 {
		return nil, fmt.Errorf("codec: ABR requires BFrames == 0")
	}

	w, h := seq.W(), seq.H()
	if err := checkGeometry(w, h); err != nil {
		return nil, err
	}
	v := &Video{Params: p, W: w, H: h, FPS: seq.FPS}
	rec := make([]*frame.Frame, len(seq.Frames))
	// The controller acts through each frame's BaseQP alone; nothing else
	// the frame encoder reads depends on CRF.
	fe := newFrameEncoder(p, w, h, rec)
	var debt int64 // bits produced minus budget so far
	qpAdj := 0
	for d := 0; d < len(seq.Frames); d++ {
		ft := FrameP
		if d%p.GOPSize == 0 {
			ft = FrameI
		}
		ef := &EncodedFrame{Type: ft, CodedIdx: d, DisplayIdx: d, RefFwd: -1, RefBwd: -1}
		params := p
		params.CRF = transform.ClampQP(p.CRF + qpAdj)
		ef.BaseQP = baseQPFor(ft, params)
		if ft == FrameP {
			ef.RefFwd = d - 1
		}
		rec[d] = fe.encode(ef, seq.Frames[d])
		v.Frames = append(v.Frames, ef)

		// Proportional controller on the accumulated debt: one QP step per
		// half-frame-budget of debt, bounded by MaxQPDelta. I frames are
		// budgeted at 4x a P frame's share, the conventional ratio.
		budget := rc.TargetBitsPerFrame
		if ft == FrameI {
			budget *= 4
		}
		debt += ef.PayloadBits() - budget
		qpAdj = int(debt / max(rc.TargetBitsPerFrame/2, 1))
		if qpAdj > rc.MaxQPDelta {
			qpAdj = rc.MaxQPDelta
		}
		if qpAdj < -rc.MaxQPDelta {
			qpAdj = -rc.MaxQPDelta
		}
	}
	fe.release()
	// Reconstructed frames never leave EncodeABR; recycle their planes.
	for _, r := range rec {
		frame.Recycle(r)
	}
	return v, nil
}
