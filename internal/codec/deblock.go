package codec

import "videoapp/internal/frame"

// In-loop deblocking, a simplified version of the H.264 filter: after a
// frame is fully reconstructed, block edges on the 4×4 grid are smoothed
// when the discontinuity across the edge is small enough to be quantization
// blocking (large discontinuities are real content edges and are left
// alone). The filter runs identically in the encoder and the decoder, so
// reconstructed references stay bit-exact between them.
//
// Thresholds follow the H.264 idea of scaling with QP: stronger quantization
// produces stronger blocking, so more filtering is allowed.

// deblockThresholds returns the edge-detection (alpha) and sample-clip
// (beta) thresholds for a quantizer.
func deblockThresholds(qp int) (alpha, beta int) {
	// Piecewise-exponential ramps, clamped like the H.264 tables.
	a := 2 + qp*qp/24
	if a > 255 {
		a = 255
	}
	b := 1 + qp/4
	if b > 18 {
		b = 18
	}
	return a, b
}

// deblockFrame filters all 4×4 luma edges of rec in place. qps holds the
// per-macroblock quantizers used for reconstruction; the thresholds are
// looked up once per run of samples sharing a macroblock, not per sample.
func deblockFrame(rec *frame.Frame, qps []int, mbCols int) {
	// Vertical edges (filtering across columns), then horizontal edges.
	// Samples are visited in raster order within each pass: the filter
	// works in place, so the order is part of the bitstream's meaning.
	for y := 0; y < rec.H; y++ {
		for mbx := 0; mbx < mbCols; mbx++ {
			alpha, beta := deblockThresholds(qps[(y/frame.MBSize)*mbCols+mbx])
			for x := mbx * frame.MBSize; x < (mbx+1)*frame.MBSize; x += 4 {
				if x > 0 {
					filterEdge(rec, x, y, 1, 0, alpha, beta)
				}
			}
		}
	}
	for y := 4; y < rec.H; y += 4 {
		for mbx := 0; mbx < mbCols; mbx++ {
			alpha, beta := deblockThresholds(qps[(y/frame.MBSize)*mbCols+mbx])
			for x := mbx * frame.MBSize; x < (mbx+1)*frame.MBSize; x++ {
				filterEdge(rec, x, y, 0, 1, alpha, beta)
			}
		}
	}
}

// filterEdge smooths one sample pair across an edge at (x, y); (dx, dy) is
// the direction across the edge, alpha and beta the thresholds of the
// macroblock holding (x, y).
func filterEdge(rec *frame.Frame, x, y, dx, dy, alpha, beta int) {
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

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
