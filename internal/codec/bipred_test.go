package codec

import (
	"math/rand"
	"slices"
	"testing"

	"videoapp/internal/frame"
)

// opposedPan is a horizontal luminance ramp with per-frame noise whose top
// half pans dx pixels a frame one way and bottom half the other: the descent
// search follows the ramp as far as its range allows, the noise fills B
// frames with bi-predicted partitions of opposing vectors, and the bottom
// half's first macroblock row predicts its vectors from the opposite motion.
func opposedPan(w, h, frames, dx int) *frame.Sequence {
	rng := rand.New(rand.NewSource(5))
	seq := &frame.Sequence{Name: "opposed_pan", FPS: 30}
	for i := 0; i < frames; i++ {
		f := frame.MustNew(w, h)
		f.Fill(0, 128, 128)
		for y := 0; y < h; y++ {
			off := i * dx
			if y >= h/2 {
				off = (frames - 1 - i) * dx
			}
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = frame.ClampU8(20 + (x+off)*215/(w+frames*dx) + (y%32)/4 + rng.Intn(13) - 6)
			}
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq
}

// TestBiPredLargeRangeMatchesEncoderReconstruction: a bi-predicted partition
// codes its backward vector as a difference from its forward one, and the
// decoder saturates every coded difference to ±MaxMV. Two full-pel searches
// of range > MaxMV/2 can land further apart than that — a B frame between
// anchors of a fast pan has opposing vectors — and the encoder used to code
// the pair anyway: the decoder then compensated from a different vector than
// the encoder had reconstructed with. The decoded planes must be the
// encoder's reconstruction, sample for sample.
func TestBiPredLargeRangeMatchesEncoderReconstruction(t *testing.T) {
	p := testParams()
	p.GOPSize = 6
	p.BFrames = 1
	p.SearchRange = 48
	v, recs, err := encodeRecs(opposedPan(96, 64, 3, 40), p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(v.Frames, func(ef *EncodedFrame) bool { return ef.Type == FrameB }) {
		t.Fatal("no B frame coded: the test exercises nothing")
	}
	if _, err := encoderRecsDiff(v, recs); err != nil {
		t.Fatalf("40 px/frame opposed pan: %v", err)
	}
}
