package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// rampPan is a horizontal pan of dx pixels per frame over a smooth luminance
// ramp with a little per-frame noise: the ramp lets the encoder's descent
// search follow the motion as far as its range allows, in both directions,
// and the noise makes the average of two references beat either alone — so
// B frames come out full of bi-predicted partitions with opposing vectors.
func rampPan(w, h, frames, dx int) *frame.Sequence {
	rng := rand.New(rand.NewSource(5))
	seq := &frame.Sequence{Name: "ramp_pan", FPS: 30}
	for i := 0; i < frames; i++ {
		f := frame.MustNew(w, h)
		f.Fill(0, 128, 128)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = frame.ClampU8(20 + (x+i*dx)*215/(w+frames*dx) + (y%32)/4 + rng.Intn(13) - 6)
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
	seq := rampPan(320, 176, 7, 40)
	p := testParams()
	p.GOPSize = 6
	p.BFrames = 1
	p.SearchRange = 48
	v, encRecs, err := encodeRecs(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	bi := 0
	for _, ef := range v.Frames {
		if ef.Type == FrameB {
			bi++
		}
	}
	if bi == 0 {
		t.Fatal("no B frame coded: the test exercises nothing")
	}
	decRecs, err := decodeCoded(v, DecodeOptions{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range encRecs {
		got := decRecs[i]
		if !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.Cb, want.Cb) || !bytes.Equal(got.Cr, want.Cr) {
			t.Errorf("coded frame %d (%s): decoded planes differ from the encoder's reconstruction", i, v.Frames[i].Type)
		}
	}
}
