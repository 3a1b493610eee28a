package codec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/quality"
)

func TestHalfPelEncodeDecodeConsistency(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 12)
	p := testParams()
	p.HalfPel = true
	_, dec := encodeDecode(t, seq, p)
	psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
	if psnr < 28 {
		t.Fatalf("half-pel decode PSNR %.2f dB", psnr)
	}
	// The real drift check: the last frame of the P chain.
	last, _ := quality.PSNRFrame(seq.Frames[11], dec.Frames[11])
	if last < 26 {
		t.Fatalf("half-pel chain drifted: final frame %.2f dB", last)
	}
}

func TestHalfPelImprovesSubPixelMotion(t *testing.T) {
	// Shaky content with fractional effective motion: half-pel compensation
	// should spend fewer bits and/or deliver better quality. Compare the
	// rate-distortion product rather than either alone.
	seq := testSeq(t, "handheld_like", 96, 64, 10)
	score := func(halfpel bool) (float64, int64) {
		p := testParams()
		p.HalfPel = halfpel
		v, err := encode(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
		return psnr, v.TotalPayloadBits()
	}
	p0, b0 := score(false)
	p1, b1 := score(true)
	t.Logf("full-pel: %.2f dB / %d bits; half-pel: %.2f dB / %d bits", p0, b0, p1, b1)
	// Half-pel must not be strictly worse on both axes.
	if p1 < p0-0.05 && b1 > b0 {
		t.Fatalf("half-pel worse on both rate and distortion")
	}
}

func TestHalfPelContainerRoundTrip(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 5)
	p := testParams()
	p.HalfPel = true
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Params.HalfPel {
		t.Fatal("half-pel flag lost")
	}
	a, _ := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	b, _ := DecodeContext(context.Background(), got, DecodeOptions{}, 1)
	for i := range a.Frames {
		for j := range a.Frames[i].Y {
			if a.Frames[i].Y[j] != b.Frames[i].Y[j] {
				t.Fatal("container decode differs")
			}
		}
	}
}

func TestHalfPelReanalyzeRecoversDeps(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 6)
	p := testParams()
	p.HalfPel = true
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(stripped); err != nil {
		t.Fatal(err)
	}
	for fi, ef := range v.Frames {
		for mi := range ef.MBs {
			got, want := stripped.Frames[fi].MBDeps(mi), ef.MBDeps(mi)
			if len(got) != len(want) {
				t.Fatalf("frame %d MB %d: %d deps vs %d", fi, mi, len(got), len(want))
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("frame %d MB %d dep %d: %+v vs %+v", fi, mi, d, got[d], want[d])
				}
			}
		}
	}
}

func TestHalfPelCorruptionSafety(t *testing.T) {
	seq := testSeq(t, "sports_like", 64, 48, 5)
	p := testParams()
	p.HalfPel = true
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		c := v.Clone()
		for _, f := range c.Frames {
			bitio.FlipBit(f.Payload, int64(trial*53)%f.PayloadBits())
		}
		if _, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHalfPelAnalysisMonotone(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 8)
	p := testParams()
	p.HalfPel = true
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	// Dependencies must stay in-range and pixel counts conserved per MB.
	for _, f := range v.Frames {
		for m := range f.MBs {
			for _, d := range f.MBDeps(m) {
				if d.Pixels <= 0 || d.Pixels > 256 {
					t.Fatalf("dep pixels %d", d.Pixels)
				}
				if d.SrcMB < 0 || int(d.SrcMB) >= v.MBCols()*v.MBRows() {
					t.Fatalf("dep MB out of range: %+v", d)
				}
			}
		}
	}
}

// texturedPan is a textured picture panning by (dx, dy) pixels per frame:
// every frame is a window onto one large noise-plus-structure canvas, so
// whole-pixel motion compensation is exact wherever the window overlaps.
func texturedPan(w, h, frames, dx, dy int) *frame.Sequence {
	cw, ch := w+frames*abs(dx), h+frames*abs(dy)
	canvas := make([]uint8, cw*ch)
	rng := rand.New(rand.NewSource(91))
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			v := 128 + 60*math.Sin(float64(x)*0.21)*math.Cos(float64(y)*0.17) + float64(rng.Intn(41)-20)
			canvas[y*cw+x] = frame.ClampU8(int(v))
		}
	}
	seq := &frame.Sequence{Name: "textured_pan", FPS: 30}
	for i := 0; i < frames; i++ {
		f := frame.MustNew(w, h)
		f.Fill(0, 128, 128)
		ox, oy := i*abs(dx), i*abs(dy)
		if dx < 0 {
			ox = (frames - 1 - i) * abs(dx)
		}
		if dy < 0 {
			oy = (frames - 1 - i) * abs(dy)
		}
		for y := 0; y < h; y++ {
			copy(f.Y[y*w:(y+1)*w], canvas[(oy+y)*cw+ox:])
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq
}

// TestHalfPelLargeMotionDoesNotDrift: half-pel vectors travel in the same
// ±MaxMV units as full-pel ones, so they reach half as far. A pan faster than
// that reach, searched with a range that would cover it, used to make the
// encoder code vectors the decoder saturates: the two reconstructions parted
// and the clean decode collapsed (19 dB against 39 dB without HalfPel).
// Inside the decoder's range the encoder predicts worse but decodes to what
// it reconstructed, which the quantizer alone determines.
func TestHalfPelLargeMotionDoesNotDrift(t *testing.T) {
	seq := texturedPan(320, 176, 4, 44, 0)
	psnr := func(halfPel bool) float64 {
		p := testParams()
		p.GOPSize = 4
		p.SearchRange = predict.MaxMV
		p.HalfPel = halfPel
		_, dec := encodeDecode(t, seq, p)
		v, err := quality.PSNRContext(context.Background(), seq, dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	full, half := psnr(false), psnr(true)
	t.Logf("44 px/frame pan, range %d: full-pel %.2f dB, half-pel %.2f dB", predict.MaxMV, full, half)
	// Drift costs several dB within a few frames; the two predictions alone
	// move the result by hundredths.
	if half < full-0.5 {
		t.Fatalf("half-pel clean decode %.2f dB against full-pel %.2f dB: encoder and decoder disagree on large vectors", half, full)
	}
}
