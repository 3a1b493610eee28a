package codec

import (
	"context"
	"testing"

	"videoapp/internal/predict"
	"videoapp/internal/quality"
)

// TestHalfPelEncodeDecodeConsistency: the decoder reproduces the encoder's
// reconstruction of every golden half-pel design point, so no 6-tap
// interpolation mismatch can drift along a P chain.
func TestHalfPelEncodeDecodeConsistency(t *testing.T) {
	checkCorpusRecs(t, func(p Params) bool { return p.HalfPel })
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
	checkContainerRoundTrip(t, func(p Params) bool { return p.HalfPel })
}

func TestHalfPelReanalyzeRecoversDeps(t *testing.T) {
	checkReanalyzeRecovers(t, func(p Params) bool { return p.HalfPel })
}

// TestHalfPelCorruptionSafety: every damaged golden half-pel stream decodes
// to the reference decoder's pictures.
func TestHalfPelCorruptionSafety(t *testing.T) {
	parseVariants(t, func(dv *decodeVariant) bool { return dv.name != "clean" && dv.v.Params.HalfPel })
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

// TestHalfPelLargeMotionDoesNotDrift: half-pel vectors and their
// differences from the prediction travel in the same ±MaxMV units as
// full-pel ones, so they reach half as far. A pan faster than that reach,
// searched with a range that would cover it, or a prediction from the
// opposite motion, must not make the encoder code vectors the decoder
// saturates: the decode must be what the encoder reconstructed.
func TestHalfPelLargeMotionDoesNotDrift(t *testing.T) {
	p := testParams()
	p.GOPSize = 4
	p.SearchRange = predict.MaxMV
	p.HalfPel = true
	v, recs, err := encodeRecs(opposedPan(96, 32, 3, 44), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encoderRecsDiff(v, recs); err != nil {
		t.Fatalf("44 px/frame opposed pan: %v", err)
	}
}
