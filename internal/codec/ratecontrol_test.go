package codec

import (
	"context"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/quality"
)

func TestABRHitsTargetBitrate(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 30)
	p := testParams()
	p.GOPSize = 30
	// Pick a target near what CRF 24 produces so the controller has a
	// reachable setpoint, then verify convergence within a factor.
	ref, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	natural := ref.TotalPayloadBits() * int64(seq.FPS) / int64(len(seq.Frames))
	for _, scale := range []int64{2, 1, 2} {
		target := natural / scale
		v, err := EncodeABR(seq, p, target)
		if err != nil {
			t.Fatal(err)
		}
		got := v.TotalPayloadBits() * int64(seq.FPS) / int64(len(seq.Frames))
		ratio := float64(got) / float64(target)
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("target %d bps, got %d bps (ratio %.2f)", target, got, ratio)
		}
	}
}

func TestABRLowerTargetFewerBits(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 20)
	p := testParams()
	p.GOPSize = 20
	hi, err := EncodeABR(seq, p, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := EncodeABR(seq, p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if lo.TotalPayloadBits() >= hi.TotalPayloadBits() {
		t.Fatalf("low target %d bits >= high target %d bits",
			lo.TotalPayloadBits(), hi.TotalPayloadBits())
	}
}

func TestABRDecodes(t *testing.T) {
	seq := testSeq(t, "news_like", 96, 64, 12)
	p := testParams()
	v, err := EncodeABR(seq, p, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
	if psnr < 25 {
		t.Fatalf("ABR decode PSNR %.2f dB", psnr)
	}
}

func TestABRRejectsBadConfig(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 3)
	if _, err := EncodeABR(seq, testParams(), 0); err == nil {
		t.Fatal("zero bitrate must fail")
	}
	p := testParams()
	p.BFrames = 2
	if _, err := EncodeABR(seq, p, 100000); err == nil {
		t.Fatal("B frames must be rejected")
	}
	if _, err := EncodeABR(&frame.Sequence{}, testParams(), 100000); err == nil {
		t.Fatal("empty sequence must fail")
	}
}

func TestABRAnalysisCompatible(t *testing.T) {
	// ABR output must flow through the VideoApp analysis like any encode.
	seq := testSeq(t, "crew_like", 64, 48, 8)
	p := testParams()
	p.GOPSize = 8
	v, err := EncodeABR(seq, p, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range v.Frames {
		if len(f.MBs) != v.MBCols()*v.MBRows() {
			t.Fatal("MB records missing")
		}
	}
}
