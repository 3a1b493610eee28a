package codec

import (
	"context"
	"testing"

	"videoapp/internal/quality"
)

// TestDeblockEncodeDecodeConsistency: the filter runs in the reconstruction
// loop; the decoder reproduces the encoder's reconstruction of every golden
// deblocked design point.
func TestDeblockEncodeDecodeConsistency(t *testing.T) {
	checkCorpusRecs(t, func(p Params) bool { return p.Deblock })
}

func TestDeblockChangesOutput(t *testing.T) {
	seq := testSeq(t, "news_like", 96, 64, 6)
	p := testParams()
	p.CRF = 36 // strong quantization produces blocking to filter
	v1, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Deblock = true
	v2, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := DecodeContext(context.Background(), v1, DecodeOptions{}, 1)
	d2, _ := DecodeContext(context.Background(), v2, DecodeOptions{}, 1)
	diff := 0
	for i := range d1.Frames[0].Y {
		if d1.Frames[0].Y[i] != d2.Frames[0].Y[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("deblocking must change the reconstruction at high QP")
	}
}

func TestDeblockDoesNotHurtQualityMuch(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 8)
	measure := func(deblock bool) float64 {
		p := testParams()
		p.CRF = 32
		p.Deblock = deblock
		_, dec := encodeDecode(t, seq, p)
		psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
		return psnr
	}
	off, on := measure(false), measure(true)
	if on < off-0.5 {
		t.Fatalf("deblocking cost %.2f dB (off %.2f, on %.2f)", off-on, off, on)
	}
}

// TestDeblockSurvivesCorruption: every damaged golden deblocked stream
// decodes to the reference decoder's pictures.
func TestDeblockSurvivesCorruption(t *testing.T) {
	parseVariants(t, func(dv *decodeVariant) bool { return dv.name != "clean" && dv.v.Params.Deblock })
}

func TestDeblockContainerFlag(t *testing.T) {
	checkContainerRoundTrip(t, func(p Params) bool { return p.Deblock })
}

func TestDeblockThresholdsMonotone(t *testing.T) {
	lastA, lastB := 0, 0
	for qp := 0; qp <= 51; qp++ {
		a, b := deblockThresholds(qp)
		if a < lastA || b < lastB {
			t.Fatalf("thresholds must grow with QP (qp=%d)", qp)
		}
		lastA, lastB = a, b
	}
}

func TestDeblockPreservesRealEdges(t *testing.T) {
	// A strong step edge must not be smoothed away.
	f := testSeq(t, "news_like", 64, 48, 1).Frames[0]
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			if x < 32 {
				f.Y[y*64+x] = 30
			} else {
				f.Y[y*64+x] = 220
			}
		}
	}
	qps := make([]int, (64/16)*(48/16))
	for i := range qps {
		qps[i] = 30
	}
	deblockFrame(f, qps, 4)
	if f.LumaAt(31, 10) != 30 || f.LumaAt(32, 10) != 220 {
		t.Fatalf("real edge was filtered: %d / %d", f.LumaAt(31, 10), f.LumaAt(32, 10))
	}
}
