package codec

import (
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/quality"
)

func TestLayeredImprovesOnBase(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 8)
	p := testParams()
	p.CRF = 30
	lv, err := EncodeLayered(seq, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	base, err := DecodeContext(context.Background(), lv.Base, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	enhanced, err := DecodeLayered(context.Background(), lv)
	if err != nil {
		t.Fatal(err)
	}
	pBase, _ := quality.PSNRContext(context.Background(), seq, base, 1)
	pEnh, _ := quality.PSNRContext(context.Background(), seq, enhanced, 1)
	if pEnh <= pBase+0.5 {
		t.Fatalf("enhancement adds only %.2f dB (base %.2f)", pEnh-pBase, pBase)
	}
}

func TestLayeredRejectsBadDelta(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 3)
	if _, err := EncodeLayered(seq, testParams(), 0); err == nil {
		t.Fatal("delta 0 must fail")
	}
	if _, err := EncodeLayered(seq, testParams(), 30); err == nil {
		t.Fatal("delta 30 must fail")
	}
}

func TestEnhancementErrorsStayInFrame(t *testing.T) {
	// The layered design's whole point: corrupting one frame's enhancement
	// cannot damage any other frame (no frame references enhanced pixels).
	seq := testSeq(t, "crew_like", 96, 64, 8)
	p := testParams()
	p.CRF = 30
	lv, err := EncodeLayered(seq, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := DecodeLayered(context.Background(), lv)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt frame 3's enhancement heavily.
	damagedEnh := append([]byte(nil), lv.Enh[3]...)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 50; k++ {
		bitio.FlipBit(damagedEnh, rng.Int63n(int64(len(damagedEnh))*8))
	}
	orig3 := lv.Enh[3]
	lv.Enh[3] = damagedEnh
	corrupt, err := DecodeLayered(context.Background(), lv)
	if err != nil {
		t.Fatal(err)
	}
	lv.Enh[3] = orig3
	damagedDisplay := lv.Base.Frames[3].DisplayIdx
	for d := range clean.Frames {
		same := true
		for i := range clean.Frames[d].Y {
			if clean.Frames[d].Y[i] != corrupt.Frames[d].Y[i] {
				same = false
				break
			}
		}
		if d == damagedDisplay && same {
			t.Fatal("heavy corruption must damage the refined frame")
		}
		if d != damagedDisplay && !same {
			t.Fatalf("enhancement error leaked into frame %d", d)
		}
	}
}

func TestEnhancementMBRecordsCoverPayload(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 64, 48, 4)
	lv, err := EncodeLayered(seq, testParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, mbs := range lv.EnhMBs {
		var total int64
		for _, mb := range mbs {
			if mb.BitLen < 0 {
				t.Fatal("negative length")
			}
			total += int64(mb.BitLen)
		}
		if total != int64(len(lv.Enh[i]))*8 {
			t.Fatalf("frame %d: records cover %d of %d bits", i, total, len(lv.Enh[i])*8)
		}
	}
}

func TestLayeredBaseUnchanged(t *testing.T) {
	// The base layer of a layered encode must be bit-identical to a plain
	// encode: the enhancement is strictly additive.
	seq := testSeq(t, "news_like", 64, 48, 5)
	p := testParams()
	plain, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := EncodeLayered(seq, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Frames {
		a, b := plain.Frames[i].Payload, lv.Base.Frames[i].Payload
		if len(a) != len(b) {
			t.Fatalf("frame %d base payload length", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("frame %d base payload differs", i)
			}
		}
	}
}

func TestLayeredStorageSplit(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 6)
	p := testParams()
	p.CRF = 30
	lv, err := EncodeLayered(seq, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lv.EnhBits() <= 0 {
		t.Fatal("enhancement layer empty")
	}
	// The enhancement carries finer-grained detail: typically larger than
	// the heavily-quantized base at these settings.
	t.Logf("base %d bits, enhancement %d bits", lv.Base.TotalPayloadBits(), lv.EnhBits())
}
