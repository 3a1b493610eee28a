package codec

import (
	"context"
	"testing"

	"videoapp/internal/quality"
)

func TestConcealOnDesyncImprovesTruncatedDecode(t *testing.T) {
	// Truncating a payload desyncs the reader; concealment should produce
	// a (usually) better picture than interpreting garbage.
	seq := testSeq(t, "crew_like", 96, 64, 8)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	// Truncate a mid-GOP P frame severely.
	if len(c.Frames[3].Payload) > 4 {
		c.Frames[3].Payload = c.Frames[3].Payload[:4]
	}
	raw, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	concealed, err := DecodeContext(context.Background(), c, DecodeOptions{ConcealOnDesync: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pRaw, _ := quality.PSNRContext(context.Background(), clean, raw, 1)
	pCon, _ := quality.PSNRContext(context.Background(), clean, concealed, 1)
	if pCon < pRaw-1 {
		t.Fatalf("concealment made things notably worse: %.2f vs %.2f dB", pCon, pRaw)
	}
	t.Logf("raw %.2f dB, concealed %.2f dB", pRaw, pCon)
}

func TestConcealOnCleanStreamIsIdentity(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 6)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	b, _ := DecodeContext(context.Background(), v, DecodeOptions{ConcealOnDesync: true}, 1)
	for i := range a.Frames {
		for j := range a.Frames[i].Y {
			if a.Frames[i].Y[j] != b.Frames[i].Y[j] {
				t.Fatal("concealment must not change clean decodes")
			}
		}
	}
}

func TestConcealIFrameWithoutReference(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 3)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	c.Frames[0].Payload = c.Frames[0].Payload[:1] // destroy the I frame
	dec, err := DecodeContext(context.Background(), c, DecodeOptions{ConcealOnDesync: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Frames) != 3 {
		t.Fatal("frame count")
	}
}
