package videoapp

// Integration tests exercising the complete system across module boundaries:
// synthetic capture -> encode -> analyze -> partition -> split -> encrypt ->
// approximate storage -> decrypt -> merge -> decode -> quality measurement.

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
)

func TestFullPipelineWithEncryptionAndStorage(t *testing.T) {
	seq, err := GenerateTestVideo("cityride_like", 96, 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.GOPSize = 12
	p.SearchRange = 8
	video, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeSerial(t, video)
	if err := an.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(PaperAssignment())

	// Split into per-reliability streams and encrypt each.
	ss, err := SplitStreams(video, parts)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32) // AES-256
	master := []byte("integration-master-value")
	es, err := EncryptStreams(ss, ModeCTR, key, master)
	if err != nil {
		t.Fatal(err)
	}

	// Approximate storage on ciphertext: flip bits per stream at its
	// scheme's residual rate (requirement 3 makes this equivalent to
	// flipping plaintext).
	rng := rand.New(rand.NewSource(99))
	for name, ct := range es.Streams {
		var rate float64
		switch name {
		case "None":
			rate = 1e-3
		case "BCH-6":
			rate = 1e-6
		default:
			rate = 0
		}
		for i := int64(0); i < int64(len(ct))*8; i++ {
			if rate > 0 && rng.Float64() < rate {
				bitio.FlipBit(ct, i)
			}
		}
	}

	// Decrypt, merge, decode.
	back, err := es.Decrypt(key, master, parts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := back.Merge(video)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSerial(merged)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PSNRContext(context.Background(), seq, dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 15 {
		t.Fatalf("end-to-end PSNR %.2f dB collapsed", psnr)
	}
}

func TestContainerThroughFacade(t *testing.T) {
	seq, _ := GenerateTestVideo("news_like", 64, 48, 6)
	p := DefaultParams()
	p.GOPSize = 6
	v, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := decodeSerial(v)
	b, _ := decodeSerial(v2)
	if h1, h2 := hashSeq(a), hashSeq(b); h1 != h2 {
		t.Fatal("container decode differs")
	}
}

func hashSeq(s *Sequence) [32]byte {
	h := sha256.New()
	for _, f := range s.Frames {
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestStorageRoundTripAcrossAllPresets(t *testing.T) {
	// Every suite member must survive the standard pipeline.
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	for _, name := range PresetNames() {
		seq, err := GenerateTestVideo(name, 64, 48, 8)
		if err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.GOPSize = 8
		params.SearchRange = 8
		p := NewPipeline(WithParams(params))
		res, err := p.ProcessContext(context.Background(), seq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, _, err := res.StoreRoundTripContext(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		psnr, _ := PSNRContext(context.Background(), seq, dec, 1)
		if psnr < 20 {
			t.Fatalf("%s: PSNR %.2f dB", name, psnr)
		}
	}
}

func TestSlicedPipelineThroughFacade(t *testing.T) {
	seq, _ := GenerateTestVideo("sports_like", 96, 64, 8)
	params := DefaultParams()
	params.GOPSize = 8
	params.SlicesPerFrame = 2
	p := NewPipeline(WithParams(params))
	res, err := p.ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := res.StoreRoundTripContext(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	psnr, _ := PSNRContext(context.Background(), seq, dec, 1)
	if psnr < 20 {
		t.Fatalf("sliced pipeline PSNR %.2f", psnr)
	}
}

func TestDamagedStoreStillWithinGOP(t *testing.T) {
	// Corruption from approximate storage must never leak across an
	// I-frame boundary, whatever the assignment.
	seq, _ := GenerateTestVideo("parkrun_like", 64, 48, 16)
	p := DefaultParams()
	p.GOPSize = 8
	p.SearchRange = 8
	v, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := decodeSerial(v)
	c := v.Clone()
	// Hammer the first GOP's frames.
	for fi := 0; fi < 8; fi++ {
		for k := int64(0); k < 5; k++ {
			bitio.FlipBit(c.Frames[fi].Payload, k*17)
		}
	}
	corrupt, err := decodeSerial(c)
	if err != nil {
		t.Fatal(err)
	}
	for d := 8; d < 16; d++ {
		for i := range clean.Frames[d].Y {
			if clean.Frames[d].Y[i] != corrupt.Frames[d].Y[i] {
				t.Fatalf("damage leaked into display frame %d", d)
			}
		}
	}
}

var _ = codec.CABAC // document the re-export relationship

func TestAnalyzeAfterContainerRoundTrip(t *testing.T) {
	// The full "works on any encoded video" path: encode, persist, load,
	// reanalyze by decoding, and verify the importance analysis matches the
	// encoder-side analysis closely enough to produce the same partitions.
	seq, _ := GenerateTestVideo("crew_like", 96, 64, 10)
	p := DefaultParams()
	p.GOPSize = 10
	p.SearchRange = 8
	v, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(loaded); err != nil {
		t.Fatal(err)
	}
	anA := analyzeSerial(t, v)
	anB := analyzeSerial(t, loaded)
	for f := range anA.Importance {
		for m := range anA.Importance[f] {
			a, b := anA.Importance[f][m], anB.Importance[f][m]
			if d := a - b; d > 1e-6 || d < -1e-6 {
				t.Fatalf("frame %d MB %d: importance %f vs %f", f, m, a, b)
			}
		}
	}
	if err := anB.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
	partsA := anA.Partition(PaperAssignment())
	partsB := anB.Partition(PaperAssignment())
	for f := range partsA {
		if len(partsA[f].Pivots) != len(partsB[f].Pivots) {
			t.Fatalf("frame %d: pivot count differs", f)
		}
		for i := range partsA[f].Pivots {
			if partsA[f].Pivots[i].Scheme.Name != partsB[f].Pivots[i].Scheme.Name {
				t.Fatalf("frame %d pivot %d: scheme differs", f, i)
			}
		}
	}
}
