package videoapp

import (
	"context"
	"testing"
)

func TestGenerateTestVideo(t *testing.T) {
	seq, err := GenerateTestVideo("crew_like", 64, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 6 || seq.W() != 64 {
		t.Fatal("geometry")
	}
	if _, err := GenerateTestVideo("nope", 64, 48, 6); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// A geometry the codec cannot hold, or no frames, is the caller's error,
// not a panic inside the generator.
func TestGenerateTestVideoRejectsBadGeometry(t *testing.T) {
	for _, g := range []struct{ w, h, frames int }{
		{100, 64, 2}, {64, 50, 2}, {0, 48, 2}, {-16, 48, 2}, {64, 48, 0}, {64, 48, -1},
	} {
		if seq, err := GenerateTestVideo("crew_like", g.w, g.h, g.frames); err == nil {
			t.Errorf("GenerateTestVideo(%dx%d, %d frames) = %d frames, want an error", g.w, g.h, g.frames, len(seq.Frames))
		}
	}
}

func TestPresetNames(t *testing.T) {
	names := PresetNames()
	if len(names) != 14 {
		t.Fatalf("%d presets", len(names))
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	seq, err := GenerateTestVideo("news_like", 96, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.GOPSize = 10
	params.SearchRange = 8
	p := NewPipeline(WithParams(params))
	res, err := p.ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsPerPixel <= 0 {
		t.Fatal("no footprint")
	}
	if len(res.Partitions) != len(res.Video.Frames) {
		t.Fatal("partitions")
	}
	dec, flips, err := res.StoreRoundTripContext(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = flips
	psnr, err := PSNRContext(context.Background(), seq, dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 20 {
		t.Fatalf("round-trip PSNR %.1f dB", psnr)
	}
}

func TestFacadeEncodeDecode(t *testing.T) {
	seq, _ := GenerateTestVideo("crew_like", 64, 48, 6)
	p := DefaultParams()
	p.GOPSize = 6
	p.SearchRange = 8
	v, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSerial(v)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measureSerial(seq, dec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PSNR < 25 || rep.SSIM < 0.7 {
		t.Fatalf("quality %+v", rep)
	}
}

func TestFacadeStreamsAndEncryption(t *testing.T) {
	seq, _ := GenerateTestVideo("crew_like", 64, 48, 6)
	p := DefaultParams()
	p.GOPSize = 6
	p.SearchRange = 8
	v, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeSerial(t, v)
	parts := an.Partition(PaperAssignment())
	ss, err := SplitStreams(v, parts)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	es, err := EncryptStreams(ss, ModeCTR, key, []byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := es.Decrypt(key, []byte("master"), parts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := back.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalPayloadBits() != v.TotalPayloadBits() {
		t.Fatal("payload size changed through encryption round trip")
	}
}

func TestFacadeParallelEncode(t *testing.T) {
	seq, _ := GenerateTestVideo("crew_like", 64, 48, 16)
	p := DefaultParams()
	p.GOPSize = 8
	p.SearchRange = 8
	serial, err := encodeSerial(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := encodeWorkers(seq, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Marshal(serial), Marshal(parallel)
	if len(a) != len(b) {
		t.Fatal("parallel encode differs from serial")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel encode differs from serial")
		}
	}
}
