package videoapp

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
)

func TestGenerateTestVideo(t *testing.T) {
	seq, err := GenerateTestVideo("crew_like", 64, 48, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Frames) != 6 || seq.W() != 64 {
		t.Fatal("geometry")
	}
	if _, err := GenerateTestVideo("nope", 64, 48, 6); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("unknown preset: got %v, want ErrUnknownPreset", err)
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

// roundTripPSNR is the paper's end-to-end path over a corpus clip: its
// footprint is accounted, it has a partition row per frame, and a seeded
// round trip decodes to at least floor dB against the source.
func roundTripPSNR(t *testing.T, e *entry, seed int64, floor float64) {
	t.Helper()
	res := e.result(1)
	if res.Stats.CellsPerPixel <= 0 || len(res.Partitions) != len(res.Video.Frames) {
		t.Fatalf("%s: %v cells per pixel, %d partition rows for %d frames", e.preset, res.Stats.CellsPerPixel, len(res.Partitions), len(res.Video.Frames))
	}
	dec, _, err := res.StoreRoundTripContext(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PSNRContext(context.Background(), e.seq, dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < floor {
		t.Fatalf("%s: round-trip PSNR %.2f dB, want at least %v", e.preset, psnr, floor)
	}
}

func TestPipelineEndToEnd(t *testing.T) { roundTripPSNR(t, mainOf(t), 7, 20) }

func TestSlicedPipelineThroughFacade(t *testing.T) {
	k := mainClip()
	k.p.SlicesPerFrame = 2
	roundTripPSNR(t, corpusOf(t, k), 3, 20)
}

func TestStorageRoundTripAcrossAllPresets(t *testing.T) {
	// Every suite member must survive the standard pipeline.
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	p := DefaultParams()
	p.GOPSize, p.SearchRange = 8, 8
	for _, name := range PresetNames() {
		roundTripPSNR(t, corpusOf(t, clip{preset: name, w: 64, h: 48, frames: 8, p: p, assign: "paper"}), 1, 20)
	}
}

func TestFacadeEncodeDecode(t *testing.T) {
	e := mainOf(t)
	dec, err := DecodeContext(context.Background(), e.res.Video, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureContext(context.Background(), e.seq, dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PSNR < 25 || rep.SSIM < 0.7 {
		t.Fatalf("quality %+v", rep)
	}
}

// encryptedTrip splits the main clip into per-reliability streams, encrypts
// each, flips ciphertext bits in each stream at its rate in rates (seeded),
// decrypts and merges: the merged video keeps the payload size and decodes
// to at least floor dB.
func encryptedTrip(t *testing.T, rates map[string]float64, floor float64) {
	e := mainOf(t)
	v, parts := e.res.Video, e.res.Partitions
	ss, err := SplitStreams(v, parts)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32) // AES-256
	master := []byte("integration-master-value")
	es, err := EncryptStreams(ss, ModeCTR, key, master)
	if err != nil {
		t.Fatal(err)
	}
	// Approximate storage on ciphertext: requirement 3 makes flipping it
	// equivalent to flipping plaintext.
	rng := rand.New(rand.NewSource(99))
	for name, ct := range es.Streams {
		for i := int64(0); rates[name] > 0 && i < int64(len(ct))*8; i++ {
			if rng.Float64() < rates[name] {
				bitio.FlipBit(ct, i)
			}
		}
	}
	back, err := es.Decrypt(key, master, parts)
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
	if rates == nil && !bytes.Equal(Marshal(merged), Marshal(v)) {
		t.Fatal("an undamaged encryption round trip changed the video")
	}
	dec, err := DecodeContext(context.Background(), merged, 1)
	if err != nil {
		t.Fatal(err)
	}
	if psnr, _ := PSNRContext(context.Background(), e.seq, dec, 1); psnr < floor {
		t.Fatalf("end-to-end PSNR %.2f dB collapsed", psnr)
	}
}

func TestFacadeStreamsAndEncryption(t *testing.T) { encryptedTrip(t, nil, 25) }

// TestFullPipelineWithEncryptionAndStorage exercises the complete system
// across module boundaries: encode -> analyze -> partition -> split ->
// encrypt -> approximate storage at the None and BCH-6 residual rates ->
// decrypt -> merge -> decode -> quality measurement.
func TestFullPipelineWithEncryptionAndStorage(t *testing.T) {
	encryptedTrip(t, map[string]float64{"None": 1e-3, "BCH-6": 1e-6}, 15)
}
