package quality

import (
	"context"
	"math"
	"testing"

	"videoapp/internal/frame"
)

func TestVIFFlatFrames(t *testing.T) {
	// Zero-variance reference: every window skipped, convention result 1.
	a := frame.MustNew(32, 32)
	a.Fill(100, 128, 128)
	b := a.Clone()
	v, err := VIFFrame(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("flat/flat VIF = %v", v)
	}
}

func TestVIFSizeMismatch(t *testing.T) {
	if _, err := VIFFrame(frame.MustNew(16, 16), frame.MustNew(32, 32)); err == nil {
		t.Fatal("size mismatch must error")
	}
	if _, err := MSSSIMFrame(frame.MustNew(16, 16), frame.MustNew(32, 32)); err == nil {
		t.Fatal("size mismatch must error")
	}
	if _, err := SSIMFrame(frame.MustNew(16, 16), frame.MustNew(32, 32)); err == nil {
		t.Fatal("size mismatch must error")
	}
}

func TestSequenceMetricErrorsPropagate(t *testing.T) {
	good := &frame.Sequence{Frames: []*frame.Frame{frame.MustNew(16, 16)}}
	bad := &frame.Sequence{Frames: []*frame.Frame{frame.MustNew(32, 32)}}
	ctx := context.Background()
	if _, err := MeasureContext(ctx, good, bad, 1); err == nil {
		t.Fatal("MeasureContext must propagate frame errors")
	}
	if _, err := PSNRContext(ctx, good, bad, 1); err == nil {
		t.Fatal("PSNRContext must propagate frame errors")
	}
	if _, err := MeasureContext(ctx, good, &frame.Sequence{}, 1); err == nil {
		t.Fatal("length mismatch")
	}
	if _, err := PSNRContext(ctx, good, &frame.Sequence{}, 1); err == nil {
		t.Fatal("length mismatch")
	}
}

func TestSSIMTinyFrameNoWindows(t *testing.T) {
	// 16x16 still has 8x8 windows; construct a case with none by using the
	// plane helper directly on a 4x4 grid.
	if got := ssimPlane(make([]uint8, 16), make([]uint8, 16), 4, 4); got != 1 {
		t.Fatalf("no-window SSIM = %v, want neutral 1", got)
	}
}

func TestDownsample2Averages(t *testing.T) {
	in := []uint8{10, 20, 30, 40}
	out := downsample2(in, 2, 2)
	if len(out) != 1 || out[0] != 25 {
		t.Fatalf("downsample %v", out)
	}
}

func TestPSNRCapsAtMax(t *testing.T) {
	a := frame.MustNew(16, 16)
	b := a.Clone()
	b.Y[0] ^= 0 // identical
	p, _ := PSNRFrame(a, b)
	if p != MaxPSNR {
		t.Fatal("cap")
	}
	// A single off-by-one pixel: huge but finite, below the cap.
	b.Y[0]++
	p, _ = PSNRFrame(a, b)
	if p >= MaxPSNR || math.IsInf(p, 0) {
		t.Fatalf("near-identical PSNR %v", p)
	}
}

func TestMSSSIMRenormalization(t *testing.T) {
	// Frames allowing only some pyramid levels must still land in [0,1].
	f := frame.MustNew(32, 32)
	for i := range f.Y {
		f.Y[i] = uint8(i * 7 % 256)
	}
	g := f.Clone()
	for i := range g.Y {
		g.Y[i] = frame.ClampU8(int(g.Y[i]) + i%13 - 6)
	}
	m, err := MSSSIMFrame(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if m < 0 || m > 1 {
		t.Fatalf("MS-SSIM %v out of range", m)
	}
}
