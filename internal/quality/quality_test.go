package quality

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

func noisy(f *frame.Frame, sigma float64, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	g := f.Clone()
	for i := range g.Y {
		g.Y[i] = frame.ClampU8(int(float64(g.Y[i]) + rng.NormFloat64()*sigma))
	}
	return g
}

func textured(w, h int) *frame.Frame {
	f := frame.MustNew(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Y[y*w+x] = frame.ClampU8(128 + int(80*math.Sin(float64(x)*0.21)*math.Cos(float64(y)*0.17)))
		}
	}
	return f
}

func TestPSNRIdentical(t *testing.T) {
	f := textured(64, 64)
	p, err := PSNRFrame(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if p != MaxPSNR {
		t.Fatalf("identical frames: PSNR %v, want %v", p, MaxPSNR)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	a := frame.MustNew(16, 16)
	b := frame.MustNew(16, 16)
	for i := range b.Y {
		b.Y[i] = 10 // uniform error of 10 -> MSE 100
	}
	p, _ := PSNRFrame(a, b)
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("PSNR %v, want %v", p, want)
	}
}

func TestPSNRDecreasesWithNoise(t *testing.T) {
	f := textured(64, 64)
	p1, _ := PSNRFrame(f, noisy(f, 2, 1))
	p2, _ := PSNRFrame(f, noisy(f, 8, 1))
	if !(p1 > p2) {
		t.Fatalf("PSNR must decrease with noise: %v <= %v", p1, p2)
	}
}

func TestPSNRSizeMismatch(t *testing.T) {
	if _, err := PSNRFrame(frame.MustNew(16, 16), frame.MustNew(32, 32)); err == nil {
		t.Fatal("size mismatch must error")
	}
}

func TestSSIMBounds(t *testing.T) {
	f := textured(64, 64)
	s, _ := SSIMFrame(f, f)
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIM of identical = %v", s)
	}
	n := noisy(f, 20, 2)
	s2, _ := SSIMFrame(f, n)
	if s2 >= s || s2 < -1 {
		t.Fatalf("SSIM of noisy = %v", s2)
	}
}

func TestSSIMOrdering(t *testing.T) {
	f := textured(64, 64)
	s1, _ := SSIMFrame(f, noisy(f, 3, 3))
	s2, _ := SSIMFrame(f, noisy(f, 12, 3))
	if !(s1 > s2) {
		t.Fatalf("SSIM must decrease with noise: %v <= %v", s1, s2)
	}
}

func TestMSSSIMIdenticalAndOrdering(t *testing.T) {
	f := textured(128, 128)
	m, _ := MSSSIMFrame(f, f)
	if math.Abs(m-1) > 1e-6 {
		t.Fatalf("MS-SSIM identical = %v", m)
	}
	m1, _ := MSSSIMFrame(f, noisy(f, 4, 4))
	m2, _ := MSSSIMFrame(f, noisy(f, 16, 4))
	if !(m1 > m2) {
		t.Fatalf("MS-SSIM ordering: %v <= %v", m1, m2)
	}
}

func TestMSSSIMSmallFrameFallsBack(t *testing.T) {
	f := textured(16, 16)
	if _, err := MSSSIMFrame(f, f); err != nil {
		t.Fatal(err)
	}
}

func TestVIFBoundsAndOrdering(t *testing.T) {
	f := textured(64, 64)
	v, _ := VIFFrame(f, f)
	if math.Abs(v-1) > 1e-6 {
		t.Fatalf("VIF identical = %v", v)
	}
	v1, _ := VIFFrame(f, noisy(f, 4, 5))
	v2, _ := VIFFrame(f, noisy(f, 16, 5))
	if !(v1 > v2) {
		t.Fatalf("VIF ordering: %v <= %v", v1, v2)
	}
	if v2 < 0 {
		t.Fatalf("VIF below 0: %v", v2)
	}
}

func seqOf(frames ...*frame.Frame) *frame.Sequence {
	return &frame.Sequence{FPS: 30, Frames: frames}
}

func TestSequenceAverages(t *testing.T) {
	f := textured(64, 64)
	g := noisy(f, 10, 6)
	pf, _ := PSNRFrame(f, g)
	ps, err := PSNRContext(context.Background(), seqOf(f, f), seqOf(g, f), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (pf + MaxPSNR) / 2
	if math.Abs(ps-want) > 1e-9 {
		t.Fatalf("sequence PSNR %v, want %v", ps, want)
	}
}

func TestSequenceLengthMismatch(t *testing.T) {
	f := textured(64, 64)
	ctx := context.Background()
	if _, err := PSNRContext(ctx, seqOf(f), seqOf(f, f), 1); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := PSNRContext(ctx, seqOf(), seqOf(), 1); err == nil {
		t.Fatal("empty must error")
	}
}

func TestMeasureAllMetrics(t *testing.T) {
	f := textured(64, 64)
	g := noisy(f, 6, 7)
	r, err := MeasureContext(context.Background(), seqOf(f), seqOf(g), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.PSNR <= 0 || r.SSIM <= 0 || r.MSSSIM <= 0 || r.VIF <= 0 {
		t.Fatalf("all metrics must be positive for mildly noisy content: %+v", r)
	}
	if r.SSIM > 1 || r.MSSSIM > 1 || r.VIF > 1.01 {
		t.Fatalf("similarity metrics must not exceed 1: %+v", r)
	}
}

func TestMetricsAgreeOnRanking(t *testing.T) {
	// All four metrics must rank a lightly-damaged video above a heavily
	// damaged one — the cross-metric consistency the paper relies on (§6.1).
	f := textured(128, 128)
	light := seqOf(noisy(f, 3, 8))
	heavy := seqOf(noisy(f, 25, 8))
	ref := seqOf(f)
	rl, _ := MeasureContext(context.Background(), ref, light, 1)
	rh, _ := MeasureContext(context.Background(), ref, heavy, 1)
	if !(rl.PSNR > rh.PSNR && rl.SSIM > rh.SSIM && rl.MSSSIM > rh.MSSSIM && rl.VIF > rh.VIF) {
		t.Fatalf("metric ranking disagreement: light %+v heavy %+v", rl, rh)
	}
}

// BenchmarkPSNR times one frame at the performance ledger's geometry.
func BenchmarkPSNR(b *testing.B) {
	b.ReportAllocs()
	f := textured(320, 176)
	g := noisy(f, 5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PSNRFrame(f, g)
	}
}

func BenchmarkPSNR720p(b *testing.B) {
	b.ReportAllocs()
	f := textured(1280, 720)
	g := noisy(f, 5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PSNRFrame(f, g)
	}
}

func BenchmarkSSIM720p(b *testing.B) {
	b.ReportAllocs()
	f := textured(1280, 720)
	g := noisy(f, 5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SSIMFrame(f, g)
	}
}
