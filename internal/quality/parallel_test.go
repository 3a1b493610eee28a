package quality

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// noisySequences builds a deterministic reference/distorted pair with
// varied per-frame damage so every metric has real work to do.
func noisySequences(frames int) (*frame.Sequence, *frame.Sequence) {
	rng := rand.New(rand.NewSource(99))
	ref := &frame.Sequence{Name: "ref"}
	dist := &frame.Sequence{Name: "dist"}
	for f := 0; f < frames; f++ {
		a := frame.MustNew(96, 64)
		b := frame.MustNew(96, 64)
		for i := range a.Y {
			v := uint8(rng.Intn(256))
			a.Y[i] = v
			b.Y[i] = frame.ClampU8(int(v) + rng.Intn(2*f+3) - (f + 1))
		}
		for i := range a.Cb {
			a.Cb[i], a.Cr[i] = 128, 128
			b.Cb[i], b.Cr[i] = 128, 128
		}
		ref.Frames = append(ref.Frames, a)
		dist.Frames = append(dist.Frames, b)
	}
	return ref, dist
}

// serialReport averages the per-frame metrics in one frame-order loop, the
// oracle of MeasureContext's reduction.
func serialReport(t *testing.T, ref, dist *frame.Sequence) Report {
	t.Helper()
	var r Report
	for i := range ref.Frames {
		a, b := ref.Frames[i], dist.Frames[i]
		for _, m := range []struct {
			sum *float64
			f   func(a, b *frame.Frame) (float64, error)
		}{{&r.PSNR, PSNRFrame}, {&r.SSIM, SSIMFrame}, {&r.MSSSIM, MSSSIMFrame}, {&r.VIF, VIFFrame}} {
			v, err := m.f(a, b)
			if err != nil {
				t.Fatal(err)
			}
			*m.sum += v
		}
	}
	n := float64(len(ref.Frames))
	r.PSNR /= n
	r.SSIM /= n
	r.MSSSIM /= n
	r.VIF /= n
	return r
}

func TestMeasureContextBitIdentical(t *testing.T) {
	ref, dist := noisySequences(13)
	serial := serialReport(t, ref, dist)
	for _, workers := range []int{1, 2, 8} {
		got, err := MeasureContext(context.Background(), ref, dist, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != serial {
			t.Fatalf("workers=%d: %+v != serial %+v", workers, got, serial)
		}
	}
	p := serial.PSNR
	for _, workers := range []int{1, 2, 8} {
		got, err := PSNRContext(context.Background(), ref, dist, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("workers=%d: PSNR %v != serial %v", workers, got, p)
		}
	}
}

func TestMeasureContextErrors(t *testing.T) {
	ref, dist := noisySequences(4)
	if _, err := MeasureContext(context.Background(), ref, &frame.Sequence{}, 2); err == nil {
		t.Fatal("length mismatch must error")
	}
	short := &frame.Sequence{Frames: append([]*frame.Frame(nil), dist.Frames...)}
	short.Frames[2] = frame.MustNew(32, 32)
	if _, err := MeasureContext(context.Background(), ref, short, 2); err == nil {
		t.Fatal("frame geometry mismatch must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasureContext(ctx, ref, dist, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	if _, err := PSNRContext(ctx, ref, dist, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}
