package quality

import (
	"context"
	"fmt"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/par"
)

// frameReport is the full metric set of one frame pair, computed
// independently per frame and reduced in frame order so the averages are
// bit-identical at every worker count.
type frameReport struct {
	psnr, ssim, msssim, vif float64
}

// MeasureContext computes every supported metric between reference and
// distorted, each averaged across frames, with per-frame fan-out across
// workers and cooperative cancellation checked at frame boundaries.
// workers <= 0 selects GOMAXPROCS; workers = 1 is the serial form, and the
// result is identical at every worker count.
func MeasureContext(ctx context.Context, ref, dist *frame.Sequence, workers int) (Report, error) {
	if len(ref.Frames) != len(dist.Frames) {
		return Report{}, fmt.Errorf("quality: sequence lengths %d vs %d differ", len(ref.Frames), len(dist.Frames))
	}
	if len(ref.Frames) == 0 {
		return Report{}, fmt.Errorf("quality: empty sequences")
	}
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageMeasure).End()
	n := len(ref.Frames)
	perFrame := make([]frameReport, n)
	err := par.ForEachLabeled(ctx, n, workers, obs.StageMeasure, "", func(i int) error {
		a, b := ref.Frames[i], dist.Frames[i]
		var fr frameReport
		var err error
		if fr.psnr, err = PSNRFrame(a, b); err != nil {
			return err
		}
		if fr.ssim, err = SSIMFrame(a, b); err != nil {
			return err
		}
		if fr.msssim, err = MSSSIMFrame(a, b); err != nil {
			return err
		}
		if fr.vif, err = VIFFrame(a, b); err != nil {
			return err
		}
		perFrame[i] = fr
		o.FrameDone(obs.StageMeasure, 1)
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	// Reduce in frame order: the same addition order at every worker count,
	// hence bit-identical averages.
	var r Report
	for _, fr := range perFrame {
		r.PSNR += fr.psnr
		r.SSIM += fr.ssim
		r.MSSSIM += fr.msssim
		r.VIF += fr.vif
	}
	nf := float64(n)
	r.PSNR /= nf
	r.SSIM /= nf
	r.MSSSIM /= nf
	r.VIF /= nf
	return r, nil
}

// PSNRContext computes the average per-frame luma PSNR across two
// sequences, following the paper's methodology (average PSNR across
// frames), with per-frame fan-out and cooperative cancellation. workers <= 0
// selects GOMAXPROCS; workers = 1 is the serial form, and the result is
// identical at every worker count.
func PSNRContext(ctx context.Context, ref, dist *frame.Sequence, workers int) (float64, error) {
	if len(ref.Frames) != len(dist.Frames) {
		return 0, fmt.Errorf("quality: sequence lengths %d vs %d differ", len(ref.Frames), len(dist.Frames))
	}
	if len(ref.Frames) == 0 {
		return 0, fmt.Errorf("quality: empty sequences")
	}
	n := len(ref.Frames)
	perFrame := make([]float64, n)
	err := par.ForEach(ctx, n, workers, func(i int) error {
		p, err := PSNRFrame(ref.Frames[i], dist.Frames[i])
		if err != nil {
			return err
		}
		perFrame[i] = p
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range perFrame {
		sum += p
	}
	return sum / float64(n), nil
}
