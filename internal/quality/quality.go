// Package quality implements the objective video quality metrics used by the
// evaluation: PSNR (the paper's reported metric), SSIM, MS-SSIM and a
// pixel-domain VIF, each averaged across frames as is standard practice.
// It stands in for the VQMT measurement tool used by the paper. The
// per-frame metrics are the *Frame functions; a sequence is measured with
// PSNRContext (PSNR alone) or MeasureContext (every metric).
package quality

import (
	"fmt"
	"math"

	"videoapp/internal/frame"
)

// MaxPSNR caps reported PSNR for (near-)identical content, where the true
// value is unbounded; 100 dB conventionally denotes "identical".
const MaxPSNR = 100.0

// PSNRFrame computes luma peak-signal-to-noise ratio between two frames.
func PSNRFrame(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("quality: frame sizes %dx%d vs %dx%d differ", a.W, a.H, b.W, b.H)
	}
	// Every partial sum is an integer below 2^53 (a 1920×1088 plane of
	// maximal differences is 1.4e11), so the integer total converts to the
	// very float64 a floating-point accumulation would have reached.
	mse := float64(squaredError(a.Y, b.Y)) / float64(len(a.Y))
	if mse == 0 {
		return MaxPSNR, nil
	}
	p := 10 * math.Log10(255*255/mse)
	if p > MaxPSNR {
		p = MaxPSNR
	}
	return p, nil
}

// squaredErrorScalar sums (a[i]-b[i])² over a; b must be at least as long.
// It is squaredError's portable form and the oracle of its assembly twin.
// Four independent accumulators keep the adds off one dependency chain.
func squaredErrorScalar(a, b []uint8) uint64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 uint64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := int(a[i]) - int(b[i])
		d1 := int(a[i+1]) - int(b[i+1])
		d2 := int(a[i+2]) - int(b[i+2])
		d3 := int(a[i+3]) - int(b[i+3])
		s0 += uint64(d0 * d0)
		s1 += uint64(d1 * d1)
		s2 += uint64(d2 * d2)
		s3 += uint64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := int(a[i]) - int(b[i])
		s0 += uint64(d * d)
	}
	return s0 + s1 + s2 + s3
}

// SSIM constants per the original paper (k1=0.01, k2=0.03, L=255).
const (
	ssimC1 = (0.01 * 255) * (0.01 * 255)
	ssimC2 = (0.03 * 255) * (0.03 * 255)
)

// SSIMFrame computes mean structural similarity over 8×8 windows of the
// luma plane.
func SSIMFrame(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("quality: frame sizes differ")
	}
	return ssimPlane(a.Y, b.Y, a.W, a.H), nil
}

func ssimPlane(ya, yb []uint8, w, h int) float64 {
	const win = 8
	var total float64
	n := 0
	for by := 0; by+win <= h; by += win {
		for bx := 0; bx+win <= w; bx += win {
			var sa, sb, saa, sbb, sab float64
			for y := 0; y < win; y++ {
				for x := 0; x < win; x++ {
					pa := float64(ya[(by+y)*w+bx+x])
					pb := float64(yb[(by+y)*w+bx+x])
					sa += pa
					sb += pb
					saa += pa * pa
					sbb += pb * pb
					sab += pa * pb
				}
			}
			np := float64(win * win)
			ma, mb := sa/np, sb/np
			va := saa/np - ma*ma
			vb := sbb/np - mb*mb
			cov := sab/np - ma*mb
			s := ((2*ma*mb + ssimC1) * (2*cov + ssimC2)) /
				((ma*ma + mb*mb + ssimC1) * (va + vb + ssimC2))
			total += s
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

// msScaleWeights are the standard MS-SSIM scale weights (Wang et al.).
var msScaleWeights = []float64{0.0448, 0.2856, 0.3001, 0.2363, 0.1333}

// MSSSIMFrame computes multi-scale SSIM on the luma plane with up to five
// dyadic scales (fewer for small frames).
func MSSSIMFrame(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("quality: frame sizes differ")
	}
	ya := append([]uint8(nil), a.Y...)
	yb := append([]uint8(nil), b.Y...)
	w, h := a.W, a.H
	result := 1.0
	used := 0.0
	for s := 0; s < len(msScaleWeights); s++ {
		if w < 16 || h < 16 {
			break
		}
		v := ssimPlane(ya, yb, w, h)
		if v < 0 {
			v = 0
		}
		result *= math.Pow(v, msScaleWeights[s])
		used += msScaleWeights[s]
		ya, yb = downsample2(ya, w, h), downsample2(yb, w, h)
		w, h = w/2, h/2
	}
	if used == 0 {
		return ssimPlane(a.Y, b.Y, a.W, a.H), nil
	}
	// Renormalize so truncated pyramids stay on the same scale.
	return math.Pow(result, 1/used), nil
}

func downsample2(y []uint8, w, h int) []uint8 {
	nw, nh := w/2, h/2
	out := make([]uint8, nw*nh)
	for yy := 0; yy < nh; yy++ {
		for xx := 0; xx < nw; xx++ {
			s := int(y[(2*yy)*w+2*xx]) + int(y[(2*yy)*w+2*xx+1]) +
				int(y[(2*yy+1)*w+2*xx]) + int(y[(2*yy+1)*w+2*xx+1])
			out[yy*nw+xx] = uint8((s + 2) / 4)
		}
	}
	return out
}

// VIFFrame computes a pixel-domain Visual Information Fidelity score over
// 8×8 windows: the ratio of information the distorted image preserves about
// the (Gaussian-modelled) source. 1 means no loss; 0 means everything lost.
func VIFFrame(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("quality: frame sizes differ")
	}
	const win = 8
	const sigmaN = 2.0 // HVS noise variance
	var num, den float64
	w, h := a.W, a.H
	for by := 0; by+win <= h; by += win {
		for bx := 0; bx+win <= w; bx += win {
			var sa, sb, saa, sbb, sab float64
			for y := 0; y < win; y++ {
				for x := 0; x < win; x++ {
					pa := float64(a.Y[(by+y)*w+bx+x])
					pb := float64(b.Y[(by+y)*w+bx+x])
					sa += pa
					sb += pb
					saa += pa * pa
					sbb += pb * pb
					sab += pa * pb
				}
			}
			np := float64(win * win)
			ma, mb := sa/np, sb/np
			va := saa/np - ma*ma
			vb := sbb/np - mb*mb
			cov := sab/np - ma*mb
			if va < 1e-10 {
				continue
			}
			g := cov / (va + 1e-10)
			sv := vb - g*cov
			if g < 0 {
				g, sv = 0, vb
			}
			if sv < 0 {
				sv = 0
			}
			num += math.Log2(1 + g*g*va/(sv+sigmaN))
			den += math.Log2(1 + va/sigmaN)
		}
	}
	if den == 0 {
		return 1, nil
	}
	return num / den, nil
}

// Report bundles all metrics for one comparison.
type Report struct {
	PSNR   float64
	SSIM   float64
	MSSSIM float64
	VIF    float64
}
