package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randResidual(rng *rand.Rand, amp int32) Block {
	var b Block
	for i := range b {
		b[i] = rng.Int31n(2*amp+1) - amp
	}
	return b
}

func TestForwardInverseLosslessAtQP0IsClose(t *testing.T) {
	// At QP 0 the round trip is nearly lossless for moderate residuals.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := randResidual(rng, 100)
		got := RoundTrip(&x, 0, false)
		for i := range x {
			if d := got[i] - x[i]; d < -2 || d > 2 {
				t.Fatalf("trial %d coeff %d: %d vs %d", trial, i, got[i], x[i])
			}
		}
	}
}

func TestErrorGrowsWithQP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	errAt := func(qp int) float64 {
		var sum float64
		for trial := 0; trial < 50; trial++ {
			x := randResidual(rng, 80)
			got := RoundTrip(&x, qp, false)
			for i := range x {
				d := float64(got[i] - x[i])
				sum += d * d
			}
		}
		return sum
	}
	e0, e24, e40 := errAt(0), errAt(24), errAt(40)
	if !(e0 < e24 && e24 < e40) {
		t.Fatalf("quantization error must grow with QP: %g %g %g", e0, e24, e40)
	}
}

func TestZeroBlockStaysZero(t *testing.T) {
	var x Block
	for _, qp := range []int{0, 24, 51} {
		if quantizeOnly(&x, qp, true) != (Block{}) {
			t.Fatalf("zero residual must quantize to zero at QP %d", qp)
		}
		z := Block{}
		if Reconstruct(&z, qp) != (Block{}) {
			t.Fatalf("zero levels must reconstruct to zero at QP %d", qp)
		}
	}
}

func TestDCOnlyBlock(t *testing.T) {
	// A flat residual has all its energy in the DC coefficient.
	var x Block
	for i := range x {
		x[i] = 64
	}
	y := Forward(&x)
	if y[0] != 64*16 {
		t.Fatalf("DC = %d, want %d", y[0], 64*16)
	}
	for i := 1; i < 16; i++ {
		if y[i] != 0 {
			t.Fatalf("AC coeff %d = %d, want 0", i, y[i])
		}
	}
}

func TestLinearity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randResidual(rng, 50)
		b := randResidual(rng, 50)
		var sum Block
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := Forward(&a), Forward(&b), Forward(&sum)
		for i := range fs {
			if fs[i] != fa[i]+fb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHighQPZeroesSmallResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randResidual(rng, 3)
	z := quantizeOnly(&x, 51, false)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("QP 51 must kill tiny residuals; coeff %d = %d", i, v)
		}
	}
}

func TestQuantizeSignSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randResidual(rng, 200)
	var neg Block
	for i := range x {
		neg[i] = -x[i]
	}
	zp := quantizeOnly(&x, 20, true)
	zn := quantizeOnly(&neg, 20, true)
	for i := range zp {
		if zp[i] != -zn[i] {
			t.Fatalf("coeff %d: %d vs %d", i, zp[i], zn[i])
		}
	}
}

func TestRoundTripPSNRReasonable(t *testing.T) {
	// At a mid QP, the reconstruction error on realistic residuals should be
	// bounded (the dead zone removes small coefficients only).
	rng := rand.New(rand.NewSource(5))
	var mse float64
	n := 0
	for trial := 0; trial < 50; trial++ {
		x := randResidual(rng, 60)
		got := RoundTrip(&x, 24, false)
		for i := range x {
			d := float64(got[i] - x[i])
			mse += d * d
			n++
		}
	}
	mse /= float64(n)
	psnr := 10 * math.Log10(255*255/mse)
	if psnr < 25 {
		t.Fatalf("QP24 round-trip PSNR %.1f dB is implausibly low", psnr)
	}
}

func TestClampQP(t *testing.T) {
	if ClampQP(-3) != 0 || ClampQP(99) != MaxQP || ClampQP(30) != 30 {
		t.Fatal("clamping")
	}
	// Extreme QPs must not panic anywhere in the path.
	var x Block
	x[0] = 1000
	RoundTrip(&x, -10, true)
	RoundTrip(&x, 1000, true)
}

func BenchmarkRoundTrip(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(6))
	x := randResidual(rng, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoundTrip(&x, 24, false)
	}
}

// quantizeOnly runs the forward transform and quantization, returning the
// levels the entropy coder will encode.
func quantizeOnly(x *Block, qp int, intra bool) Block {
	y := Forward(x)
	return Quantize(&y, qp, intra)
}
