package quality

import (
	"math"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// psnrFrameRef is PSNRFrame as it was before the squared error was summed in
// integers: one float64 accumulator, a sample at a time. It is the oracle
// the integer form must match bit for bit.
func psnrFrameRef(a, b *frame.Frame) float64 {
	var se float64
	for i := range a.Y {
		d := float64(int(a.Y[i]) - int(b.Y[i]))
		se += d * d
	}
	mse := se / float64(len(a.Y))
	if mse == 0 {
		return MaxPSNR
	}
	return math.Min(10*math.Log10(255*255/mse), MaxPSNR)
}

func TestPSNRFrameMatchesFloatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fill := func(f *frame.Frame, v func() uint8) *frame.Frame {
		for i := range f.Y {
			f.Y[i] = v()
		}
		return f
	}
	random := func() uint8 { return uint8(rng.Intn(256)) }
	constant := func(c uint8) func() uint8 { return func() uint8 { return c } }
	for _, size := range [][2]int{{16, 16}, {48, 16}, {320, 176}, {1920, 1088}} {
		w, h := size[0], size[1]
		cases := []struct {
			name string
			a, b *frame.Frame
		}{
			{"random", fill(frame.MustNew(w, h), random), fill(frame.MustNew(w, h), random)},
			{"equal", fill(frame.MustNew(w, h), constant(77)), fill(frame.MustNew(w, h), constant(77))},
			{"all+255", fill(frame.MustNew(w, h), constant(255)), fill(frame.MustNew(w, h), constant(0))},
			{"all-255", fill(frame.MustNew(w, h), constant(0)), fill(frame.MustNew(w, h), constant(255))},
		}
		for _, c := range cases {
			got, err := PSNRFrame(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if want := psnrFrameRef(c.a, c.b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%dx%d %s: PSNR %v (%#x), float oracle %v (%#x)", w, h, c.name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// The unrolled loop's tail: every length around the stride.
func TestSquaredErrorTails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 13; n++ {
		a, b := make([]uint8, n), make([]uint8, n+3)
		var want uint64
		for i := range a {
			a[i], b[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
			d := int(a[i]) - int(b[i])
			want += uint64(d * d)
		}
		if got := squaredError(a, b); got != want {
			t.Errorf("n=%d: squared error %d, want %d", n, got, want)
		}
	}
}
