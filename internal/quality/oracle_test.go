package quality

import (
	"bytes"
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

// TestSquaredErrorMatchesScalar holds the build's squaredError (the SSE2
// kernel on amd64) to the scalar form: every length 0–64 (the 16-byte steps
// and every tail), the ledger's 320×176 plane, the lane-widening boundary
// 8192·16 ± 1 and a 1920×1088 plane, each on random bytes and on maximal
// differences in both directions, where every uint32 lane fills fastest.
func TestSquaredErrorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lengths := []int{320 * 176, 8192*16 - 1, 8192 * 16, 8192*16 + 1, 1920 * 1088}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		a, b := make([]uint8, n), make([]uint8, n)
		for _, fill := range []string{"random", "0-255", "255-0"} {
			for i := range a {
				switch fill {
				case "random":
					a[i], b[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
				case "0-255":
					a[i], b[i] = 0, 255
				default:
					a[i], b[i] = 255, 0
				}
			}
			if got, want := squaredError(a, b), squaredErrorScalar(a, b); got != want {
				t.Errorf("n=%d %s: squared error %d, scalar %d", n, fill, got, want)
			}
		}
	}
}

// FuzzSquaredErrorMatchesScalar: squaredError equals the scalar form on
// arbitrary byte strings, over the shorter length and from any offset.
func FuzzSquaredErrorMatchesScalar(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0, 255, 7}, []byte{255, 0, 9, 1}, uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 33), bytes.Repeat([]byte{255}, 40), uint8(3))
	f.Add(bytes.Repeat([]byte{1, 250, 17, 128}, 70), bytes.Repeat([]byte{255, 3, 90}, 95), uint8(15))
	f.Fuzz(func(t *testing.T, a, b []byte, off uint8) {
		n := min(len(a), len(b))
		o := min(int(off), n)
		a, b = a[o:n], b[o:n]
		if got, want := squaredError(a, b), squaredErrorScalar(a, b); got != want {
			t.Fatalf("len %d: squared error %d, scalar %d", len(a), got, want)
		}
	})
}
