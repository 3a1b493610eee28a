package transform

import (
	"math/rand"
	"testing"
)

// The position-indexed tables and the fused reconstruction kernel must be
// exact rewrites of the per-coefficient forms they replaced. The references
// below are those forms, kept sample-at-a-time: classification by posClass
// per coefficient, and Reconstruct + add + clamp per sample.

// maxLevel is the decoder's clamp on coefficient magnitudes (codec.maxLevel).
const maxLevel = 1 << 15

func refDequantize(z *Block, qp int) Block {
	qp = clampQP(qp)
	v := vTable[qp%6]
	shift := uint(qp / 6)
	var w Block
	for i := range z {
		w[i] = z[i] * v[posClass(i)] << shift
	}
	return w
}

func refQuantize(y *Block, qp int, intra bool) Block {
	qp = clampQP(qp)
	mf := mfTable[qp%6]
	qbits := uint(15 + qp/6)
	f := int64(1) << qbits / 6
	if intra {
		f = int64(1) << qbits / 3
	}
	var z Block
	for i := range y {
		m := int64(mf[posClass(i)])
		v := int64(y[i])
		neg := v < 0
		if neg {
			v = -v
		}
		q := (v*m + f) >> qbits
		if neg {
			q = -q
		}
		z[i] = int32(q)
	}
	return z
}

// refReconstructAdd is the decoder's old inner loop: reconstruct the block,
// then add and saturate one sample at a time.
func refReconstructAdd(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, qp int) {
	w := refDequantize(z, qp)
	recon := Inverse(&w)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			v := int(pred[y*predStride+x]) + int(recon[y*4+x])
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			dst[y*dstStride+x] = uint8(v)
		}
	}
}

// testBlocks yields random blocks at several amplitudes plus the extremes a
// corrupt stream can produce: every level at ±maxLevel, alternating signs,
// and single extreme coefficients at each position.
func testBlocks(rng *rand.Rand) []Block {
	var out []Block
	for _, amp := range []int32{1, 8, 300, maxLevel} {
		for n := 0; n < 8; n++ {
			out = append(out, randResidual(rng, amp))
		}
	}
	var hi, lo, alt Block
	for i := range hi {
		hi[i], lo[i] = maxLevel, -maxLevel
		alt[i] = maxLevel
		if i%2 == 1 {
			alt[i] = -maxLevel
		}
	}
	out = append(out, hi, lo, alt)
	for i := 0; i < 16; i++ {
		var one Block
		one[i] = maxLevel
		out = append(out, one)
		one[i] = -maxLevel
		out = append(out, one)
	}
	return out
}

func TestPositionTablesMatchPosClass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocks := testBlocks(rng)
	for qp := -3; qp <= MaxQP+3; qp++ {
		for bi := range blocks {
			b := &blocks[bi]
			if got, want := Dequantize(b, qp), refDequantize(b, qp); got != want {
				t.Fatalf("Dequantize qp %d block %d: %v, want %v", qp, bi, got, want)
			}
			for _, intra := range []bool{false, true} {
				if got, want := Quantize(b, qp, intra), refQuantize(b, qp, intra); got != want {
					t.Fatalf("Quantize qp %d intra %v block %d: %v, want %v", qp, intra, bi, got, want)
				}
			}
		}
	}
}

func TestReconstructAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blocks := testBlocks(rng)
	const dstStride, predStride = 24, 16
	for qp := 0; qp <= MaxQP; qp++ {
		for bi := range blocks {
			pred := make([]uint8, 4*predStride)
			for i := range pred {
				pred[i] = uint8(rng.Intn(256))
			}
			if bi%3 == 0 { // saturation at both ends
				for i := range pred {
					pred[i] = uint8(255 * (i & 1))
				}
			}
			got := make([]uint8, 4*dstStride)
			want := make([]uint8, 4*dstStride)
			for i := range got {
				got[i], want[i] = 0xA5, 0xA5 // sentinel: nothing outside the block may move
			}
			ReconstructAdd(got[2:], dstStride, pred[1:], predStride, &blocks[bi], qp)
			refReconstructAdd(want[2:], dstStride, pred[1:], predStride, &blocks[bi], qp)
			if string(got) != string(want) {
				t.Fatalf("qp %d block %d (%v):\n got %v\nwant %v", qp, bi, blocks[bi], got, want)
			}
		}
	}
}

// TestZeroBlockReconstructsToZeroAtEveryQP pins the invariant the decoder's
// zero-block skip relies on: no QP turns all-zero levels into a nonzero
// residual, so ReconstructAdd(nil) — a copy of the prediction — equals the
// full kernel run on a zero block.
func TestZeroBlockReconstructsToZeroAtEveryQP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for qp := -3; qp <= MaxQP+3; qp++ {
		var z Block
		if Reconstruct(&z, qp) != (Block{}) {
			t.Fatalf("zero levels reconstruct to nonzero residual at QP %d", qp)
		}
		pred := make([]uint8, 4*16)
		for i := range pred {
			pred[i] = uint8(rng.Intn(256))
		}
		skip, full, ref := make([]uint8, 4*16), make([]uint8, 4*16), make([]uint8, 4*16)
		ReconstructAdd(skip, 16, pred, 16, nil, qp)
		ReconstructAdd(full, 16, pred, 16, &z, qp)
		refReconstructAdd(ref, 16, pred, 16, &z, qp)
		if string(skip) != string(full) || string(full) != string(ref) {
			t.Fatalf("QP %d: skip %v, full %v, reference %v", qp, skip, full, ref)
		}
	}
}

// TestReconstructAddInPlace covers the layered decoder's use: the refinement
// is added onto the plane it reads its prediction from.
func TestReconstructAddInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, z := range testBlocks(rng) {
		z := z
		plane := make([]uint8, 4*16)
		for i := range plane {
			plane[i] = uint8(rng.Intn(256))
		}
		want := make([]uint8, len(plane))
		copy(want, plane)
		refReconstructAdd(want, 16, append([]uint8(nil), plane...), 16, &z, 20)
		ReconstructAdd(plane, 16, plane, 16, &z, 20)
		if string(plane) != string(want) {
			t.Fatalf("in-place result differs for %v", z)
		}
	}
}

// TestForwardQuantizeMatchesUnfused: the encoder's fused residual kernel is
// Quantize(Forward(src - pred)) — levels and nonzero report — at every QP
// (out-of-range ones clamp alike) and both dead zones, on random samples at
// several residual amplitudes and on the ±255 extremes in every sign
// pattern a 4×4 block's rows and columns can carry.
func TestForwardQuantizeMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const srcStride, predStride = 24, 16
	type planes struct{ src, pred []uint8 }
	var cases []planes
	for _, amp := range []int{0, 1, 6, 40, 255} {
		for n := 0; n < 12; n++ {
			c := planes{make([]uint8, 4*srcStride), make([]uint8, 4*predStride)}
			for i := range c.pred {
				c.pred[i] = uint8(rng.Intn(256))
			}
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					v := int(c.pred[1+y*predStride+x]) + rng.Intn(2*amp+1) - amp
					c.src[2+y*srcStride+x] = uint8(min(max(v, 0), 255))
				}
			}
			cases = append(cases, c)
		}
	}
	// Extremes: every sample's residual +255 or -255, by the sign patterns
	// of the transform's basis rows applied across and down the block.
	basis := [4][4]int{{1, 1, 1, 1}, {1, 1, -1, -1}, {1, -1, -1, 1}, {1, -1, 1, -1}}
	for _, rows := range basis {
		for _, cols := range basis {
			for _, flip := range []int{1, -1} {
				c := planes{make([]uint8, 4*srcStride), make([]uint8, 4*predStride)}
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						if rows[y]*cols[x]*flip > 0 {
							c.src[2+y*srcStride+x] = 255
						} else {
							c.pred[1+y*predStride+x] = 255
						}
					}
				}
				cases = append(cases, c)
			}
		}
	}
	for qp := -3; qp <= MaxQP+3; qp++ {
		for _, intra := range []bool{false, true} {
			for ci, c := range cases {
				var res Block
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						res[y*4+x] = int32(c.src[2+y*srcStride+x]) - int32(c.pred[1+y*predStride+x])
					}
				}
				fwd := Forward(&res)
				want := Quantize(&fwd, qp, intra)
				got := Block{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7} // stale levels must all be overwritten
				nonzero := ForwardQuantize(&got, c.src[2:], srcStride, c.pred[1:], predStride, qp, intra)
				if got != want || nonzero != (want != Block{}) {
					t.Fatalf("qp %d intra %v case %d (residual %v):\n got %v nonzero %v\nwant %v", qp, intra, ci, res, got, nonzero, want)
				}
			}
		}
	}
}

func BenchmarkForwardQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	src, pred := make([]uint8, 4*320), make([]uint8, 4*16)
	for i := range pred {
		pred[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			src[y*320+x] = uint8(min(max(int(pred[y*16+x])+rng.Intn(13)-6, 0), 255))
		}
	}
	var z Block
	for i := 0; i < b.N; i++ {
		ForwardQuantize(&z, src, 320, pred, 16, 26, false)
	}
}

func BenchmarkReconstructAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	z := randResidual(rng, 40)
	pred, dst := make([]uint8, 4*16), make([]uint8, 4*320)
	for _, c := range []struct {
		name string
		z    *Block
	}{{"coded", &z}, {"zero", nil}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ReconstructAdd(dst, 320, pred, 16, c.z, 26)
			}
		})
	}
}
