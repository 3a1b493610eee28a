package transform

import (
	"encoding/binary"
	"math"
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

// refReconstructAdd is the decoder's old inner loop: Reconstruct the block,
// then add and saturate one sample at a time.
func refReconstructAdd(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, qp int) {
	recon := Reconstruct(z, qp)
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

// reconstructBlocks are the inputs of the ReconstructAdd differential tests:
// testBlocks, then DC-only blocks — the kernel's shortcut — from the all-zero
// block through small levels and the decoder's ±maxLevel clamp to hostile
// magnitudes whose dequantization wraps int32, as the full path wraps them.
func reconstructBlocks(rng *rand.Rand) []Block {
	out := testBlocks(rng)
	dcs := []int32{0, 1, -1, 2, -3, 31, -32, 300, -300, maxLevel, -maxLevel, 1 << 20, -(1 << 20), 1 << 26, math.MaxInt32, math.MinInt32}
	for n := 0; n < 16; n++ {
		dcs = append(dcs, int32(rng.Uint32()))
	}
	for _, dc := range dcs {
		out = append(out, Block{dc})
	}
	return out
}

// checkReconstructAdd runs ReconstructAdd against Reconstruct + add + clamp
// at every QP over reconstructBlocks, on predictions that are random or
// saturate at both ends, with the prediction in another plane or — the
// codec's use — in the destination itself. A sentinel around the block must
// not move.
func checkReconstructAdd(t *testing.T, inPlace bool) {
	rng := rand.New(rand.NewSource(12))
	blocks := reconstructBlocks(rng)
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
				got[i], want[i] = 0xA5, 0xA5
			}
			refReconstructAdd(want[2:], dstStride, pred[1:], predStride, &blocks[bi], qp)
			if inPlace {
				for y := 0; y < 4; y++ {
					copy(got[2+y*dstStride:][:4], pred[1+y*predStride:])
				}
				ReconstructAdd(got[2:], dstStride, got[2:], dstStride, &blocks[bi], qp)
			} else {
				ReconstructAdd(got[2:], dstStride, pred[1:], predStride, &blocks[bi], qp)
			}
			if string(got) != string(want) {
				t.Fatalf("in place %v qp %d block %d (%v):\n got %v\nwant %v", inPlace, qp, bi, blocks[bi], got, want)
			}
		}
	}
}

func TestReconstructAddMatchesReference(t *testing.T) { checkReconstructAdd(t, false) }

// TestReconstructAddInPlace covers the codec's use (and the layered
// decoder's): the residual is added onto the plane the prediction was
// written into.
func TestReconstructAddInPlace(t *testing.T) { checkReconstructAdd(t, true) }

// fuzzStride maps a fuzzer byte to a row stride of 4 to 67 samples.
func fuzzStride(b uint8) int { return 4 + int(b)%64 }

// fuzzPlane is a plane of 4 rows at the given stride, filled cyclically from
// samples (zero when samples is empty).
func fuzzPlane(samples []byte, stride int) []uint8 {
	p := make([]uint8, 4*stride)
	for i := range p {
		if len(samples) > 0 {
			p[i] = samples[i%len(samples)]
		}
	}
	return p
}

// FuzzReconstructAddMatchesReference: ReconstructAdd equals Reconstruct +
// add + clamp for arbitrary levels (little-endian int32s, wraparound
// included), QPs out of range on both sides, strides, and predictions in
// another plane or in the destination itself; samples beside the block
// must not move.
func FuzzReconstructAddMatchesReference(f *testing.F) {
	le := func(z Block) []byte {
		b := make([]byte, 64)
		for i, v := range z {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		return b
	}
	f.Add(le(Block{}), []byte{7}, int8(26), uint8(0), uint8(12), false)
	f.Add(le(Block{-7}), []byte{0, 255}, int8(51), uint8(16), uint8(0), true)
	f.Add(le(Block{maxLevel, -maxLevel, 3, 0, 0, 9, 0, -1, 0, 0, 0, 0, 5, 0, 0, maxLevel}), []byte{128, 3, 250}, int8(40), uint8(3), uint8(60), false)
	f.Add(le(Block{math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32}), []byte{255}, int8(-3), uint8(1), uint8(1), true)
	f.Fuzz(func(t *testing.T, levels, samples []byte, qp int8, dstStrideB, predStrideB uint8, inPlace bool) {
		var z Block
		for i := range z {
			var w [4]byte
			copy(w[:], levels[min(4*i, len(levels)):])
			z[i] = int32(binary.LittleEndian.Uint32(w[:]))
		}
		dstStride, predStride := fuzzStride(dstStrideB), fuzzStride(predStrideB)
		pred := fuzzPlane(samples, predStride)
		want := fuzzPlane([]byte{0xA5}, dstStride)
		got := fuzzPlane([]byte{0xA5}, dstStride)
		refReconstructAdd(want, dstStride, pred, predStride, &z, int(qp))
		if inPlace {
			for y := 0; y < 4; y++ {
				copy(got[y*dstStride:][:4], pred[y*predStride:])
			}
			ReconstructAdd(got, dstStride, got, dstStride, &z, int(qp))
		} else {
			ReconstructAdd(got, dstStride, pred, predStride, &z, int(qp))
		}
		if string(got) != string(want) {
			t.Fatalf("in place %v qp %d levels %v:\n got %v\nwant %v", inPlace, qp, z, got, want)
		}
	})
}

// TestZeroBlockReconstructsToZeroAtEveryQP pins the invariant the codec's
// zero-block skip relies on: no QP turns all-zero levels into a nonzero
// residual, so leaving a block with no levels at its prediction is what the
// full kernel would have stored.
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
		full := append([]uint8(nil), pred...)
		ReconstructAdd(full, 16, full, 16, &z, qp)
		if string(full) != string(pred) {
			t.Fatalf("QP %d: a zero block moved its prediction %v to %v", qp, pred, full)
		}
	}
}

// nonzeroLevels counts the nonzero levels of z, one at a time.
func nonzeroLevels(z *Block) int {
	n := 0
	for _, v := range z {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestForwardQuantizeMatchesUnfused: the encoder's fused residual kernel is
// Quantize(Forward(src - pred)) — levels and nonzero count — at every QP
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
				nnz := ForwardQuantize(&got, c.src[2:], srcStride, c.pred[1:], predStride, qp, intra)
				if got != want || nnz != nonzeroLevels(&want) {
					t.Fatalf("qp %d intra %v case %d (residual %v):\n got %v nnz %d\nwant %v", qp, intra, ci, res, got, nnz, want)
				}
			}
		}
	}
}

// FuzzForwardQuantizeMatchesUnfused: ForwardQuantize equals
// Quantize(Forward(src - pred)) — levels and nonzero count — for arbitrary
// samples, strides, QPs out of range on both sides and both dead zones, with
// the prediction in another plane, the source plane itself, or the source
// plane one sample over.
func FuzzForwardQuantizeMatchesUnfused(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), int8(26), false, uint8(0))
	f.Add([]byte{0, 255, 255, 0, 17, 200}, uint8(12), uint8(3), int8(0), true, uint8(0))
	f.Add([]byte{255, 0}, uint8(1), uint8(60), int8(54), false, uint8(0))
	f.Add([]byte{9, 250, 33, 4, 128}, uint8(5), uint8(5), int8(-3), true, uint8(1))
	f.Add([]byte{1, 2, 254, 90, 0, 255, 77}, uint8(20), uint8(20), int8(30), false, uint8(2))
	f.Fuzz(func(t *testing.T, samples []byte, srcStrideB, predStrideB uint8, qp int8, intra bool, alias uint8) {
		srcStride, predStride := fuzzStride(srcStrideB), fuzzStride(predStrideB)
		src := fuzzPlane(samples, srcStride+1) // a spare sample per row: src[1:] still holds a block
		var pred []uint8
		switch alias % 3 {
		case 0:
			pred = fuzzPlane(samples[min(7, len(samples)):], predStride)
		case 1:
			pred, predStride = src, srcStride
		case 2:
			pred, predStride = src[1:], srcStride
		}
		var res Block
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				res[y*4+x] = int32(src[y*srcStride+x]) - int32(pred[y*predStride+x])
			}
		}
		fwd := Forward(&res)
		want := Quantize(&fwd, int(qp), intra)
		got := Block{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
		nnz := ForwardQuantize(&got, src, srcStride, pred, predStride, int(qp), intra)
		if got != want || nnz != nonzeroLevels(&want) {
			t.Fatalf("qp %d intra %v residual %v:\n got %v nnz %d\nwant %v", qp, intra, res, got, nnz, want)
		}
	})
}

// BenchmarkForwardQuantize times the encoder's residual kernel on one 4×4
// block ("block") and on the sixteen luma blocks of a 16×16 macroblock
// ("mb16"), the source in a 320-sample-wide plane and the prediction in a
// 16-wide one, the residual within ±6.
func BenchmarkForwardQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	src, pred := make([]uint8, 16*320), make([]uint8, 16*16)
	for i := range pred {
		pred[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			src[y*320+x] = uint8(min(max(int(pred[y*16+x])+rng.Intn(13)-6, 0), 255))
		}
	}
	var z [16]Block
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForwardQuantize(&z[0], src, 320, pred, 16, 26, false)
		}
	})
	b.Run("mb16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range z {
				x, y := 4*(k%4), 4*(k/4)
				ForwardQuantize(&z[k], src[y*320+x:], 320, pred[y*16+x:], 16, 26, false)
			}
		}
	})
}

// BenchmarkReconstructAdd times one 4×4 block: coded (every level random)
// from a separate prediction, DC-only, and coded in place — the codec's use,
// the prediction already in the destination plane; there the block and its
// negation alternate, so the samples do not drift into saturation.
func BenchmarkReconstructAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	z, dc := randResidual(rng, 40), Block{-7}
	var zs [2]Block
	for i := range z {
		zs[0][i], zs[1][i] = z[i], -z[i]
	}
	pred, dst := make([]uint8, 4*16), make([]uint8, 4*320)
	for i := range pred {
		pred[i] = uint8(rng.Intn(256))
	}
	for y := 0; y < 4; y++ {
		copy(dst[y*320:][:4], pred[y*16:])
	}
	b.Run("coded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReconstructAdd(dst, 320, pred, 16, &z, 26)
		}
	})
	b.Run("dc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReconstructAdd(dst, 320, pred, 16, &dc, 26)
		}
	})
	b.Run("inplace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReconstructAdd(dst, 320, dst, 320, &zs[i&1], 26)
		}
	})
}
