// Package transform implements the H.264 4×4 integer approximation of the
// DCT and its quantization, using the standard multiplication-factor (MF)
// and rescale (V) tables. The transform is bit-exact integer arithmetic,
// so encoder and decoder reconstructions match exactly — a requirement for
// tracking bit-flip damage without drift from floating-point noise.
package transform

// Block is a 4×4 coefficient or residual block in row-major order.
type Block [16]int32

// Quantization tables from the H.264 standard, indexed by QP%6 and by
// coefficient position class: class 0 for (even row, even col), class 1 for
// (odd, odd), class 2 otherwise.
var (
	mfTable = [6][3]int32{
		{13107, 5243, 8066},
		{11916, 4660, 7490},
		{10082, 4194, 6554},
		{9362, 3647, 5825},
		{8192, 3355, 5243},
		{7282, 2893, 4559},
	}
	vTable = [6][3]int32{
		{10, 16, 13},
		{11, 18, 14},
		{13, 20, 16},
		{14, 23, 18},
		{16, 25, 20},
		{18, 29, 23},
	}
)

// mfByPos and rescaleByPos are mfTable and vTable expanded by coefficient
// position, so the per-coefficient loops index them directly instead of
// classifying the position each time.
var mfByPos, rescaleByPos = expandByPos(mfTable), expandByPos(vTable)

func expandByPos(t [6][3]int32) (out [6][16]int32) {
	for q := range t {
		for i := 0; i < 16; i++ {
			out[q][i] = t[q][posClass(i)]
		}
	}
	return out
}

func posClass(i int) int {
	r, c := i/4, i%4
	switch {
	case r%2 == 0 && c%2 == 0:
		return 0
	case r%2 == 1 && c%2 == 1:
		return 1
	default:
		return 2
	}
}

// Forward applies the 4×4 forward core transform Y = Cf·X·Cfᵀ.
func Forward(x *Block) Block {
	var tmp, y Block
	// Rows: tmp = Cf · X (apply to each column of X... operate row-wise).
	for i := 0; i < 4; i++ {
		a, b, c, d := x[i*4], x[i*4+1], x[i*4+2], x[i*4+3]
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		tmp[i*4] = s0 + s1
		tmp[i*4+1] = 2*s3 + s2
		tmp[i*4+2] = s0 - s1
		tmp[i*4+3] = s3 - 2*s2
	}
	// Columns.
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		y[j] = s0 + s1
		y[4+j] = 2*s3 + s2
		y[8+j] = s0 - s1
		y[12+j] = s3 - 2*s2
	}
	return y
}

// Quantize maps transform coefficients to quantized levels at the given QP
// (0..51). intra selects the larger dead-zone rounding offset.
func Quantize(y *Block, qp int, intra bool) Block {
	qp = clampQP(qp)
	mf := &mfByPos[qp%6]
	qbits := uint(15 + qp/6)
	f := int64(1) << qbits / 6
	if intra {
		f = int64(1) << qbits / 3
	}
	var z Block
	for i := range y {
		m := int64(mf[i])
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

// Dequantize rescales quantized levels back to transform-domain values.
func Dequantize(z *Block, qp int) Block {
	qp = clampQP(qp)
	v := &rescaleByPos[qp%6]
	shift := uint(qp / 6)
	var w Block
	for i := range z {
		w[i] = z[i] * v[i] << shift
	}
	return w
}

// Inverse applies the 4×4 inverse core transform with the final >>6
// rounding, returning the reconstructed residual.
func Inverse(w *Block) Block {
	var tmp, x Block
	for i := 0; i < 4; i++ {
		a, b, c, d := w[i*4], w[i*4+1], w[i*4+2], w[i*4+3]
		e0 := a + c
		e1 := a - c
		e2 := b>>1 - d
		e3 := b + d>>1
		tmp[i*4] = e0 + e3
		tmp[i*4+1] = e1 + e2
		tmp[i*4+2] = e1 - e2
		tmp[i*4+3] = e0 - e3
	}
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		e0 := a + c
		e1 := a - c
		e2 := b>>1 - d
		e3 := b + d>>1
		x[j] = (e0 + e3 + 32) >> 6
		x[4+j] = (e1 + e2 + 32) >> 6
		x[8+j] = (e1 - e2 + 32) >> 6
		x[12+j] = (e0 - e3 + 32) >> 6
	}
	return x
}

// RoundTrip performs forward transform, quantization, dequantization and
// inverse transform — the complete lossy path a residual block undergoes.
func RoundTrip(x *Block, qp int, intra bool) Block {
	y := Forward(x)
	z := Quantize(&y, qp, intra)
	w := Dequantize(&z, qp)
	return Inverse(&w)
}

// ForwardQuantize is the residual kernel of one 4×4 block, fused: subtract
// the prediction from the source, forward-transform and quantize —
// *z = Quantize(Forward(src - pred), qp, intra), the same int32 and int64
// arithmetic in the same order — and report how many levels are nonzero,
// the count the entropy coders write first. src and pred start at the
// block's top-left sample of planes with the given row strides. All sixteen
// levels of z are written.
func ForwardQuantize(z *Block, src []uint8, srcStride int, pred []uint8, predStride int, qp int, intra bool) (nnz int) {
	qp = clampQP(qp)
	qbits := uint(15 + qp/6)
	f := int64(1) << qbits / 6
	if intra {
		f = int64(1) << qbits / 3
	}
	return forwardQuantize(z, src, srcStride, pred, predStride, &mfByPos[qp%6], f, qbits)
}

// forwardQuantizeGo is ForwardQuantize past the QP decoding: the portable
// kernel, and the oracle of its assembly twin.
func forwardQuantizeGo(z *Block, src []uint8, srcStride int, pred []uint8, predStride int, mf *[16]int32, f int64, qbits uint) int {
	var tmp Block
	for i := 0; i < 4; i++ {
		s, p := src[i*srcStride:][:4], pred[i*predStride:][:4]
		a, b, c, d := int32(s[0])-int32(p[0]), int32(s[1])-int32(p[1]), int32(s[2])-int32(p[2]), int32(s[3])-int32(p[3])
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		tmp[i*4], tmp[i*4+1], tmp[i*4+2], tmp[i*4+3] = s0+s1, 2*s3+s2, s0-s1, s3-2*s2
	}
	nnz := 0
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		q0 := quantLevel(s0+s1, mf[j], f, qbits)
		q1 := quantLevel(2*s3+s2, mf[4+j], f, qbits)
		q2 := quantLevel(s0-s1, mf[8+j], f, qbits)
		q3 := quantLevel(s3-2*s2, mf[12+j], f, qbits)
		z[j], z[4+j], z[8+j], z[12+j] = q0, q1, q2, q3
		nnz += isNonzero(q0) + isNonzero(q1) + isNonzero(q2) + isNonzero(q3)
	}
	return nnz
}

// isNonzero is 1 for a nonzero level and 0 for zero, without a branch: the
// sign bit of v|-v is set exactly when v is not zero.
func isNonzero(v int32) int { return int(uint32(v|-v) >> 31) }

// quantLevel quantizes one coefficient, sign(v) * ((|v|*mf + f) >> qbits),
// without a branch on the sign: with s = v>>31 (all ones for a negative v,
// zero otherwise), (x^s)-s negates x exactly when v is negative.
func quantLevel(v, mf int32, f int64, qbits uint) int32 {
	s := int64(v >> 31)
	q := (((int64(v)^s)-s)*int64(mf) + f) >> (qbits & 63)
	return int32((q ^ s) - s)
}

// Reconstruct dequantizes levels and applies the inverse transform: the
// unfused form of ReconstructAdd, and the reference its tests compare with.
func Reconstruct(z *Block, qp int) Block {
	w := Dequantize(z, qp)
	return Inverse(&w)
}

// ReconstructAdd is the reconstruction kernel of one 4×4 block, fused:
// dequantize z, inverse-transform, add the prediction, saturate to 8 bits
// and store — dst = clamp(pred + Reconstruct(z, qp)). dst and pred start at
// the block's top-left sample of planes with the given row strides; they may
// be the same samples, which is how the codec uses it — the prediction is
// written into the frame and the residual added in place. An all-zero block
// needs no call: every QP reconstructs it to a zero residual
// ((0+32)>>6 == 0), so its prediction already is its reconstruction.
func ReconstructAdd(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, qp int) {
	qp = clampQP(qp)
	reconstructAdd(dst, dstStride, pred, predStride, z, &rescaleByPos[qp%6], uint(qp/6))
}

// reconstructAddGo is ReconstructAdd past the QP decoding: the portable
// kernel, and the oracle of its assembly twin.
//
// A block whose levels 1–15 are zero (DC only) reconstructs to one constant
// residual, (z[0]·v[0]<<shift + 32) >> 6: the inverse transform's rows turn
// [a 0 0 0] into [a a a a] and its columns each [a 0 0 0] into four
// (a+32)>>6. Those are the int32 operations, wraparound included, the full
// path performs on such a block, so the shortcut is exact.
func reconstructAddGo(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, v *[16]int32, shift uint) {
	d0, d1, d2, d3 := dst[:4], dst[dstStride:dstStride+4], dst[2*dstStride:2*dstStride+4], dst[3*dstStride:3*dstStride+4]
	p0, p1, p2, p3 := pred[:4], pred[predStride:predStride+4], pred[2*predStride:2*predStride+4], pred[3*predStride:3*predStride+4]
	if z[1]|z[2]|z[3]|z[4]|z[5]|z[6]|z[7]|z[8]|z[9]|z[10]|z[11]|z[12]|z[13]|z[14]|z[15] == 0 {
		r := (z[0]*v[0]<<shift + 32) >> 6
		for j := 0; j < 4; j++ {
			d0[j], d1[j], d2[j], d3[j] = addClamp(p0[j], r), addClamp(p1[j], r), addClamp(p2[j], r), addClamp(p3[j], r)
		}
		return
	}
	// Rows of the inverse transform over the rescaled levels, then columns
	// with the final rounding: the same int32 arithmetic, in the same
	// order, as Inverse(Dequantize(z)).
	var tmp Block
	for i := 0; i < 16; i += 4 {
		a, b, c, d := z[i]*v[i]<<shift, z[i+1]*v[i+1]<<shift, z[i+2]*v[i+2]<<shift, z[i+3]*v[i+3]<<shift
		e0, e1 := a+c, a-c
		e2, e3 := b>>1-d, b+d>>1
		tmp[i], tmp[i+1], tmp[i+2], tmp[i+3] = e0+e3, e1+e2, e1-e2, e0-e3
	}
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		e0, e1 := a+c, a-c
		e2, e3 := b>>1-d, b+d>>1
		d0[j] = addClamp(p0[j], (e0+e3+32)>>6)
		d1[j] = addClamp(p1[j], (e1+e2+32)>>6)
		d2[j] = addClamp(p2[j], (e1-e2+32)>>6)
		d3[j] = addClamp(p3[j], (e0-e3+32)>>6)
	}
}

// addClamp adds a residual to a prediction sample and saturates to 8 bits.
func addClamp(p uint8, r int32) uint8 {
	v := int32(p) + r
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// MaxQP is the largest legal quantization parameter.
const MaxQP = 51

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > MaxQP {
		return MaxQP
	}
	return qp
}

// ClampQP exposes QP clamping to the encoder and decoder so that corrupt
// delta-QP values decode to a legal quantizer instead of panicking.
func ClampQP(qp int) int { return clampQP(qp) }
