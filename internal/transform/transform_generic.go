//go:build !amd64 || purego

package transform

// forwardQuantize and reconstructAdd are the block kernels under
// ForwardQuantize and ReconstructAdd; without an assembly kernel for the
// target they are the portable Go forms.
func forwardQuantize(z *Block, src []uint8, srcStride int, pred []uint8, predStride int, mf *[16]int32, f int64, qbits uint) int {
	return forwardQuantizeGo(z, src, srcStride, pred, predStride, mf, f, qbits)
}

func reconstructAdd(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, v *[16]int32, shift uint) {
	reconstructAddGo(dst, dstStride, pred, predStride, z, v, shift)
}
