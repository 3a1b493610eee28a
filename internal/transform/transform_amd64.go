//go:build amd64 && !purego

package transform

// forwardQuantize and reconstructAdd are the block kernels under
// ForwardQuantize and ReconstructAdd, with forwardQuantizeGo's and
// reconstructAddGo's contracts, value for value; they run the SSE2 kernels of
// transform_amd64.s. The slice expressions bound the last byte the assembly
// reads or writes.
func forwardQuantize(z *Block, src []uint8, srcStride int, pred []uint8, predStride int, mf *[16]int32, f int64, qbits uint) int {
	return forwardQuantize4x4(z, &src[:3*srcStride+4][0], srcStride, &pred[:3*predStride+4][0], predStride, mf, f, qbits)
}

func reconstructAdd(dst []uint8, dstStride int, pred []uint8, predStride int, z *Block, v *[16]int32, shift uint) {
	reconstructAdd4x4(&dst[:3*dstStride+4][0], dstStride, &pred[:3*predStride+4][0], predStride, z, v, shift)
}

// forwardQuantize4x4 and reconstructAdd4x4 are implemented in
// transform_amd64.s.
//
//go:noescape
func forwardQuantize4x4(z *Block, src *uint8, srcStride int, pred *uint8, predStride int, mf *[16]int32, f int64, qbits uint) int

//go:noescape
func reconstructAdd4x4(dst *uint8, dstStride int, pred *uint8, predStride int, z *Block, v *[16]int32, shift uint)
