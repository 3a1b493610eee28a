//go:build amd64 && !purego

package predict

// sadRows is the row kernel under every SAD in this package: the sum of
// absolute differences of h rows of w bytes, a and b starting at the first
// row and advancing by their (non-negative) strides, checked against limit
// after every row — sadRowsSWAR's contract, value for value. The partition
// widths (16, 8 and 4 bytes) run the psadbw kernels of sad_amd64.s; the slice
// expressions bound the last byte the assembly reads.
func sadRows(a []uint8, aStride int, b []uint8, bStride int, w, h, limit int) int {
	if h <= 0 {
		return 0
	}
	switch w {
	case 16:
		return sadRows16(&a[:(h-1)*aStride+16][0], aStride, &b[:(h-1)*bStride+16][0], bStride, h, limit)
	case 8:
		return sadRows8(&a[:(h-1)*aStride+8][0], aStride, &b[:(h-1)*bStride+8][0], bStride, h, limit)
	case 4:
		return sadRows4(&a[:(h-1)*aStride+4][0], aStride, &b[:(h-1)*bStride+4][0], bStride, h, limit)
	}
	return sadRowsSWAR(a, aStride, b, bStride, w, h, limit)
}

// rowKernelFor returns the row kernel of w-byte rows: the psadbw kernels for
// the partition widths, the portable form for any other width up to a
// macroblock.
func rowKernelFor(w int) rowKernel {
	switch w {
	case 16:
		return sadRows16
	case 8:
		return sadRows8
	case 4:
		return sadRows4
	}
	return swarKernels[w]
}

// sadRows16, sadRows8 and sadRows4 are implemented in sad_amd64.s; h must be
// positive.
//
//go:noescape
func sadRows16(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int

//go:noescape
func sadRows8(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int

//go:noescape
func sadRows4(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int
