//go:build !amd64 || purego

package predict

// sadRows is the row kernel under every SAD in this package; without an
// assembly kernel for the target it is the portable SWAR form.
func sadRows(a []uint8, aStride int, b []uint8, bStride int, w, h, limit int) int {
	return sadRowsSWAR(a, aStride, b, bStride, w, h, limit)
}

// rowKernelFor returns the row kernel of w-byte rows, w up to a macroblock.
func rowKernelFor(w int) rowKernel { return swarKernels[w] }
