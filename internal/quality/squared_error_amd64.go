//go:build amd64 && !purego

package quality

// squaredError sums (a[i]-b[i])² over a; b must be at least as long — the
// value squaredErrorScalar returns. Whole 16-byte steps run the SSE2 kernel
// of squared_error_amd64.s, the remaining len(a)%16 samples the scalar form.
func squaredError(a, b []uint8) uint64 {
	b = b[:len(a)]
	n := len(a) &^ 15
	var s uint64
	if n > 0 {
		s = squaredError16(&a[0], &b[0], n)
	}
	return s + squaredErrorScalar(a[n:], b[n:])
}

// squaredError16 is implemented in squared_error_amd64.s; n must be a
// positive multiple of 16.
//
//go:noescape
func squaredError16(a, b *uint8, n int) uint64
