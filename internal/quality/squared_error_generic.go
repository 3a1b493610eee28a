//go:build !amd64 || purego

package quality

// squaredError sums (a[i]-b[i])² over a; b must be at least as long.
// Without an assembly kernel for the target it is the portable scalar form.
func squaredError(a, b []uint8) uint64 { return squaredErrorScalar(a, b) }
