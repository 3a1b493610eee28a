// Package sim provides the Monte-Carlo machinery of §6.4: reproducible
// random error placement with exact binomial statistics (via geometric
// skipping) and the paper's scaling rule
// for very low error rates (guarantee at least one flip, then scale the
// measured loss by the probability that any flip occurs).
package sim

import (
	"math"
	"math/rand"

	"videoapp/internal/bitio"
)

// MaxGeometric is the clamp on Geometric's return value: large enough that
// no realistic trial count reaches it (2^62 trials), small enough that the
// idiomatic advance pos + 1 + Geometric(...) cannot wrap negative for any
// position within a real stream. Before the clamp, the p <= 0 path returned
// math.MaxInt64 and the +1 alone overflowed.
const MaxGeometric = math.MaxInt64 >> 1

// Geometric samples the number of failures before the first success of a
// Bernoulli(p) process (support {0, 1, 2, ...}), clamped to MaxGeometric.
// p <= 0 (no success possible) returns MaxGeometric.
func Geometric(rng *rand.Rand, p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return MaxGeometric
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := math.Log(u) / math.Log1p(-p)
	if g >= float64(MaxGeometric) {
		// Also guards the float-to-int conversion, whose behaviour on
		// overflow is implementation-specific.
		return MaxGeometric
	}
	return int64(g)
}

// VisitErrorPositions calls visit, in increasing order, with the position of
// every iid Bernoulli(p) error among n Bernoulli trials, using geometric
// jumps: one Geometric variate per visited position plus the terminating
// draw, and no allocation. The number of visits is exactly Binomial(n, p)-
// distributed. The advance is overflow-safe for every n.
func VisitErrorPositions(rng *rand.Rand, n int64, p float64, visit func(pos int64)) {
	pos := Geometric(rng, p)
	for pos < n {
		visit(pos)
		// Terminate on the draw itself when the jump would land at or past
		// n: pos + 1 + adv >= n  <=>  adv >= n - pos - 1. The subtraction is
		// non-negative (pos < n), so the comparison cannot wrap even when
		// adv is MaxGeometric.
		adv := Geometric(rng, p)
		if adv >= n-pos-1 {
			return
		}
		pos += 1 + adv
	}
}

// FlipIID flips each of the first bits bits of buf independently with
// probability p and returns the number of flips.
func FlipIID(rng *rand.Rand, buf []byte, bits int64, p float64) int {
	if bits > int64(len(buf))*8 {
		bits = int64(len(buf)) * 8
	}
	n := 0
	VisitErrorPositions(rng, bits, p, func(pos int64) {
		bitio.FlipBit(buf, pos)
		n++
	})
	return n
}

// ForcedFlip describes the §6.4 low-rate methodology: when p·bits is so
// small that most runs see no error, inject exactly one flip at a uniform
// position and scale the measured quality loss by the probability that at
// least one error occurs in a video of this size.
type ForcedFlip struct {
	// Scale multiplies the measured quality loss.
	Scale float64
	// Position is the injected flip position.
	Position int64
}

// AnyErrorProb returns 1 - (1-p)^bits, the probability that a stream of the
// given size suffers at least one error.
func AnyErrorProb(bits int64, p float64) float64 {
	return -math.Expm1(float64(bits) * math.Log1p(-p))
}

// ForceOneFlip picks a uniform flip position and the §6.4 scale factor.
func ForceOneFlip(rng *rand.Rand, bits int64, p float64) ForcedFlip {
	return ForcedFlip{
		Scale:    AnyErrorProb(bits, p),
		Position: rng.Int63n(max(bits, 1)),
	}
}

// LowRateThreshold is the expected-flip count below which experiments switch
// to the forced-flip methodology.
const LowRateThreshold = 0.5

// UseForcedFlip reports whether the forced-flip path should be used for a
// stream of the given size at rate p.
func UseForcedFlip(bits int64, p float64) bool {
	return float64(bits)*p < LowRateThreshold
}
