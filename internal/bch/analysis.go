package bch

import "math"

// Scheme describes one error-correction configuration from the paper's
// Figure 8 / Table 1: a BCH-t code over 512-bit blocks on a substrate with
// raw bit error rate 10^-3, together with the nominal post-correction error
// rate the paper quotes for it.
type Scheme struct {
	Name string
	// T is the per-block correction capability; 0 means no correction.
	T int
	// NominalRate is the post-correction bit error rate the paper assigns
	// (e.g. 1e-6 for BCH-6). T == 0 keeps the substrate's raw rate.
	NominalRate float64
}

// Overhead returns the storage overhead of the scheme (parity/data) for
// 512-bit blocks: 10·t/512.
func (s Scheme) Overhead() float64 {
	return float64(10*s.T) / float64(BlockDataBits)
}

// Standard schemes used in the paper (Figure 8 and Table 1).
var (
	SchemeNone  = Scheme{Name: "None", T: 0, NominalRate: 1e-3}
	SchemeBCH6  = Scheme{Name: "BCH-6", T: 6, NominalRate: 1e-6}
	SchemeBCH7  = Scheme{Name: "BCH-7", T: 7, NominalRate: 1e-7}
	SchemeBCH8  = Scheme{Name: "BCH-8", T: 8, NominalRate: 1e-8}
	SchemeBCH9  = Scheme{Name: "BCH-9", T: 9, NominalRate: 1e-9}
	SchemeBCH10 = Scheme{Name: "BCH-10", T: 10, NominalRate: 1e-10}
	SchemeBCH11 = Scheme{Name: "BCH-11", T: 11, NominalRate: 1e-11}
	SchemeBCH16 = Scheme{Name: "BCH-16", T: 16, NominalRate: 1e-16}
)

// Schemes lists the ladder of schemes available to the assignment algorithm,
// ordered from weakest to strongest.
var Schemes = []Scheme{
	SchemeNone, SchemeBCH6, SchemeBCH7, SchemeBCH8, SchemeBCH9,
	SchemeBCH10, SchemeBCH11, SchemeBCH16,
}

// UncorrectableBlockProb returns the probability that a coded block of
// n = 512 + 10·t bits suffers more than t raw errors at raw bit error rate p,
// i.e. the probability the block cannot be corrected.
func UncorrectableBlockProb(t int, p float64) float64 {
	if t <= 0 {
		// No correction: the block is "uncorrectable" whenever any bit
		// flips; callers use the raw rate directly instead.
		return 1 - math.Pow(1-p, float64(BlockDataBits))
	}
	return UncorrectableBlockProbN(BlockDataBits+10*t, t, p)
}

// UncorrectableBlockProbN is the general form: P(X > t) for
// X ~ Binomial(n, p), computed in log space so that rates down to 1e-18
// stay meaningful.
func UncorrectableBlockProbN(n, t int, p float64) float64 {
	// The series decays geometrically with ratio ~np/k past the mean, so a
	// bounded number of terms suffices at the small p of interest.
	var total float64
	for k := t + 1; k <= t+64 && k <= n; k++ {
		total += math.Exp(logBinomPMF(n, k, p))
	}
	return total
}

// ResidualBitErrorRate estimates the post-correction bit error rate of a
// BCH-t scheme at raw rate p: when a block fails, the expected number of
// erroneous payload bits is slightly above t+1 (the decoder also leaves the
// original errors in place), spread over the payload.
func ResidualBitErrorRate(t int, p float64) float64 {
	if t <= 0 {
		return p
	}
	n := BlockDataBits + 10*t
	blockFail := UncorrectableBlockProb(t, p)
	expectedErrs := float64(t + 1)
	return blockFail * expectedErrs / float64(n) * float64(n) / float64(BlockDataBits)
}

func logBinomPMF(n, k int, p float64) float64 {
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	logC := lg(float64(n+1)) - lg(float64(k+1)) - lg(float64(n-k+1))
	return logC + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}
