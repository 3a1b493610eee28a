// Package bch implements binary BCH error-correcting codes over GF(2^10),
// shortened to protect 512-bit storage blocks, matching the BCH-X codes of
// Figure 8 in the paper: a BCH-t code adds 10·t parity bits per 512-bit block
// and corrects any t bit errors within the protected block (data + parity;
// the codes are self-correcting).
package bch

import (
	"fmt"

	"videoapp/internal/gf"
)

// BlockDataBits is the payload size protected by one code block, matching
// the 512-bit PCM blocks used in the paper.
const BlockDataBits = 512

// Code is a shortened binary BCH code correcting up to T errors per block.
type Code struct {
	field   *gf.Field
	t       int      // correction capability
	gen     gf.Poly2 // generator polynomial
	parity  int      // number of parity bits = deg(gen)
	dataLen int      // payload bits per block
}

// New constructs a shortened BCH code over GF(2^10) (natural length 1023)
// with dataBits payload bits per block, correcting up to t errors.
func New(t, dataBits int) (*Code, error) {
	if t < 1 || t > 58 {
		return nil, fmt.Errorf("bch: unsupported correction capability t=%d", t)
	}
	f := gf.MustField(10)
	gen := gf.One()
	seen := map[int]bool{}
	for i := 1; i <= 2*t-1; i += 2 {
		// Skip exponents already covered by an earlier cyclotomic coset.
		if cosetCovered(seen, i, f.N()) {
			continue
		}
		gen = gen.Mul(f.MinimalPoly(i))
	}
	parity := gen.Degree()
	if dataBits+parity > f.N() {
		return nil, fmt.Errorf("bch: block of %d+%d bits exceeds code length %d", dataBits, parity, f.N())
	}
	return &Code{field: f, t: t, gen: gen, parity: parity, dataLen: dataBits}, nil
}

// MustNew is New panicking on error; for statically valid parameters.
func MustNew(t, dataBits int) *Code {
	c, err := New(t, dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

func cosetCovered(seen map[int]bool, i, n int) bool {
	if seen[i] {
		return true
	}
	for e := i; !seen[e]; e = e * 2 % n {
		seen[e] = true
	}
	return false
}

// T returns the number of errors the code corrects per block.
func (c *Code) T() int { return c.t }

// ParityBits returns the number of parity bits appended per block.
func (c *Code) ParityBits() int { return c.parity }

// BlockBits returns the total coded block size in bits.
func (c *Code) BlockBits() int { return c.dataLen + c.parity }

// Overhead returns the storage overhead, parity bits / data bits.
func (c *Code) Overhead() float64 {
	return float64(c.parity) / float64(c.dataLen)
}

// Encode computes the systematic codeword for the given data bits
// (data[i] in {0,1}, as many as New's dataBits) and returns data followed
// by ParityBits parity bits.
func (c *Code) Encode(data []int) ([]int, error) {
	if len(data) != c.dataLen {
		return nil, fmt.Errorf("bch: payload is %d bits, want %d", len(data), c.dataLen)
	}
	// Systematic encoding with an LFSR: remainder of data(x)·x^parity mod g(x).
	// rem holds the shift register, rem[0] is the highest-order stage.
	rem := make([]int, c.parity)
	for _, bit := range data {
		fb := bit ^ rem[0]
		copy(rem, rem[1:])
		rem[c.parity-1] = 0
		if fb == 1 {
			for j := 0; j < c.parity; j++ {
				// Stage j corresponds to coefficient x^(parity-1-j) of g,
				// excluding the leading x^parity term.
				if c.gen.Bit(c.parity-1-j) == 1 {
					rem[j] ^= 1
				}
			}
		}
	}
	out := make([]int, 0, c.dataLen+c.parity)
	out = append(out, data...)
	out = append(out, rem...)
	return out, nil
}

// Decode corrects up to T bit errors in the coded block in place and
// returns the corrected payload, the number of corrected errors, and whether
// decoding succeeded. On failure (more than T errors or an inconsistent
// syndrome) the payload is returned as stored, uncorrected.
func (c *Code) Decode(block []int) (data []int, corrected int, ok bool) {
	if len(block) != c.BlockBits() {
		return nil, 0, false
	}
	nBits := len(block)
	// Syndromes S_j = r(alpha^j) for j = 1..2t. Bit i of the block is the
	// coefficient of x^(nBits-1-i).
	synd := make([]int, 2*c.t+1)
	anyErr := false
	for j := 1; j <= 2*c.t; j++ {
		s := 0
		for i, bit := range block {
			if bit == 1 {
				s ^= c.field.Exp(j * (nBits - 1 - i))
			}
		}
		synd[j] = s
		if s != 0 {
			anyErr = true
		}
	}
	if !anyErr {
		return append([]int(nil), block[:c.dataLen]...), 0, true
	}
	sigma := c.berlekampMassey(synd)
	degree := len(sigma) - 1
	if degree > c.t {
		return append([]int(nil), block[:c.dataLen]...), 0, false
	}
	// Chien search over the shortened positions: position i has exponent
	// e = nBits-1-i; it is in error iff sigma(alpha^{-e}) == 0.
	locs := []int{}
	for i := 0; i < nBits; i++ {
		e := nBits - 1 - i
		x := c.field.Exp(-e)
		v := 0
		for d, coef := range sigma {
			if coef != 0 {
				v ^= c.field.Mul(coef, c.field.Pow(x, d))
			}
		}
		if v == 0 {
			locs = append(locs, i)
		}
	}
	if len(locs) != degree {
		return append([]int(nil), block[:c.dataLen]...), 0, false
	}
	for _, i := range locs {
		block[i] ^= 1
	}
	return append([]int(nil), block[:c.dataLen]...), len(locs), true
}

// berlekampMassey computes the error-locator polynomial sigma from the
// syndromes (synd[1..2t]); sigma[d] is the coefficient of x^d.
func (c *Code) berlekampMassey(synd []int) []int {
	f := c.field
	sigma := []int{1}
	b := []int{1}
	var l, m int = 0, 1
	bCoef := 1
	for n := 1; n <= 2*c.t; n++ {
		// Discrepancy d = S_n + sum_{i=1..l} sigma_i * S_{n-i}.
		d := synd[n]
		for i := 1; i <= l && i < len(sigma); i++ {
			if sigma[i] != 0 && n-i >= 1 {
				d ^= f.Mul(sigma[i], synd[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		// sigma' = sigma - (d/bCoef) x^m b(x)
		scale := f.Div(d, bCoef)
		next := make([]int, max(len(sigma), len(b)+m))
		copy(next, sigma)
		for i, coef := range b {
			if coef != 0 {
				next[i+m] ^= f.Mul(scale, coef)
			}
		}
		if 2*l <= n-1 {
			b = sigma
			bCoef = d
			l = n - l
			m = 1
		} else {
			m++
		}
		sigma = next
	}
	// Trim trailing zeros.
	end := len(sigma)
	for end > 1 && sigma[end-1] == 0 {
		end--
	}
	return sigma[:end]
}
