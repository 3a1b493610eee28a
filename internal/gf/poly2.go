package gf

// Poly2 is a polynomial over GF(2), stored as a little-endian bitset:
// word w bit b holds the coefficient of x^(64w+b). The zero value is the
// zero polynomial. Poly2 values are immutable; operations return new values.
type Poly2 []uint64

// Poly2FromCoeffs builds a polynomial from the exponents with coefficient 1.
func Poly2FromCoeffs(exponents ...int) Poly2 {
	var p Poly2
	for _, e := range exponents {
		p = p.setBit(e)
	}
	return p
}

// One is the constant polynomial 1.
func One() Poly2 { return Poly2{1} }

func (p Poly2) setBit(d int) Poly2 {
	w := d / 64
	q := make(Poly2, max(len(p), w+1))
	copy(q, p)
	q[w] ^= 1 << uint(d%64)
	return q
}

// Bit returns the coefficient of x^d.
func (p Poly2) Bit(d int) int {
	w := d / 64
	if d < 0 || w >= len(p) {
		return 0
	}
	return int(p[w] >> uint(d%64) & 1)
}

// Degree returns the degree, or -1 for the zero polynomial.
func (p Poly2) Degree() int {
	for w := len(p) - 1; w >= 0; w-- {
		if p[w] != 0 {
			d := 63
			for p[w]>>uint(d)&1 == 0 {
				d--
			}
			return 64*w + d
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly2) IsZero() bool { return p.Degree() == -1 }

// Add returns p + q (XOR of coefficients).
func (p Poly2) Add(q Poly2) Poly2 {
	r := make(Poly2, max(len(p), len(q)))
	copy(r, p)
	for i, w := range q {
		r[i] ^= w
	}
	return r.trim()
}

// Mul returns the product p·q over GF(2).
func (p Poly2) Mul(q Poly2) Poly2 {
	dp, dq := p.Degree(), q.Degree()
	if dp < 0 || dq < 0 {
		return nil
	}
	r := make(Poly2, (dp+dq)/64+1)
	for i := 0; i <= dp; i++ {
		if p.Bit(i) == 0 {
			continue
		}
		for j := 0; j <= dq; j++ {
			if q.Bit(j) == 1 {
				d := i + j
				r[d/64] ^= 1 << uint(d%64)
			}
		}
	}
	return r.trim()
}

// Mod returns p mod q; q must be nonzero.
func (p Poly2) Mod(q Poly2) Poly2 {
	dq := q.Degree()
	if dq < 0 {
		panic("gf: modulo by zero polynomial")
	}
	r := make(Poly2, len(p))
	copy(r, p)
	for {
		dr := r.Degree()
		if dr < dq {
			return r.trim()
		}
		shift := dr - dq
		for j := 0; j <= dq; j++ {
			if q.Bit(j) == 1 {
				d := j + shift
				r[d/64] ^= 1 << uint(d%64)
			}
		}
	}
}

// Equal reports whether p and q have identical coefficients.
func (p Poly2) Equal(q Poly2) bool {
	n := max(len(p), len(q))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

func (p Poly2) trim() Poly2 {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}
