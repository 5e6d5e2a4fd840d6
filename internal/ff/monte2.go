package ff

import "math/big"

// Montgomery-domain arithmetic for F_q² = F_q[i]/(i²+1), the limb-core
// counterpart of e2.go. An E2Fel carries both coordinates as fixed-width limb
// vectors in the Montgomery domain; the projective Miller loop, the final
// exponentiation and the GT ladders run entirely on these, converting to
// big.Int-backed E2 values only at their boundaries.

// E2Fel is a + b·i with both coordinates in the Montgomery domain. Like Fel
// it is a value type: copies don't alias and temporaries live on the stack.
type E2Fel struct {
	A, B Fel
}

// E2SetOne sets dst = 1.
func (m *Mont) E2SetOne(dst *E2Fel) {
	m.SetOne(&dst.A)
	m.SetZero(&dst.B)
}

// E2IsZero reports whether x == 0.
func (m *Mont) E2IsZero(x *E2Fel) bool { return m.IsZero(&x.A) && m.IsZero(&x.B) }

// E2FromE2 encodes a big.Int-backed extension element into the domain.
func (m *Mont) E2FromE2(dst *E2Fel, x *E2) {
	m.FromBig(&dst.A, x.A)
	m.FromBig(&dst.B, x.B)
}

// E2ToE2 decodes back to a canonical big.Int-backed element.
func (m *Mont) E2ToE2(x *E2Fel) *E2 {
	return &E2{A: m.ToBig(&x.A), B: m.ToBig(&x.B)}
}

// E2Mul sets dst = x·y via the Karatsuba split (ac, bd, (a+b)(c+d)): three
// CIOS multiplications and five limb additions. dst may alias x and/or y.
func (m *Mont) E2Mul(dst, x, y *E2Fel) {
	var ac, bd, sx, sy, cross Fel
	m.Mul(&ac, &x.A, &y.A)
	m.Mul(&bd, &x.B, &y.B)
	m.Add(&sx, &x.A, &x.B)
	m.Add(&sy, &y.A, &y.B)
	m.Mul(&cross, &sx, &sy)
	m.Sub(&cross, &cross, &ac)
	m.Sub(&cross, &cross, &bd)
	m.Sub(&dst.A, &ac, &bd)
	dst.B = cross
}

// E2Sqr sets dst = x² = (a+b)(a−b) + 2ab·i: two CIOS multiplications.
// dst may alias x.
func (m *Mont) E2Sqr(dst, x *E2Fel) {
	var s, d, re, im Fel
	m.Add(&s, &x.A, &x.B)
	m.Sub(&d, &x.A, &x.B)
	m.Mul(&re, &s, &d)
	m.Mul(&im, &x.A, &x.B)
	m.Dbl(&im, &im)
	dst.A = re
	dst.B = im
}

// E2MulSparse sets dst = x·(c0 + c1·i) for base-field coefficients — the
// shape of every Miller-loop line value. dst may alias x.
func (m *Mont) E2MulSparse(dst, x *E2Fel, c0, c1 *Fel) {
	var t0, t1, re, im Fel
	m.Mul(&t0, &x.A, c0)
	m.Mul(&t1, &x.B, c1)
	m.Sub(&re, &t0, &t1) // a·c0 − b·c1
	m.Mul(&t0, &x.A, c1)
	m.Mul(&t1, &x.B, c0)
	m.Add(&im, &t0, &t1) // a·c1 + b·c0
	dst.A = re
	dst.B = im
}

// E2Conj sets dst = a − b·i (the Frobenius x ↦ x^q on F_q²).
func (m *Mont) E2Conj(dst, x *E2Fel) {
	dst.A = x.A
	m.Neg(&dst.B, &x.B)
}

// E2Inv sets dst = x⁻¹ = x̄ / (a² + b²) with one base-field inversion and
// reports whether x was invertible (non-zero). dst may alias x.
func (m *Mont) E2Inv(dst, x *E2Fel) bool {
	var n, t Fel
	m.Sqr(&n, &x.A)
	m.Sqr(&t, &x.B)
	m.Add(&n, &n, &t)
	if !m.Inv(&n, &n) {
		return false
	}
	m.Mul(&dst.A, &x.A, &n)
	m.Mul(&t, &x.B, &n)
	m.Neg(&dst.B, &t)
	return true
}

// e2ExpWindowWidth is the sliding-window width of E2ExpWindowed: 2^(w−1) odd
// powers are precomputed and each non-zero window saves up to w−1
// multiplications over square-and-multiply.
const e2ExpWindowWidth = 4

// E2ExpWindowed sets dst = x^e for a non-negative exponent using a width-4
// sliding window: one squaring per exponent bit plus one multiplication per
// non-zero window (≈ bitlen/5 on average), against one per set bit for the
// square-and-multiply Ext.Exp, with every squaring and multiplication a
// limb-domain operation. The exponent's bits are public in
// every call site (GT exponents are reduced mod r, the final-exponentiation
// hard part is a system constant), so the data-dependent window walk leaks
// nothing secret.
func (m *Mont) E2ExpWindowed(dst, x *E2Fel, e *big.Int) {
	if e.BitLen() == 0 {
		m.E2SetOne(dst)
		return
	}
	// Odd powers x, x³, …, x^(2^w − 1).
	var odd [1 << (e2ExpWindowWidth - 1)]E2Fel
	odd[0] = *x
	var x2 E2Fel
	m.E2Sqr(&x2, x)
	for i := 1; i < len(odd); i++ {
		m.E2Mul(&odd[i], &odd[i-1], &x2)
	}
	var acc E2Fel
	m.E2SetOne(&acc)
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			m.E2Sqr(&acc, &acc)
			i--
			continue
		}
		// Greedy window [j, i] ending on a set bit, at most w bits wide.
		j := i - e2ExpWindowWidth + 1
		if j < 0 {
			j = 0
		}
		for e.Bit(j) == 0 {
			j++
		}
		d := 0
		for b := i; b >= j; b-- {
			m.E2Sqr(&acc, &acc)
			d = d<<1 | int(e.Bit(b))
		}
		m.E2Mul(&acc, &acc, &odd[d>>1]) // d odd ⇒ index (d−1)/2
		i = j - 1
	}
	*dst = acc
}
