package curve

import (
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// scalarWindow is the w-NAF width used by ScalarMult and the Straus
// multi-exponentiation: digits are odd in ±{1, 3, …, 2^(w−1)−1}, so each
// base needs 2^(w−2) precomputed odd multiples and the average density of
// non-zero digits is 1/(w+1).
const scalarWindow = 4

// wnafDigits returns the width-w non-adjacent form of k > 0, least
// significant digit first. Every non-zero digit is odd and is followed by at
// least w−1 zeros, which is what lets the evaluation loop amortise one
// table addition over w doublings.
func wnafDigits(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	digits := make([]int8, 0, d.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	t := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 0 {
			digits = append(digits, 0)
			d.Rsh(d, 1)
			continue
		}
		r := int64(0)
		for b := uint(0); b < w; b++ {
			r |= int64(d.Bit(int(b))) << b
		}
		if r >= half {
			r -= mod // choose the negative representative; forces w−1 zeros next
		}
		digits = append(digits, int8(r))
		d.Sub(d, t.SetInt64(r))
		d.Rsh(d, 1)
	}
	return digits
}

// oddMultiples returns [1P, 3P, 5P, …, (2n−1)P] in affine coordinates,
// computed in Jacobian form and batch-normalized with a single inversion.
func (c *Curve) oddMultiples(m *ff.Mont, p *Point, n int) []montAffine {
	j := toMontJac(m, p)
	return c.batchNormalize(m, c.appendOddMultiples(m, make([]montJac, 0, n), &j, n))
}

// appendOddMultiples appends the Jacobian multiples 1P, 3P, …, (2n−1)P to js
// (n identities when P is the identity).
func (c *Curve) appendOddMultiples(m *ff.Mont, js []montJac, p *montJac, n int) []montJac {
	cur, two := *p, *p
	c.montDouble(m, &two)
	js = append(js, cur)
	for j := 1; j < n; j++ {
		c.montAdd(m, &cur, &two)
		js = append(js, cur)
	}
	return js
}
