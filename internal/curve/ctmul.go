package curve

import (
	"math/big"
	mathbits "math/bits"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Constant-time scalar multiplication for secret exponents — the MSK-touching
// ECALL paths (partial extract, blinded inversion, DKG dealing). The w-NAF
// walks elsewhere in this package leak the exponent through their digit
// pattern: which iterations add, which table index they load, and whether the
// digit is negative are all scalar-dependent. Here every scalar takes the
// exact same operation sequence:
//
//   - the scalar is made odd by adding r when even (valid for r-torsion
//     points, since r·P = ∞), then recoded into a FIXED number of signed odd
//     digits — no digit is ever zero, so every window does exactly one table
//     load and one addition;
//   - table loads scan the whole row with masked limb Selects;
//   - digit signs apply through a masked conditional negation.
//
// This is best-effort constant time, not a full guarantee: the big.Int
// reduction of the input scalar and the exceptional-case branches inside the
// addition formulas (hit only when an intermediate sum cancels, which for
// random secret scalars is astronomically unlikely) remain variable-time.
// What it removes is the exponent-bit-shaped control flow and memory access
// of the variable-time walks. Both entry points require an r-torsion point.

// ctWindow is the fixed window width of the constant-time recoding: digits
// are odd in ±{1, 3, …, 2^w − 1}, needing 2^(w−1) table entries per window.
const ctWindow = 4

// ctDigits returns the fixed digit count for scalars below 2^bits.
func ctDigits(bits int) int {
	return (bits+ctWindow-1)/ctWindow + 1
}

// ctRecode reduces k modulo r, lifts it to an odd scalar (adding r when
// even — same point for r-torsion bases), and returns its fixed-length
// signed-odd-digit decomposition: d_i odd ∈ ±{1, …, 2^w − 1} with
// Σ d_i·2^(w·i) equal to the lifted scalar. The digit count depends only on
// r, never on k.
func ctRecode(k, r *big.Int) []int8 {
	x := new(big.Int).Mod(k, r)
	if x.Bit(0) == 0 {
		x.Add(x, r) // r is an odd prime, so x + r is odd; x = 0 lifts to r
	}
	const w = ctWindow
	bits := r.BitLen() + 1 // lifted scalar < 2r
	nd := ctDigits(bits)
	nl := bits/64 + 1 // headroom limb for the +2^w slack during recoding
	limbs := scalarToLimbs(x, nl)
	digits := make([]int8, nd)
	for i := 0; i < nd-1; i++ {
		d := int64(limbs[0]&((1<<(w+1))-1)) - (1 << w) // odd, in [−2^w+1, 2^w−1]
		digits[i] = int8(d)
		// limbs = (limbs − d) >> w: add the sign-extended two's complement
		// of d, then shift. The result stays odd, so the invariant holds.
		se := uint64(-d)
		ext := uint64((-d) >> 63)
		var carry uint64
		limbs[0], carry = mathbits.Add64(limbs[0], se, 0)
		for j := 1; j < nl; j++ {
			limbs[j], carry = mathbits.Add64(limbs[j], ext, carry)
		}
		for j := 0; j < nl-1; j++ {
			limbs[j] = limbs[j]>>w | limbs[j+1]<<(64-w)
		}
		limbs[nl-1] >>= w
	}
	// The residue after nd−1 recoding steps is odd and at most 3.
	digits[nd-1] = int8(limbs[0])
	return digits
}

// digitIdxMask splits a signed odd digit into its table index (|d|−1)/2 and
// an all-ones mask when the digit is negative, both branchlessly.
func digitIdxMask(d int8) (idx uint64, negMask uint64) {
	v := int64(d)
	sign := uint64(v) >> 63
	negMask = -sign
	abs := (v ^ int64(negMask)) + int64(sign)
	return uint64(abs-1) >> 1, negMask
}

// ctSelect copies table[idx] into dst by scanning every entry with masked
// limb selects, so the access pattern is independent of idx.
func ctSelect(m *ff.Mont, dst *montAffine, table []montAffine, idx uint64) {
	for j := range table {
		x := uint64(j) ^ idx
		nz := (x | -x) >> 63
		mask := nz - 1 // all-ones exactly when j == idx
		m.Select(&dst.x, mask, &table[j].x, &dst.x)
		m.Select(&dst.y, mask, &table[j].y, &dst.y)
	}
}

// ctLoadDigit resolves digit d against a row of odd multiples: a full-row
// masked scan followed by a masked negation for negative digits.
func ctLoadDigit(m *ff.Mont, dst *montAffine, row []montAffine, d int8) {
	idx, negMask := digitIdxMask(d)
	ctSelect(m, dst, row, idx)
	m.CondNeg(&dst.y, negMask, &dst.y)
	dst.inf = false
}

// ScalarMultConstTime returns (k mod r)·P for an r-torsion point P using the
// uniform fixed-window walk: one table scan and one addition per window, w
// doublings between windows, identical for every scalar.
func (c *Curve) ScalarMultConstTime(p *Point, k *big.Int) *Point {
	if p.Inf {
		return c.Infinity()
	}
	m := c.mont()
	odd := c.oddMultiples(m, p, 1<<(ctWindow-1))
	digits := ctRecode(k, c.R)
	var entry montAffine
	var acc montJac
	ctLoadDigit(m, &entry, odd, digits[len(digits)-1])
	acc.setAffine(m, &entry)
	for i := len(digits) - 2; i >= 0; i-- {
		for b := 0; b < ctWindow; b++ {
			c.montDouble(m, &acc)
		}
		ctLoadDigit(m, &entry, odd, digits[i])
		c.montAddAffine(m, &acc, &entry)
	}
	return c.montFromJac(m, &acc)
}

// ctTable returns the signed-window fixed-base table: row i holds the odd
// multiples {1, 3, …, 2^w − 1}·2^(w·i)·base, one row per recoded digit, all
// normalised with one inversion. Built once on first use; nil when the base
// is the identity.
func (fb *FixedBase) ctTable() [][]montAffine {
	fb.ctOnce.Do(func() {
		c := fb.c
		if fb.base.Inf {
			return
		}
		const w = ctWindow
		per := 1 << (w - 1)
		m := c.mont()
		nd := ctDigits(c.R.BitLen() + 1)
		js := make([]montJac, 0, nd*per)
		cur := toMontJac(m, fb.base)
		for i := 0; i < nd; i++ {
			js = c.appendOddMultiples(m, js, &cur, per)
			for b := 0; b < w; b++ {
				c.montDouble(m, &cur)
			}
		}
		aff := c.batchNormalize(m, js)
		ct := make([][]montAffine, nd)
		for i := range ct {
			ct[i] = aff[i*per : (i+1)*per]
		}
		fb.ctable = ct
	})
	return fb.ctable
}

// MulConstTime returns (k mod r)·base through the signed-window table: one
// masked row scan and one mixed addition per digit, no doublings, the same
// sequence for every scalar. The base must be an r-torsion point (all
// long-lived scheme bases are).
func (fb *FixedBase) MulConstTime(k *big.Int) *Point {
	c := fb.c
	ct := fb.ctTable()
	if ct == nil {
		return c.Infinity()
	}
	m := c.mont()
	digits := ctRecode(k, c.R)
	var entry montAffine
	var acc montJac
	ctLoadDigit(m, &entry, ct[0], digits[0])
	acc.setAffine(m, &entry)
	for i := 1; i < len(digits); i++ {
		ctLoadDigit(m, &entry, ct[i], digits[i])
		c.montAddAffine(m, &acc, &entry)
	}
	return c.montFromJac(m, &acc)
}
