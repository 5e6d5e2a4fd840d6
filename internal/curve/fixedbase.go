package curve

import (
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// fixedBaseWindow is the radix-2^w digit width of a FixedBase table. Width 4
// keeps the table at ⌈bits(r)/4⌉ × 15 affine points (≈ 80 KiB for the
// 512-bit paper parameters) while reducing a scalar multiplication to one
// mixed addition per digit — no doublings at all.
const fixedBaseWindow = 4

// FixedBase is a precomputed table for repeated scalar multiplication of one
// long-lived base point (the scheme's generators g, h, w). The table stores
// d·2^(w·i)·P for every window position i and digit d, built in Jacobian
// form on the limb core and batch-normalized to affine with a single field
// inversion, so Mul is a chain of ≈ bits(r)/w mixed additions. Exponents are
// reduced modulo the subgroup order r, the ScalarMultReduced semantics every
// IBBE call site uses.
//
// A FixedBase is immutable after construction and safe for concurrent use.
type FixedBase struct {
	c     *Curve
	base  *Point
	table [][]montAffine // table[i][d-1] = d · 2^(w·i) · base; nil for ∞

	// Constant-time signed-odd-window table; see MulConstTime in ctmul.go.
	ctOnce sync.Once
	ctable [][]montAffine
}

// NewFixedBase builds the windowed table for p. Construction costs about one
// generic scalar multiplication per 4 table windows, so it pays for itself
// after a handful of Mul calls; for one-shot exponents use ScalarMult.
func (c *Curve) NewFixedBase(p *Point) *FixedBase {
	fb := &FixedBase{c: c, base: p.Clone()}
	if p.Inf {
		return fb
	}
	const w = fixedBaseWindow
	const per = (1 << w) - 1
	m := c.mont()
	nWin := (c.R.BitLen() + w - 1) / w
	js := make([]montJac, 0, nWin*per)
	cur := toMontJac(m, p)
	for i := 0; i < nWin; i++ {
		js = append(js, cur)
		prev := cur
		for d := 2; d <= per; d++ {
			c.montAdd(m, &prev, &cur)
			js = append(js, prev)
		}
		for b := 0; b < w; b++ {
			c.montDouble(m, &cur)
		}
	}
	aff := c.batchNormalize(m, js)
	fb.table = make([][]montAffine, nWin)
	for i := range fb.table {
		fb.table[i] = aff[i*per : (i+1)*per]
	}
	return fb
}

// Point returns (a copy of) the base point the table was built for.
func (fb *FixedBase) Point() *Point { return fb.base.Clone() }

// Mul returns (k mod r)·P using only table lookups and mixed additions;
// big.Int is touched only for the digit probe and the final affine
// conversion.
func (fb *FixedBase) Mul(k *big.Int) *Point {
	m := fb.c.mont()
	acc := fb.mulJac(m, k)
	return fb.c.montFromJac(m, &acc)
}

// mulJac is Mul without the final normalisation, for batch callers.
func (fb *FixedBase) mulJac(m *ff.Mont, k *big.Int) montJac {
	const w = fixedBaseWindow
	var acc montJac
	acc.setInfinity(m)
	e := new(big.Int).Mod(k, fb.c.R)
	for i := range fb.table {
		d := 0
		for b := 0; b < w; b++ {
			d |= int(e.Bit(i*w+b)) << b
		}
		if d != 0 {
			fb.c.montAddAffine(m, &acc, &fb.table[i][d-1])
		}
	}
	return acc
}

// MulMany computes (k mod r)·P for every scalar, sharing one batch
// normalisation (a single field inversion) across all results. This is the
// Setup fast path: the m+1 public-key powers of h come out of one table and
// one inversion. The scalars are split into contiguous chunks across at most
// MaxParallelism workers, each walking the table independently.
func (fb *FixedBase) MulMany(ks []*big.Int) []*Point {
	m := fb.c.mont()
	js := make([]montJac, len(ks))
	parallelRanges(len(ks), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			js[i] = fb.mulJac(m, ks[i])
		}
	})
	aff := fb.c.batchNormalize(m, js)
	out := make([]*Point, len(aff))
	for i := range aff {
		out[i] = fromMontAffine(m, &aff[i])
	}
	return out
}
