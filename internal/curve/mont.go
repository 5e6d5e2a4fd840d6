package curve

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// This file holds the curve's Jacobian arithmetic on the limb Montgomery
// core: the dbl-2007-bl / madd-2007-bl / add-2007-bl formulas with every
// field operation a fixed-width CIOS product instead of a big.Int.Mul
// followed by a dividing Mod. Input points convert into the domain once;
// tables are built, batch-normalised and walked without touching big.Int,
// and only the final affine results convert back.

// maxParallelism bounds the worker fan-out of the digit-parallel multi-
// exponentiation paths (MultiExpTable.MultiExp, FixedBase.MulMany). It is a
// process-wide bound shared with core.Manager: SetParallelism on the
// manager forwards here, so one knob sizes both the per-partition ECALL
// pool and the intra-operation curve parallelism.
var maxParallelism atomic.Int32

func init() { maxParallelism.Store(int32(runtime.NumCPU())) }

// SetMaxParallelism bounds the worker pool of the parallel multi-
// exponentiation paths; n < 1 is clamped to 1 (serial).
func SetMaxParallelism(n int) {
	if n < 1 {
		n = 1
	}
	maxParallelism.Store(int32(n))
}

// MaxParallelism returns the current bound.
func MaxParallelism() int { return int(maxParallelism.Load()) }

// montAffine is an affine point with Montgomery-domain coordinates, the
// element type of every precomputed table.
type montAffine struct {
	x, y ff.Fel
	inf  bool
}

// montJac is a Jacobian point (X/Z², Y/Z³) in the Montgomery domain;
// Z = 0 encodes infinity.
type montJac struct {
	x, y, z ff.Fel
}

// mont returns the curve's limb context (the base field's).
func (c *Curve) mont() *ff.Mont { return c.F.Mont() }

// toMontJac loads an affine big.Int point as a limb Jacobian point (Z = 1,
// or Z = 0 for the identity).
func toMontJac(m *ff.Mont, p *Point) montJac {
	var j montJac
	if p.Inf {
		j.setInfinity(m)
		return j
	}
	m.FromBig(&j.x, p.X)
	m.FromBig(&j.y, p.Y)
	m.SetOne(&j.z)
	return j
}

// fromMontAffine converts a table entry back to a big.Int affine Point.
func fromMontAffine(m *ff.Mont, a *montAffine) *Point {
	if a.inf {
		return &Point{Inf: true}
	}
	return &Point{X: m.ToBig(&a.x), Y: m.ToBig(&a.y)}
}

// setInfinity marks j as the identity.
func (j *montJac) setInfinity(m *ff.Mont) {
	m.SetOne(&j.x)
	m.SetOne(&j.y)
	m.SetZero(&j.z)
}

// setAffine loads an affine table entry (Z = 1 in the Montgomery domain).
func (j *montJac) setAffine(m *ff.Mont, a *montAffine) {
	j.x = a.x
	j.y = a.y
	m.SetOne(&j.z)
}

// montFromJac converts back to a big.Int affine Point (one field inversion,
// none for the identity).
func (c *Curve) montFromJac(m *ff.Mont, j *montJac) *Point {
	a := c.batchNormalize(m, []montJac{*j})
	return fromMontAffine(m, &a[0])
}

// batchNormalize converts js to affine with a single field inversion using
// Montgomery's simultaneous-inversion trick: accumulate the product of all
// non-zero Z's, invert once, then peel per-point inverses off the running
// product back to front. N points cost one inversion plus 3(N−1)
// multiplications instead of N inversions; a batch of identities costs none.
func (c *Curve) batchNormalize(m *ff.Mont, js []montJac) []montAffine {
	out := make([]montAffine, len(js))
	prefix := make([]ff.Fel, len(js))
	var acc ff.Fel
	m.SetOne(&acc)
	finite := 0
	for i := range js {
		if m.IsZero(&js[i].z) {
			out[i].inf = true
			continue
		}
		prefix[i] = acc // product of the Z's before this point
		m.Mul(&acc, &acc, &js[i].z)
		finite++
	}
	if finite == 0 {
		return out
	}
	var inv ff.Fel
	if !m.Inv(&inv, &acc) {
		// Every factor is non-zero, so the product is invertible; reaching
		// this means the points (or the field) are corrupt, and returning
		// identities would let the corruption pass as a valid result.
		panic("curve: batchNormalize: product of non-zero Z's is not invertible")
	}
	for i := len(js) - 1; i >= 0; i-- {
		if out[i].inf {
			continue
		}
		var zInv, zInv2, t ff.Fel
		m.Mul(&zInv, &inv, &prefix[i]) // (Π_{s<i} z_s)·(Π_{s≤i} z_s)⁻¹ = z_i⁻¹
		m.Mul(&inv, &inv, &js[i].z)    // drop z_i from the running inverse
		m.Sqr(&zInv2, &zInv)
		m.Mul(&out[i].x, &js[i].x, &zInv2)
		m.Mul(&t, &zInv2, &zInv)
		m.Mul(&out[i].y, &js[i].y, &t)
	}
	return out
}

// montDouble sets p = 2p in place: dbl-2007-bl for a = 1 (curve y² = x³ + x):
//
//	S  = 4·X·Y²,  M = 3·X² + Z⁴
//	X' = M² − 2S
//	Y' = M·(S − X') − 8·Y⁴
//	Z' = 2·Y·Z
func (c *Curve) montDouble(m *ff.Mont, p *montJac) {
	if m.IsZero(&p.z) || m.IsZero(&p.y) {
		p.setInfinity(m)
		return
	}
	var yy, s, zz, mm, t, x3, y3, z3 ff.Fel
	m.Sqr(&yy, &p.y)       // Y²
	m.Mul(&s, &p.x, &yy)   // X·Y²
	m.Dbl(&s, &s)          //
	m.Dbl(&s, &s)          // S = 4XY²
	m.Sqr(&zz, &p.z)       // Z²
	m.Sqr(&mm, &zz)        // Z⁴
	m.Sqr(&t, &p.x)        // X²
	m.Add(&mm, &mm, &t)    //
	m.Add(&mm, &mm, &t)    //
	m.Add(&mm, &mm, &t)    // M = 3X² + Z⁴
	m.Sqr(&x3, &mm)        // M²
	m.Sub(&x3, &x3, &s)    //
	m.Sub(&x3, &x3, &s)    // X₃ = M² − 2S
	m.Sub(&t, &s, &x3)     // S − X₃
	m.Mul(&y3, &mm, &t)    // M(S − X₃)
	m.Sqr(&t, &yy)         // Y⁴
	m.Dbl(&t, &t)          //
	m.Dbl(&t, &t)          //
	m.Dbl(&t, &t)          // 8Y⁴
	m.Sub(&y3, &y3, &t)    // Y₃
	m.Mul(&z3, &p.y, &p.z) // YZ
	m.Dbl(&z3, &z3)        // Z₃ = 2YZ
	p.x, p.y, p.z = x3, y3, z3
}

// montAddAffine sets p = p + q in place (mixed addition, madd-2007-bl).
func (c *Curve) montAddAffine(m *ff.Mont, p *montJac, q *montAffine) {
	if q.inf {
		return
	}
	if m.IsZero(&p.z) {
		p.setAffine(m, q)
		return
	}
	var zz, u2, s2, h, r ff.Fel
	m.Sqr(&zz, &p.z) // Z²
	m.Mul(&u2, &q.x, &zz)
	m.Mul(&s2, &zz, &p.z)
	m.Mul(&s2, &q.y, &s2)
	m.Sub(&h, &u2, &p.x)
	m.Sub(&r, &s2, &p.y)
	if m.IsZero(&h) {
		if m.IsZero(&r) {
			c.montDouble(m, p)
			return
		}
		p.setInfinity(m)
		return
	}
	var h2, h3, v, x3, y3, t ff.Fel
	m.Sqr(&h2, &h)
	m.Mul(&h3, &h2, &h)
	m.Mul(&v, &p.x, &h2)
	m.Sqr(&x3, &r)
	m.Sub(&x3, &x3, &h3)
	m.Sub(&x3, &x3, &v)
	m.Sub(&x3, &x3, &v) // X₃ = R² − H³ − 2V
	m.Sub(&t, &v, &x3)
	m.Mul(&y3, &r, &t)
	m.Mul(&t, &p.y, &h3)
	m.Sub(&y3, &y3, &t) // Y₃ = R(V − X₃) − Y·H³
	m.Mul(&p.z, &p.z, &h)
	p.x, p.y = x3, y3
}

// montAddNegAffine adds −q (the mixed addition with the entry's y negated),
// the shape every negative w-NAF digit needs.
func (c *Curve) montAddNegAffine(m *ff.Mont, p *montJac, q *montAffine) {
	if q.inf {
		return
	}
	neg := montAffine{x: q.x}
	m.Neg(&neg.y, &q.y)
	c.montAddAffine(m, p, &neg)
}

// montAdd sets p = p + q for two Jacobian points (add-2007-bl), used to build
// the precompute tables (whose intermediate points have Z ≠ 1) and to fold
// the per-worker partial sums of the parallel walks.
func (c *Curve) montAdd(m *ff.Mont, p, q *montJac) {
	if m.IsZero(&q.z) {
		return
	}
	if m.IsZero(&p.z) {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r, t ff.Fel
	m.Sqr(&z1z1, &p.z)
	m.Sqr(&z2z2, &q.z)
	m.Mul(&u1, &p.x, &z2z2)
	m.Mul(&u2, &q.x, &z1z1)
	m.Mul(&t, &q.z, &z2z2)
	m.Mul(&s1, &p.y, &t)
	m.Mul(&t, &p.z, &z1z1)
	m.Mul(&s2, &q.y, &t)
	m.Sub(&h, &u2, &u1)
	m.Sub(&r, &s2, &s1)
	if m.IsZero(&h) {
		if m.IsZero(&r) {
			c.montDouble(m, p)
			return
		}
		p.setInfinity(m)
		return
	}
	var h2, h3, v, x3, y3, z3 ff.Fel
	m.Sqr(&h2, &h)
	m.Mul(&h3, &h2, &h)
	m.Mul(&v, &u1, &h2)
	m.Sqr(&x3, &r)
	m.Sub(&x3, &x3, &h3)
	m.Sub(&x3, &x3, &v)
	m.Sub(&x3, &x3, &v)
	m.Sub(&t, &v, &x3)
	m.Mul(&y3, &r, &t)
	m.Mul(&t, &s1, &h3)
	m.Sub(&y3, &y3, &t)
	m.Mul(&z3, &p.z, &q.z)
	m.Mul(&z3, &z3, &h)
	p.x, p.y, p.z = x3, y3, z3
}

// parallelRanges splits n items into at most MaxParallelism contiguous
// chunks of at least minChunk items and runs fn on each concurrently. With a
// single chunk fn runs inline — the serial path spawns nothing.
func parallelRanges(n, minChunk int, fn func(lo, hi int)) {
	workers := MaxParallelism()
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// montWalkDigits runs the Straus evaluation for the base range [lo, hi) over
// Montgomery tables: one doubling chain for the range, one mixed addition
// per non-zero digit. Returns the range's partial sum.
func (c *Curve) montWalkDigits(m *ff.Mont, odd [][]montAffine, digits [][]int8, lo, hi, maxLen, offset int) montJac {
	var acc montJac
	acc.setInfinity(m)
	for b := maxLen - 1; b >= 0; b-- {
		c.montDouble(m, &acc)
		for i := lo; i < hi; i++ {
			dg := digits[i]
			if b >= len(dg) || dg[b] == 0 {
				continue
			}
			d := dg[b]
			if d > 0 {
				c.montAddAffine(m, &acc, &odd[offset+i][(d-1)/2])
			} else {
				c.montAddNegAffine(m, &acc, &odd[offset+i][(-d-1)/2])
			}
		}
	}
	return acc
}

// scalarToLimbs returns e (< 2^(64·n)) as n little-endian limbs; used by the
// fixed-window walks so digit extraction is plain shifts over a fixed-size
// array instead of data-dependent big.Int bit probing.
func scalarToLimbs(e *big.Int, n int) []uint64 {
	words := e.Bits()
	out := make([]uint64, n)
	for i := 0; i < len(words) && i < n; i++ {
		out[i] = uint64(words[i])
	}
	return out
}

// limbsDigit extracts the w-bit digit starting at bit position pos.
func limbsDigit(limbs []uint64, pos, w int) int {
	word, shift := pos>>6, uint(pos&63)
	d := limbs[word] >> shift
	if shift+uint(w) > 64 && word+1 < len(limbs) {
		d |= limbs[word+1] << (64 - shift)
	}
	return int(d & ((1 << w) - 1))
}
