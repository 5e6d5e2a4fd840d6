package pairing

import (
	"errors"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// ErrDegenerate reports a pairing evaluation that degenerated to zero, which
// only happens for inputs outside the intended prime-order subgroup.
var ErrDegenerate = errors.New("pairing: degenerate Miller value")

// This file holds the affine reference Miller loop:
//
//	ê(P, Q) = f_{r,P}(φ(Q))^((q²−1)/r),  φ(x, y) = (−x, i·y).
//
// The distortion map φ sends Q to a point over F_q² that is linearly
// independent from P, making the symmetric pairing non-degenerate.
// Denominator elimination applies because the vertical-line values lie in
// F_q*, which the (q−1) factor of the final exponentiation annihilates.
// Pair and the projective fast loop live in miller_fast.go; PairReference
// always takes this loop.

// millerLoop evaluates f_{r,P} at φ(Q) using a double-and-add walk over the
// bits of r. Line functions through points of E(F_q) evaluated at
// φ(Q) = (−x_Q, i·y_Q) take the sparse form (c₀ + y_Q·i) with c₀ ∈ F_q.
// Every step runs on the immutable big.Int F_q² operations and shares one
// field inversion between the line slope λ and the point update it implies —
// the chord/tangent formulas reuse the same λ.
func (p *Params) millerLoop(P, Q *curve.Point) *ff.E2 {
	fq := p.F
	e2 := p.E2

	xPrime := fq.Neg(Q.X) // real x-coordinate of φ(Q)
	yQ := Q.Y             // imaginary y-coordinate of φ(Q)

	f := e2.One()
	T := P.Clone()
	r := p.R
	for i := r.BitLen() - 2; i >= 0; i-- {
		f = e2.Sqr(f)
		c0, next := p.stepDouble(T, xPrime)
		if c0 != nil {
			f = e2.Mul(f, &ff.E2{A: c0, B: yQ})
		}
		T = next
		if r.Bit(i) == 1 {
			c0, next = p.stepAdd(T, P, xPrime)
			if c0 != nil {
				f = e2.Mul(f, &ff.E2{A: c0, B: yQ})
			}
			T = next
		}
	}
	return f
}

// stepDouble returns the tangent-line coefficient c₀ at T (the line value is
// c₀ + y_Q·i) together with 2T, computing both from a single inversion: the
// doubled point is derived from the same slope λ the line needs
// (x₃ = λ² − 2x, y₃ = λ(x − x₃) − y). A nil c₀ means the line was vertical,
// its value lies in F_q* and the final exponentiation eliminates it.
func (p *Params) stepDouble(T *curve.Point, xPrime *big.Int) (*big.Int, *curve.Point) {
	fq := p.F
	if T.Inf {
		return nil, T.Clone()
	}
	if T.Y.Sign() == 0 {
		return nil, p.G1.Infinity()
	}
	// λ = (3x² + 1) / 2y
	num := fq.Add(fq.Mul(three, fq.Sqr(T.X)), one)
	den, err := fq.Inv(fq.Add(T.Y, T.Y))
	if err != nil {
		return nil, p.G1.Infinity()
	}
	lambda := fq.Mul(num, den)
	// l(φ(Q)) = y_Q·i − y_T − λ(x' − x_T)
	c0 := fq.Sub(fq.Neg(T.Y), fq.Mul(lambda, fq.Sub(xPrime, T.X)))
	x3 := fq.Sub(fq.Sqr(lambda), fq.Add(T.X, T.X))
	y3 := fq.Sub(fq.Mul(lambda, fq.Sub(T.X, x3)), T.Y)
	return c0, &curve.Point{X: x3, Y: y3}
}

// stepAdd returns the chord coefficient c₀ through T and P evaluated at
// φ(Q), together with T + P, sharing the slope inversion exactly like
// stepDouble. Vertical chords (T = −P) again contribute only F_q* factors.
func (p *Params) stepAdd(T, P *curve.Point, xPrime *big.Int) (*big.Int, *curve.Point) {
	fq := p.F
	if T.Inf {
		return nil, P.Clone()
	}
	if P.Inf {
		return nil, T.Clone()
	}
	if T.X.Cmp(P.X) == 0 {
		if fq.Add(T.Y, P.Y).Sign() == 0 {
			// Vertical line x = x_T: value x' − x_T ∈ F_q*, eliminated.
			return nil, p.G1.Infinity()
		}
		return p.stepDouble(T, xPrime)
	}
	den, err := fq.Inv(fq.Sub(P.X, T.X))
	if err != nil {
		return nil, p.G1.Infinity()
	}
	lambda := fq.Mul(fq.Sub(P.Y, T.Y), den)
	c0 := fq.Sub(fq.Neg(T.Y), fq.Mul(lambda, fq.Sub(xPrime, T.X)))
	x3 := fq.Sub(fq.Sub(fq.Sqr(lambda), T.X), P.X)
	y3 := fq.Sub(fq.Mul(lambda, fq.Sub(T.X, x3)), T.Y)
	return c0, &curve.Point{X: x3, Y: y3}
}

// finalExp raises a Miller value to (q²−1)/r = (q−1)·h on the limb core,
// using the Frobenius (conjugation in F_q²) for the (q−1) part:
// f^(q−1) = f̄ · f⁻¹, the evaluation's one field inversion. The hard part
// f^h runs through the windowed ladder, which matters because h is as wide
// as q−r (352 bits on the paper parameters).
func (p *Params) finalExp(m *ff.Mont, f *ff.E2Fel) *GT {
	var inv, out ff.E2Fel
	if !m.E2Inv(&inv, f) {
		// A zero Miller value comes only from inputs outside the prime-order
		// subgroup; the identity is the only sensible total answer and
		// callers in this module never feed such inputs.
		return p.GTOne()
	}
	m.E2Conj(&out, f)
	m.E2Mul(&out, &out, &inv)
	m.E2ExpWindowed(&out, &out, p.H)
	return &GT{v: m.E2ToE2(&out)}
}

var (
	one   = big.NewInt(1)
	three = big.NewInt(3)
)
