package pairing

import (
	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Projective (Jacobian) Miller loop over the limb Montgomery core. The
// affine loop in miller.go pays one field inversion per step for the
// chord/tangent slope; here the accumulator point stays in Jacobian
// coordinates (X/Z², Y/Z³) and the line coefficients absorb the
// denominators, scaled by factors in F_q* that denominator elimination
// already discards — the (q−1) part of the final exponentiation annihilates
// every F_q* contribution. A full fast pairing therefore performs exactly
// one field inversion, in the easy part of the final exponentiation
// (observable through ff.InvOps, which the zero-inversion test pins).
//
// Line derivations, with T = (X, Y, Z), M = 3X² + Z⁴, Z₃ the updated Z:
//
//   tangent at T, evaluated at φ(Q) = (x', y_Q·i), scaled by Z₃·Z²:
//     c0 = M·(X − Z²·x') − 2Y²,   c1 = Z₃·Z²·y_Q
//   chord through T and affine P, scaled by Z₃ = Z·H:
//     c0 = R·(x_P − x') − Z₃·y_P,  c1 = Z₃·y_Q
//
// with H = x_P·Z² − X and R = y_P·Z³ − Y the usual mixed-addition terms.

// Pair computes the modified Tate pairing ê(P, Q); see PairReference for the
// definition. The Miller loop runs inversion-free in the Montgomery domain
// and returns bit-identical results to the reference loop.
func (p *Params) Pair(P, Q *curve.Point) *GT {
	if P.Inf || Q.Inf {
		return p.GTOne()
	}
	m := p.F.Mont()
	f := p.millerLoopMont(m, P, Q)
	return p.finalExp(m, &f)
}

// PairReference computes ê(P, Q) through the affine Miller loop with
// per-step slope inversions — the reference arithmetic the differential
// tests and Scheme.DisableFastPath pin the fast path against.
func (p *Params) PairReference(P, Q *curve.Point) *GT {
	if P.Inf || Q.Inf {
		return p.GTOne()
	}
	m := p.F.Mont()
	var f ff.E2Fel
	m.E2FromE2(&f, p.millerLoop(P, Q))
	return p.finalExp(m, &f)
}

// millerMontState carries the loop-invariant operands of one evaluation:
// the affine P (for additions), φ(Q)'s coordinates, and the running
// accumulator point T.
type millerMontState struct {
	xP, yP     ff.Fel // P, for the mixed additions
	xPrime, yQ ff.Fel // φ(Q) = (x', y_Q·i) with x' = −x_Q
	tx, ty, tz ff.Fel // T in Jacobian coordinates; Z = 0 encodes ∞
}

// millerLoopMont evaluates f_{r,P}(φ(Q)) with the projective step formulas,
// entirely in the Montgomery domain.
func (p *Params) millerLoopMont(m *ff.Mont, P, Q *curve.Point) ff.E2Fel {
	var st millerMontState
	m.FromBig(&st.xP, P.X)
	m.FromBig(&st.yP, P.Y)
	m.FromBig(&st.xPrime, Q.X)
	m.Neg(&st.xPrime, &st.xPrime)
	m.FromBig(&st.yQ, Q.Y)
	st.tx, st.ty = st.xP, st.yP
	m.SetOne(&st.tz)

	var f ff.E2Fel
	m.E2SetOne(&f)
	r := p.R
	for i := r.BitLen() - 2; i >= 0; i-- {
		m.E2Sqr(&f, &f)
		p.montStepDouble(m, &st, &f)
		if r.Bit(i) == 1 {
			p.montStepAdd(m, &st, &f)
		}
	}
	return f
}

// montStepDouble sets T ← 2T and multiplies f by the tangent line value.
// Vertical tangents (Y = 0, impossible for odd-order points) and T = ∞
// contribute only F_q* factors and are skipped, mirroring stepDouble.
func (p *Params) montStepDouble(m *ff.Mont, st *millerMontState, f *ff.E2Fel) {
	if m.IsZero(&st.tz) {
		return
	}
	if m.IsZero(&st.ty) {
		m.SetZero(&st.tz)
		return
	}
	var zz, xx, yy, z4, mM, s, t, x3, y3, z3, c0, c1 ff.Fel
	m.Sqr(&zz, &st.tz) // Z²
	m.Sqr(&xx, &st.tx) // X²
	m.Sqr(&yy, &st.ty) // Y²
	m.Sqr(&z4, &zz)    // Z⁴
	m.Add(&mM, &xx, &xx)
	m.Add(&mM, &mM, &xx)
	m.Add(&mM, &mM, &z4) // M = 3X² + Z⁴ (a = 1)
	m.Mul(&s, &st.tx, &yy)
	m.Dbl(&s, &s)
	m.Dbl(&s, &s) // S = 4XY²
	m.Sqr(&x3, &mM)
	m.Sub(&x3, &x3, &s)
	m.Sub(&x3, &x3, &s) // X₃ = M² − 2S
	m.Sub(&t, &s, &x3)
	m.Mul(&y3, &mM, &t) // M(S − X₃)
	m.Sqr(&t, &yy)
	m.Dbl(&t, &t)
	m.Dbl(&t, &t)
	m.Dbl(&t, &t)       // 8Y⁴
	m.Sub(&y3, &y3, &t) // Y₃
	m.Mul(&z3, &st.ty, &st.tz)
	m.Dbl(&z3, &z3) // Z₃ = 2YZ

	// Tangent line at φ(Q), scaled by Z₃·Z² ∈ F_q*.
	m.Mul(&t, &zz, &st.xPrime)
	m.Sub(&t, &st.tx, &t) // X − Z²·x'
	m.Mul(&c0, &mM, &t)
	m.Dbl(&t, &yy)
	m.Sub(&c0, &c0, &t) // c0 = M(X − Z²x') − 2Y²
	m.Mul(&c1, &z3, &zz)
	m.Mul(&c1, &c1, &st.yQ) // c1 = Z₃·Z²·y_Q
	m.E2MulSparse(f, f, &c0, &c1)

	st.tx, st.ty, st.tz = x3, y3, z3
}

// montStepAdd sets T ← T + P and multiplies f by the chord line value.
// The T = P case falls through to the tangent step; the vertical chord
// T = −P (always the loop's final addition, since r is odd) sends T to ∞
// with no line contribution, mirroring stepAdd.
func (p *Params) montStepAdd(m *ff.Mont, st *millerMontState, f *ff.E2Fel) {
	if m.IsZero(&st.tz) {
		st.tx, st.ty = st.xP, st.yP
		m.SetOne(&st.tz)
		return
	}
	var zz, u2, s2, h, r ff.Fel
	m.Sqr(&zz, &st.tz)
	m.Mul(&u2, &st.xP, &zz)
	m.Mul(&s2, &zz, &st.tz)
	m.Mul(&s2, &st.yP, &s2)
	m.Sub(&h, &u2, &st.tx) // H = x_P·Z² − X
	m.Sub(&r, &s2, &st.ty) // R = y_P·Z³ − Y
	if m.IsZero(&h) {
		if m.IsZero(&r) {
			p.montStepDouble(m, st, f)
			return
		}
		m.SetZero(&st.tz)
		return
	}
	var h2, h3, v, t, x3, y3, z3, c0, c1 ff.Fel
	m.Sqr(&h2, &h)
	m.Mul(&h3, &h2, &h)
	m.Mul(&v, &st.tx, &h2)
	m.Sqr(&x3, &r)
	m.Sub(&x3, &x3, &h3)
	m.Sub(&x3, &x3, &v)
	m.Sub(&x3, &x3, &v) // X₃ = R² − H³ − 2V
	m.Sub(&t, &v, &x3)
	m.Mul(&y3, &r, &t)
	m.Mul(&t, &st.ty, &h3)
	m.Sub(&y3, &y3, &t)    // Y₃ = R(V − X₃) − Y·H³
	m.Mul(&z3, &st.tz, &h) // Z₃ = Z·H

	// Chord line through P, evaluated at φ(Q), scaled by Z₃ ∈ F_q*.
	m.Sub(&t, &st.xP, &st.xPrime)
	m.Mul(&c0, &r, &t)
	m.Mul(&t, &z3, &st.yP)
	m.Sub(&c0, &c0, &t) // c0 = R(x_P − x') − Z₃·y_P
	m.Mul(&c1, &z3, &st.yQ)
	m.E2MulSparse(f, f, &c0, &c1)

	st.tx, st.ty, st.tz = x3, y3, z3
}
