package ibbe

import (
	"math/big"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Metrics counts the expensive primitive operations performed by the scheme.
// The Table I reproduction attaches a Metrics to a Scheme and checks that the
// measured operation counts scale exactly as the paper's complexity table
// says (O(1), O(n), O(n²)), which is far more robust than timing fits.
type Metrics struct {
	// G1Exp counts elliptic-curve scalar multiplications.
	G1Exp atomic.Int64
	// GTExp counts target-group exponentiations.
	GTExp atomic.Int64
	// Pairings counts pairing evaluations.
	Pairings atomic.Int64
	// ZrMul counts scalar-field multiplications (the unit of the paper's
	// polynomial-expansion cost).
	ZrMul atomic.Int64
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.G1Exp.Store(0)
	m.GTExp.Store(0)
	m.Pairings.Store(0)
	m.ZrMul.Store(0)
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() (g1Exp, gtExp, pairings, zrMul int64) {
	return m.G1Exp.Load(), m.GTExp.Load(), m.Pairings.Load(), m.ZrMul.Load()
}

// SnapshotMap returns the counters keyed by name — the form exporters and
// report writers should consume: adding a counter extends the map instead
// of silently shifting Snapshot's positional 4-tuple under callers.
func (m *Metrics) SnapshotMap() map[string]int64 {
	return map[string]int64{
		"g1_exp":   m.G1Exp.Load(),
		"gt_exp":   m.GTExp.Load(),
		"pairings": m.Pairings.Load(),
		"zr_mul":   m.ZrMul.Load(),
	}
}

// Total returns a single cost figure weighting each primitive roughly by its
// relative latency (pairing ≈ 3 exponentiations ≈ 3000 scalar mults).
func (m *Metrics) Total() int64 {
	g1, gt, pr, zr := m.Snapshot()
	return 3000*pr + 1000*(g1+gt) + zr
}

// The instrumented primitive wrappers below are the only call sites for the
// underlying group operations inside the scheme.

func (s *Scheme) expG1(p *curve.Point, k *big.Int) *curve.Point {
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(1)
	}
	if s.DisableFastPath {
		return s.P.G1.ScalarMultBinary(p, new(big.Int).Mod(k, s.P.R))
	}
	return s.P.G1.ScalarMultReduced(p, k)
}

// expFixed is expG1 for a long-lived public-key base: the fast path walks
// the base's fixed-base table (table(pk), built on first use), the reference
// path takes expG1's binary ladder. Either way it counts as one G1
// exponentiation.
func (s *Scheme) expFixed(pk *PublicKey, table func(*PublicKey) *curve.FixedBase, base *curve.Point, k *big.Int) *curve.Point {
	if s.DisableFastPath {
		return s.expG1(base, k)
	}
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(1)
	}
	return table(pk).Mul(k)
}

// expHPowers returns h^exps[i] for every exponent, counting one G1
// exponentiation each — Setup's public-key powers. The fast path walks one
// fixed-base table for h and shares a single batch normalisation across all
// results; the table is kept on pk, pre-warming the EncryptMSK hot path.
func (s *Scheme) expHPowers(pk *PublicKey, h *curve.Point, exps []*big.Int) []*curve.Point {
	if s.DisableFastPath {
		out := make([]*curve.Point, len(exps))
		for i, e := range exps {
			out[i] = s.expG1(h, e)
		}
		return out
	}
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(int64(len(exps)))
	}
	fb := s.P.G1.NewFixedBase(h)
	pk.pre.hOnce.Do(func() { pk.pre.h = fb })
	return fb.MulMany(exps)
}

// expG1Secret is expG1 for MSK-derived exponents (key extraction): the fast
// path takes the uniform constant-time window walk instead of the
// digit-skipping w-NAF ladder, so the secret scalar does not shape the
// operation sequence or table accesses. The reference arm keeps the binary
// ladder, preserving the DisableFastPath discipline.
func (s *Scheme) expG1Secret(p *curve.Point, k *big.Int) *curve.Point {
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(1)
	}
	if s.DisableFastPath {
		return s.P.G1.ScalarMultBinary(p, new(big.Int).Mod(k, s.P.R))
	}
	return s.P.G1.ScalarMultConstTime(p, k)
}

func (s *Scheme) expGT(a *pairing.GT, k *big.Int) *pairing.GT {
	if s.Metrics != nil {
		s.Metrics.GTExp.Add(1)
	}
	if s.DisableFastPath {
		return s.P.GTExpBinary(a, k)
	}
	return s.P.GTExp(a, k)
}

// expV returns v^k for the public key's v = e(g, h): the fast path walks
// v's GT fixed-base table (built on first use), the reference path takes
// expGT's binary ladder. Either way it counts as one GT exponentiation.
func (s *Scheme) expV(pk *PublicKey, k *big.Int) *pairing.GT {
	if s.DisableFastPath {
		return s.expGT(pk.V, k)
	}
	if s.Metrics != nil {
		s.Metrics.GTExp.Add(1)
	}
	return s.fbV(pk).Exp(k)
}

func (s *Scheme) pair(p, q *curve.Point) *pairing.GT {
	if s.Metrics != nil {
		s.Metrics.Pairings.Add(1)
	}
	if s.DisableFastPath {
		return s.P.PairReference(p, q)
	}
	return s.P.Pair(p, q)
}

// pairPt is pair with a name that reads better at decryption call sites.
func (s *Scheme) pairPt(p, q *curve.Point) *pairing.GT { return s.pair(p, q) }

func (s *Scheme) mulZr(a, b *big.Int) *big.Int {
	if s.Metrics != nil {
		s.Metrics.ZrMul.Add(1)
	}
	return s.P.Zr.Mul(a, b)
}
