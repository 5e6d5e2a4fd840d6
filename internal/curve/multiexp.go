package curve

import (
	"math/big"
	"sync"
)

// MultiExpTable holds batch-normalized odd multiples of a fixed vector of
// points (the public key's h^γ^i powers), ready for interleaved Straus
// multi-exponentiation: one shared doubling chain for all bases plus one
// mixed addition per non-zero w-NAF digit of any scalar. Building the table
// costs 2^(w−2) Jacobian operations per point and a single field inversion
// for the whole vector.
//
// A MultiExpTable is immutable after construction and safe for concurrent
// use.
type MultiExpTable struct {
	c   *Curve
	odd [][]montAffine // odd[i][j] = (2j+1) · points[i]
}

// NewMultiExpTable precomputes the odd multiples 1P_i, 3P_i, …,
// (2^(w−1)−1)P_i of every point, normalising the entire table with one
// inversion.
func (c *Curve) NewMultiExpTable(points []*Point) *MultiExpTable {
	const n = 1 << (scalarWindow - 2)
	m := c.mont()
	js := make([]montJac, 0, len(points)*n)
	for _, p := range points {
		j := toMontJac(m, p)
		js = c.appendOddMultiples(m, js, &j, n)
	}
	aff := c.batchNormalize(m, js)
	odd := make([][]montAffine, len(points))
	for i := range points {
		odd[i] = aff[i*n : (i+1)*n]
	}
	return &MultiExpTable{c: c, odd: odd}
}

// Len returns the number of base points in the table.
func (t *MultiExpTable) Len() int { return len(t.odd) }

// MultiExp returns Σ_i (scalars[i] mod r) · points[offset+i] via interleaved
// Straus evaluation: the doubling chain is shared across every base, so n
// scalars of b bits cost b doublings plus ≈ n·b/5 mixed additions instead of
// n·(b doublings + b/2 additions) for n independent multiplications.
// offset+len(scalars) must not exceed Len.
//
// For large enough batches the evaluation is digit-parallel: the bases split
// into contiguous chunks across at most MaxParallelism workers, each walking
// its own doubling chain, and the per-chunk partial sums fold together with
// general Jacobian additions. The chunk doubling chains are redundant work,
// but for the m ≥ 64 IBBE decrypt sizes the per-digit additions dominate and
// the split wins wall-clock.
func (t *MultiExpTable) MultiExp(scalars []*big.Int, offset int) *Point {
	c := t.c
	digits := make([][]int8, len(scalars))
	maxLen := 0
	for i, s := range scalars {
		if s == nil {
			continue
		}
		k := new(big.Int).Mod(s, c.R)
		if k.Sign() == 0 {
			continue
		}
		digits[i] = wnafDigits(k, scalarWindow)
		if len(digits[i]) > maxLen {
			maxLen = len(digits[i])
		}
	}
	m := c.mont()
	var acc montJac
	acc.setInfinity(m)
	var mu sync.Mutex
	parallelRanges(len(digits), 16, func(lo, hi int) {
		part := c.montWalkDigits(m, t.odd, digits, lo, hi, maxLen, offset)
		mu.Lock()
		c.montAdd(m, &acc, &part)
		mu.Unlock()
	})
	return c.montFromJac(m, &acc)
}

// MultiExp is the one-shot convenience form: it builds a throwaway table for
// points and evaluates Σ scalars[i]·points[i]. Repeated callers (the IBBE
// public-key hot paths) should hold a MultiExpTable instead. More scalars
// than points is a caller indexing bug; silently truncating would return a
// partial sum that looks like a valid group element.
func (c *Curve) MultiExp(points []*Point, scalars []*big.Int) *Point {
	if len(scalars) > len(points) {
		panic("curve: MultiExp: more scalars than points")
	}
	return c.NewMultiExpTable(points[:len(scalars)]).MultiExp(scalars, 0)
}
