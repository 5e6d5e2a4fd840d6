package pairing

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

func allParams() []*Params {
	return []*Params{TypeA160(), TypeA256(), TypeA512()}
}

// TestPairMatchesReference pins the projective Montgomery Miller loop
// bit-for-bit against the affine reference loop on all three parameter
// sets, over random subgroup points and the degenerate identities.
func TestPairMatchesReference(t *testing.T) {
	for _, p := range allParams() {
		t.Run(p.Name(), func(t *testing.T) {
			n := 6
			if testing.Short() {
				n = 2
			}
			for i := 0; i < n; i++ {
				P, err := p.G1.RandPoint(rand.Reader)
				if err != nil {
					t.Fatalf("RandPoint: %v", err)
				}
				Q, err := p.G1.RandPoint(rand.Reader)
				if err != nil {
					t.Fatalf("RandPoint: %v", err)
				}
				fast := p.Pair(P, Q)
				ref := p.PairReference(P, Q)
				if string(p.GTMarshal(fast)) != string(p.GTMarshal(ref)) {
					t.Fatalf("Pair(P, Q) diverges from PairReference")
				}
				// Symmetry survives the fast path too.
				if !p.GTEqual(fast, p.Pair(Q, P)) {
					t.Fatalf("fast pairing not symmetric")
				}
			}
			P, _ := p.G1.RandPoint(rand.Reader)
			if !p.GTIsOne(p.Pair(P, p.G1.Infinity())) {
				t.Fatalf("Pair(P, ∞) not identity")
			}
			if !p.GTIsOne(p.Pair(p.G1.Infinity(), P)) {
				t.Fatalf("Pair(∞, P) not identity")
			}
		})
	}
}

// TestPairFastPathInversionCount asserts the headline property of the
// projective loop: zero field inversions per Miller step. A whole fast
// pairing performs exactly one inversion — the easy part of the final
// exponentiation — while the affine reference pays roughly one per loop
// iteration. ff.InvOps is the op-counting hook.
func TestPairFastPathInversionCount(t *testing.T) {
	for _, p := range allParams() {
		t.Run(p.Name(), func(t *testing.T) {
			P, err := p.G1.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("RandPoint: %v", err)
			}
			Q, err := p.G1.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("RandPoint: %v", err)
			}

			before := ff.InvOps()
			p.Pair(P, Q)
			fastInvs := ff.InvOps() - before
			if fastInvs != 1 {
				t.Fatalf("fast Pair performed %d field inversions, want exactly 1 (finalExp easy part)", fastInvs)
			}

			before = ff.InvOps()
			p.PairReference(P, Q)
			refInvs := ff.InvOps() - before
			// The affine loop inverts once per doubling plus once per set bit.
			if minInvs := int64(p.R.BitLen() - 2); refInvs < minInvs {
				t.Fatalf("reference Pair performed %d inversions, expected ≥ %d — is the reference still affine?", refInvs, minInvs)
			}
		})
	}
}

// TestPairFastPathConcurrent hammers the fast pairing from concurrent
// goroutines; run under -race it proves the Montgomery contexts and lazy
// tables are share-safe.
func TestPairFastPathConcurrent(t *testing.T) {
	p := TypeA160()
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("RandPoint: %v", err)
	}
	Q, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("RandPoint: %v", err)
	}
	want := p.GTMarshal(p.PairReference(P, Q))
	const workers = 8
	done := make(chan string, workers)
	for g := 0; g < workers; g++ {
		go func() { done <- string(p.GTMarshal(p.Pair(P, Q))) }()
	}
	for g := 0; g < workers; g++ {
		if got := <-done; got != string(want) {
			t.Fatalf("concurrent Pair diverges from reference")
		}
	}
}

// TestGTFixedBaseExpMatchesGTExp pins the Montgomery-domain table walk
// against the generic ladder across parameter sets and exponent shapes.
func TestGTFixedBaseExpMatchesGTExp(t *testing.T) {
	rng := mrand.New(mrand.NewSource(20180807))
	for _, p := range allParams() {
		t.Run(p.Name(), func(t *testing.T) {
			P, _ := p.G1.RandPoint(rand.Reader)
			Q, _ := p.G1.RandPoint(rand.Reader)
			base := p.Pair(P, Q)
			tab := p.NewGTFixedBase(base)
			ks := []*big.Int{
				big.NewInt(0),
				big.NewInt(1),
				big.NewInt(2),
				new(big.Int).Sub(p.R, big.NewInt(1)),
				new(big.Int).Set(p.R),
			}
			for i := 0; i < 6; i++ {
				ks = append(ks, new(big.Int).Rand(rng, p.R))
			}
			for _, k := range ks {
				got := tab.Exp(k)
				want := p.GTExpBinary(base, k)
				if string(p.GTMarshal(got)) != string(p.GTMarshal(want)) {
					t.Fatalf("GTFixedBase.Exp(%v) diverges from binary ladder", k)
				}
			}
		})
	}
}

// TestGTLimbPathsInvertNothing pins the GT exponentiation paths at zero
// field inversions (ff.InvOps): GTExp, the GTFixedBase build and its Exp all
// stay on limb multiplications and squarings.
func TestGTLimbPathsInvertNothing(t *testing.T) {
	for _, p := range allParams() {
		t.Run(p.Name(), func(t *testing.T) {
			P, _ := p.G1.RandPoint(rand.Reader)
			Q, _ := p.G1.RandPoint(rand.Reader)
			base := p.Pair(P, Q)
			k := new(big.Int).Sub(p.R, big.NewInt(3))
			var tab *GTFixedBase
			for _, tc := range []struct {
				op  string
				run func()
			}{
				{"GTExp", func() { p.GTExp(base, k) }},
				{"NewGTFixedBase", func() { tab = p.NewGTFixedBase(base) }},
				{"GTFixedBase.Exp", func() { tab.Exp(k) }},
			} {
				before := ff.InvOps()
				tc.run()
				if got := ff.InvOps() - before; got != 0 {
					t.Fatalf("%s performed %d field inversions, want 0", tc.op, got)
				}
			}
		})
	}
}
