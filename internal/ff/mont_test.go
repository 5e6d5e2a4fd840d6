package ff

import (
	"errors"
	"math/big"
	"testing"
)

// The three Type-A base-field moduli plus the two scalar-field orders the
// system actually runs on, copied from internal/pairing/typea.go — ff cannot
// import pairing, and pinning the literals here means a parameter change
// upstream fails loudly instead of silently shrinking coverage.
var montTestModuli = map[string]string{
	"q512": "6703903964971300038352719856505834908754841464938657039583247695534712755109909758113385465279071810380322580453472515578975031231813880338207931866547659",
	"q256": "57896072225643484874040642243367403057748397788474512798884162776097072611791",
	"q160": "730750818665456651398749912681464433149468475431",
	"r512": "730750818665451621361119245571504901405976559617",
	"r160": "1208925819614637764640769",
}

func montTestFields(t testing.TB) map[string]*Field {
	t.Helper()
	out := make(map[string]*Field, len(montTestModuli))
	for name, dec := range montTestModuli {
		p, ok := new(big.Int).SetString(dec, 10)
		if !ok {
			t.Fatalf("bad modulus literal %s", name)
		}
		f, err := NewFieldUnchecked(p)
		if err != nil {
			t.Fatalf("NewFieldUnchecked(%s): %v", name, err)
		}
		out[name] = f
	}
	return out
}

// montCases yields deterministic boundary and pseudo-random values per
// modulus: 0, 1, 2, q−1, q−2, q, q+1 (non-canonical), 2q−1 (non-canonical),
// and a spread of hashes of the index.
func montCases(p *big.Int) []*big.Int {
	one := big.NewInt(1)
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, one),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Set(p),
		new(big.Int).Add(p, one),
		new(big.Int).Sub(new(big.Int).Lsh(p, 1), one),
	}
	seed := new(big.Int).SetUint64(0x9e3779b97f4a7c15)
	for i := 0; i < 8; i++ {
		seed = new(big.Int).Mod(new(big.Int).Mul(seed, seed), p)
		seed.Add(seed, big.NewInt(int64(i)+1))
		cases = append(cases, new(big.Int).Set(seed))
	}
	return cases
}

// checkMontAgainstBig cross-checks every limb-core operation on (a, b)
// against the big.Int reference arithmetic of f.
func checkMontAgainstBig(t *testing.T, f *Field, a, b *big.Int) {
	t.Helper()
	m := f.Mont()
	if m == nil {
		t.Fatal("Mont() returned nil for a supported modulus")
	}
	var am, bm, out Fel
	m.FromBig(&am, a)
	m.FromBig(&bm, b)

	// Round trip.
	if got, want := m.ToBig(&am), f.Reduce(a); got.Cmp(want) != 0 {
		t.Fatalf("round trip: got %v want %v (a=%v)", got, want, a)
	}

	m.Mul(&out, &am, &bm)
	if got, want := m.ToBig(&out), f.Mul(a, b); got.Cmp(want) != 0 {
		t.Fatalf("Mul: got %v want %v", got, want)
	}
	m.Sqr(&out, &am)
	if got, want := m.ToBig(&out), f.Sqr(a); got.Cmp(want) != 0 {
		t.Fatalf("Sqr: got %v want %v", got, want)
	}
	m.Add(&out, &am, &bm)
	if got, want := m.ToBig(&out), f.Add(a, b); got.Cmp(want) != 0 {
		t.Fatalf("Add: got %v want %v", got, want)
	}
	m.Sub(&out, &am, &bm)
	if got, want := m.ToBig(&out), f.Sub(a, b); got.Cmp(want) != 0 {
		t.Fatalf("Sub: got %v want %v", got, want)
	}
	m.Neg(&out, &am)
	if got, want := m.ToBig(&out), f.Neg(a); got.Cmp(want) != 0 {
		t.Fatalf("Neg: got %v want %v", got, want)
	}
	m.Dbl(&out, &am)
	if got, want := m.ToBig(&out), f.Add(a, a); got.Cmp(want) != 0 {
		t.Fatalf("Dbl: got %v want %v", got, want)
	}

	// Inv agrees with the checked big.Int inversion, including the zero case.
	ok := m.Inv(&out, &am)
	ref, err := f.Inv(a)
	if ok != (err == nil) {
		t.Fatalf("Inv invertibility mismatch: limb %v, big err %v", ok, err)
	}
	if ok {
		if got := m.ToBig(&out); got.Cmp(ref) != 0 {
			t.Fatalf("Inv: got %v want %v", got, ref)
		}
	}

	// Exp on a handful of exponent shapes, including 0 and 1.
	for _, e := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537), f.Reduce(b)} {
		m.Exp(&out, &am, e)
		if got, want := m.ToBig(&out), f.Exp(f.Reduce(a), e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(e=%v): got %v want %v", e, got, want)
		}
	}
}

func TestMontMatchesBigInt(t *testing.T) {
	for name, f := range montTestFields(t) {
		t.Run(name, func(t *testing.T) {
			cases := montCases(f.P())
			for i, a := range cases {
				for j, b := range cases {
					// Keep the quadratic sweep affordable on the big set.
					if testing.Short() && (i+j)%3 != 0 {
						continue
					}
					checkMontAgainstBig(t, f, a, b)
				}
			}
		})
	}
}

func TestMontE2MatchesExt(t *testing.T) {
	for name, f := range montTestFields(t) {
		t.Run(name, func(t *testing.T) {
			m := f.Mont()
			ext := NewExt(f)
			cases := montCases(f.P())
			pick := func(i int) *E2 {
				return ext.New(cases[i%len(cases)], cases[(i*7+3)%len(cases)])
			}
			for i := 0; i < len(cases); i++ {
				x, y := pick(i), pick(i+5)
				var xm, ym, out E2Fel
				m.E2FromE2(&xm, x)
				m.E2FromE2(&ym, y)

				m.E2Mul(&out, &xm, &ym)
				if got, want := m.E2ToE2(&out), ext.Mul(x, y); !ext.Equal(got, want) {
					t.Fatalf("E2Mul: got %v want %v", got, want)
				}
				m.E2Sqr(&out, &xm)
				if got, want := m.E2ToE2(&out), ext.Sqr(x); !ext.Equal(got, want) {
					t.Fatalf("E2Sqr: got %v want %v", got, want)
				}
				m.E2Conj(&out, &xm)
				if got, want := m.E2ToE2(&out), ext.Conj(x); !ext.Equal(got, want) {
					t.Fatalf("E2Conj: got %v want %v", got, want)
				}
				if ok := m.E2Inv(&out, &xm); ok == ext.IsZero(x) {
					t.Fatalf("E2Inv invertibility mismatch for %v", x)
				} else if ok {
					want, err := ext.Inv(x)
					if err != nil {
						t.Fatalf("ext.Inv: %v", err)
					}
					if got := m.E2ToE2(&out); !ext.Equal(got, want) {
						t.Fatalf("E2Inv: got %v want %v", got, want)
					}
				}
				var c0, c1 Fel
				m.FromBig(&c0, y.A)
				m.FromBig(&c1, y.B)
				m.E2MulSparse(&out, &xm, &c0, &c1)
				if got, want := m.E2ToE2(&out), ext.Mul(x, y); !ext.Equal(got, want) {
					t.Fatalf("E2MulSparse: got %v want %v", got, want)
				}

				e := f.Reduce(cases[(i+3)%len(cases)])
				m.E2ExpWindowed(&out, &xm, e)
				want, err := ext.Exp(x, e)
				if err != nil {
					t.Fatalf("ext.Exp: %v", err)
				}
				if got := m.E2ToE2(&out); !ext.Equal(got, want) {
					t.Fatalf("E2ExpWindowed(e=%v): got %v want %v", e, got, want)
				}
			}
		})
	}
}

func TestMontSelectAndCondNeg(t *testing.T) {
	f := montTestFields(t)["q160"]
	m := f.Mont()
	var a, b, out Fel
	m.FromBig(&a, big.NewInt(1234567))
	m.FromBig(&b, big.NewInt(7654321))
	m.Select(&out, ^uint64(0), &a, &b)
	if !m.Equal(&out, &a) {
		t.Fatal("Select(all-ones) != a")
	}
	m.Select(&out, 0, &a, &b)
	if !m.Equal(&out, &b) {
		t.Fatal("Select(0) != b")
	}
	m.CondNeg(&out, 0, &a)
	if !m.Equal(&out, &a) {
		t.Fatal("CondNeg(0) changed the value")
	}
	m.CondNeg(&out, ^uint64(0), &a)
	if got, want := m.ToBig(&out), f.Neg(big.NewInt(1234567)); got.Cmp(want) != 0 {
		t.Fatalf("CondNeg(all-ones): got %v want %v", got, want)
	}
}

func TestNewFieldRejectsWideModulus(t *testing.T) {
	// A 1000-bit prime is out of the limb core's range: construction must
	// fail with the named error instead of building a field with no fast
	// arithmetic behind it.
	p := new(big.Int).Lsh(big.NewInt(1), 1000)
	p.Add(p, big.NewInt(3))
	for !p.ProbablyPrime(20) {
		p.Add(p, big.NewInt(4)) // stay ≡ 3 (mod 4) so only the width is wrong
	}
	if _, err := NewFieldUnchecked(p); !errors.Is(err, ErrModulusTooWide) {
		t.Fatalf("NewFieldUnchecked(1000-bit prime) = %v, want ErrModulusTooWide", err)
	}
	if _, err := NewField(p); !errors.Is(err, ErrModulusTooWide) {
		t.Fatalf("NewField(1000-bit prime) = %v, want ErrModulusTooWide", err)
	}
	// The limb core also needs an odd modulus: 2 is prime but even.
	if _, err := NewFieldUnchecked(big.NewInt(2)); err == nil {
		t.Fatal("NewFieldUnchecked accepted the even prime 2")
	}
	// The widest supported modulus still builds, with a limb context.
	top := new(big.Int).Lsh(big.NewInt(1), 64*MaxLimbs)
	top.Sub(top, big.NewInt(1))
	for !top.ProbablyPrime(20) {
		top.Sub(top, big.NewInt(4))
	}
	f, err := NewField(top)
	if err != nil {
		t.Fatalf("NewField(%d-bit prime): %v", top.BitLen(), err)
	}
	if f.Mont() == nil {
		t.Fatal("Mont() is nil for a supported modulus")
	}
}
