package curve

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// The three built-in Type-A parameter sets (duplicated from pairing/typea.go,
// which this package cannot import without a cycle). The differential tests
// below pin every windowed/table fast path against the binary reference
// ladder on all three, so a width- or carry-handling bug that only shows at
// one field size cannot hide.
var fastPathParams = []struct {
	name    string
	q, r, h string
}{
	{"type-a-160",
		"730750818665456651398749912681464433149468475431",
		"1208925819614637764640769",
		"604462909807314587353128"},
	{"type-a-256",
		"57896072225643484874040642243367403057748397788474512798884162776097072611791",
		"2658457259220431974037015617263894529",
		"21778071482940061661655974875633165533648"},
	{"type-a-512",
		"6703903964971300038352719856505834908754841464938657039583247695534712755109909758113385465279071810380322580453472515578975031231813880338207931866547659",
		"730750818665451621361119245571504901405976559617",
		"9173994463960286046443283581208347763186259956673124494950355357547691504353939232280074212440502746219980"},
}

func fastPathCurves(t *testing.T) map[string]*Curve {
	t.Helper()
	out := make(map[string]*Curve, len(fastPathParams))
	for _, p := range fastPathParams {
		q, _ := new(big.Int).SetString(p.q, 10)
		r, _ := new(big.Int).SetString(p.r, 10)
		h, _ := new(big.Int).SetString(p.h, 10)
		f, err := ff.NewField(q)
		if err != nil {
			t.Fatalf("%s: NewField: %v", p.name, err)
		}
		c, err := NewCurve(f, r, h)
		if err != nil {
			t.Fatalf("%s: NewCurve: %v", p.name, err)
		}
		out[p.name] = c
	}
	return out
}

// testScalars returns the adversarial scalar set every differential test
// sweeps: boundaries of the subgroup order, tiny values, negatives, and a
// batch of random draws (deterministic seed, so failures replay).
func testScalars(t *testing.T, c *Curve, n int) []*big.Int {
	t.Helper()
	rng := mrand.New(mrand.NewSource(20180625))
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(-5),
		new(big.Int).Sub(c.R, big.NewInt(1)),
		new(big.Int).Set(c.R),
		new(big.Int).Add(c.R, big.NewInt(7)),
	}
	for i := 0; i < n; i++ {
		k := new(big.Int).Rand(rng, c.R)
		ks = append(ks, k)
	}
	return ks
}

func TestScalarMultMatchesBinaryReference(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		for _, k := range testScalars(t, c, 20) {
			want := c.ScalarMultBinary(p, k)
			got := c.ScalarMult(p, k)
			if !c.Equal(got, want) {
				t.Fatalf("%s: ScalarMult(%v) diverges from binary ladder", name, k)
			}
			// Bit-identical, not just group-equal: the affine encoding is
			// what travels on the wire.
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: ScalarMult(%v) encoding differs", name, k)
			}
		}
		// Infinity in, infinity out.
		if !c.ScalarMult(c.Infinity(), big.NewInt(3)).Inf {
			t.Fatalf("%s: ScalarMult(∞) not ∞", name)
		}
	}
}

func TestFixedBaseMatchesScalarMultBinary(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		fb := c.NewFixedBase(p)
		ks := testScalars(t, c, 12)
		for _, k := range ks {
			// FixedBase has ScalarMultReduced semantics.
			kr := new(big.Int).Mod(k, c.R)
			want := c.ScalarMultBinary(p, kr)
			got := fb.Mul(k)
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: FixedBase.Mul(%v) diverges from reference", name, k)
			}
		}
		// MulMany must agree with Mul entry-by-entry (it shares one batch
		// normalisation across results).
		many := fb.MulMany(ks)
		for i, k := range ks {
			if !c.Equal(many[i], fb.Mul(k)) {
				t.Fatalf("%s: MulMany[%d] ≠ Mul for k=%v", name, i, k)
			}
		}
		// A fixed base at infinity stays at infinity.
		inf := c.NewFixedBase(c.Infinity())
		if !inf.Mul(big.NewInt(9)).Inf {
			t.Fatalf("%s: FixedBase(∞).Mul not ∞", name)
		}
	}
}

func TestMultiExpMatchesNaiveLoop(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		const n = 9
		points := make([]*Point, n)
		for i := range points {
			p, err := c.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			points[i] = p
		}
		rng := mrand.New(mrand.NewSource(42))
		scalars := make([]*big.Int, n)
		for i := range scalars {
			scalars[i] = new(big.Int).Rand(rng, c.R)
		}
		scalars[2] = big.NewInt(0) // zero coefficients must be skipped
		scalars[5] = big.NewInt(1)

		naive := func(pts []*Point, ks []*big.Int) *Point {
			acc := c.Infinity()
			for i, k := range ks {
				if k.Sign() == 0 {
					continue
				}
				acc = c.Add(acc, c.ScalarMultBinary(pts[i], new(big.Int).Mod(k, c.R)))
			}
			return acc
		}

		got := c.MultiExp(points, scalars)
		want := naive(points, scalars)
		if string(c.Marshal(got)) != string(c.Marshal(want)) {
			t.Fatalf("%s: MultiExp diverges from naive loop", name)
		}

		// Offsets: the IBBE decrypt path evaluates coeffs[1:] against
		// HPowers[0:]; exercise the same shifted-window access.
		tab := c.NewMultiExpTable(points)
		for offset := 0; offset < 3; offset++ {
			sub := scalars[:n-offset]
			got := tab.MultiExp(sub, offset)
			want := naive(points[offset:], sub)
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: MultiExp(offset=%d) diverges", name, offset)
			}
		}

		// All-zero scalars sum to infinity.
		zeros := make([]*big.Int, n)
		for i := range zeros {
			zeros[i] = big.NewInt(0)
		}
		if !tab.MultiExp(zeros, 0).Inf {
			t.Fatalf("%s: MultiExp of zeros not ∞", name)
		}
	}
}

func TestScalarMultConstTimeMatchesBinaryReference(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		for _, k := range testScalars(t, c, 16) {
			kr := new(big.Int).Mod(k, c.R)
			want := c.ScalarMultBinary(p, kr)
			got := c.ScalarMultConstTime(p, k)
			if !c.Equal(got, want) {
				t.Fatalf("%s: ScalarMultConstTime(%v) diverges from binary ladder", name, k)
			}
			if !want.Inf && string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: ScalarMultConstTime(%v) encoding differs", name, k)
			}
		}
		if !c.ScalarMultConstTime(c.Infinity(), big.NewInt(3)).Inf {
			t.Fatalf("%s: ScalarMultConstTime(∞) not ∞", name)
		}
		// k ≡ 0 mod r lifts to the odd scalar r itself; the uniform walk must
		// still land on the identity.
		if !c.ScalarMultConstTime(p, new(big.Int).Set(c.R)).Inf {
			t.Fatalf("%s: ScalarMultConstTime(r) not ∞", name)
		}
	}
}

func TestFixedBaseMulConstTimeMatchesMul(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		fb := c.NewFixedBase(p)
		for _, k := range testScalars(t, c, 16) {
			want := fb.Mul(k)
			got := fb.MulConstTime(k)
			if !c.Equal(got, want) {
				t.Fatalf("%s: MulConstTime(%v) ≠ Mul", name, k)
			}
			if !want.Inf && string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: MulConstTime(%v) encoding differs", name, k)
			}
		}
		inf := c.NewFixedBase(c.Infinity())
		if !inf.MulConstTime(big.NewInt(9)).Inf {
			t.Fatalf("%s: FixedBase(∞).MulConstTime not ∞", name)
		}
	}
}

func TestCTRecodeReconstructsScalar(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		nd := ctDigits(c.R.BitLen() + 1)
		for _, k := range testScalars(t, c, 24) {
			digits := ctRecode(k, c.R)
			if len(digits) != nd {
				t.Fatalf("%s: digit count %d varies from fixed %d for k=%v",
					name, len(digits), nd, k)
			}
			sum := new(big.Int)
			for i, d := range digits {
				if d == 0 || d%2 == 0 || d > (1<<ctWindow)-1 || d < -((1<<ctWindow)-1) {
					t.Fatalf("%s: digit %d = %d outside signed odd window", name, i, d)
				}
				sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(i*ctWindow)))
			}
			// The reconstruction equals k mod r (the lift adds a multiple of r).
			if new(big.Int).Mod(sum, c.R).Cmp(new(big.Int).Mod(k, c.R)) != 0 {
				t.Fatalf("%s: ctRecode(%v) reconstructs to %v", name, k, sum)
			}
		}
	}
}

// TestMultiExpParallelMatchesSerial pins the digit-parallel Straus walk
// against the serial one on a batch large enough to actually split, across
// several worker-pool bounds, including from concurrent callers.
func TestMultiExpParallelMatchesSerial(t *testing.T) {
	defer SetMaxParallelism(MaxParallelism())
	for name, c := range fastPathCurves(t) {
		const n = 96 // ≥ 2 chunks at minChunk 16
		points := make([]*Point, n)
		for i := range points {
			p, err := c.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			points[i] = p
		}
		rng := mrand.New(mrand.NewSource(77))
		scalars := make([]*big.Int, n)
		for i := range scalars {
			scalars[i] = new(big.Int).Rand(rng, c.R)
		}
		scalars[7] = big.NewInt(0)
		tab := c.NewMultiExpTable(points)

		SetMaxParallelism(1)
		want := tab.MultiExp(scalars, 0)
		for _, workers := range []int{2, 4, 8} {
			SetMaxParallelism(workers)
			got := tab.MultiExp(scalars, 0)
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: parallel MultiExp (workers=%d) diverges from serial", name, workers)
			}
		}

		// MulMany across the same worker sweep.
		fb := c.NewFixedBase(points[0])
		SetMaxParallelism(1)
		wantMany := fb.MulMany(scalars)
		SetMaxParallelism(8)
		gotMany := fb.MulMany(scalars)
		for i := range wantMany {
			if !c.Equal(gotMany[i], wantMany[i]) {
				t.Fatalf("%s: parallel MulMany[%d] diverges", name, i)
			}
		}

		// Concurrent callers share the table and the worker bound.
		SetMaxParallelism(4)
		done := make(chan *Point, 4)
		for g := 0; g < 4; g++ {
			go func() { done <- tab.MultiExp(scalars, 0) }()
		}
		for g := 0; g < 4; g++ {
			if got := <-done; string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: concurrent MultiExp diverges", name)
			}
		}
	}
}

// TestBatchNormalizeMatchesFromJacobian pins the limb batch normaliser
// against an independent big.Int conversion (x/Z², y/Z³ through ff.Field)
// and against the binary ladder, over a mix of genuine Jacobian points
// (Z ≠ 1 from doubling chains) and infinities in arbitrary positions, plus
// the all-infinity and empty batches.
func TestBatchNormalizeMatchesFromJacobian(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		base := toMontJac(m, p)
		cur := base
		inf := toMontJac(m, c.Infinity())
		var js []montJac
		var want []*Point
		s := big.NewInt(1) // cur = s·p
		for i := 0; i < 12; i++ {
			if i%4 == 3 {
				js = append(js, inf)
				want = append(want, c.Infinity())
				continue
			}
			c.montDouble(m, &cur)
			s.Lsh(s, 1)
			js = append(js, cur)
			want = append(want, c.ScalarMultBinary(p, s))
			c.montAdd(m, &cur, &base)
			s.Add(s, big.NewInt(1))
		}
		batch := c.batchNormalize(m, js)
		for i := range js {
			got := fromMontAffine(m, &batch[i])
			if ref := jacToAffineBig(c, m, &js[i]); string(c.Marshal(got)) != string(c.Marshal(ref)) {
				t.Fatalf("%s: batchNormalize[%d] ≠ big.Int normalisation", name, i)
			}
			if string(c.Marshal(got)) != string(c.Marshal(want[i])) {
				t.Fatalf("%s: batchNormalize[%d] ≠ binary ladder", name, i)
			}
			if single := c.montFromJac(m, &js[i]); string(c.Marshal(single)) != string(c.Marshal(got)) {
				t.Fatalf("%s: montFromJac[%d] ≠ batchNormalize", name, i)
			}
		}
		// Degenerate inputs: all-infinity and empty batches.
		if all := c.batchNormalize(m, []montJac{inf}); !all[0].inf {
			t.Fatalf("%s: batchNormalize(∞) not ∞", name)
		}
		if got := c.batchNormalize(m, nil); len(got) != 0 {
			t.Fatalf("%s: batchNormalize(nil) returned %d points", name, len(got))
		}
	}
}

// jacToAffineBig normalises a limb Jacobian point through the big.Int field
// arithmetic, independently of the limb normaliser under test.
func jacToAffineBig(c *Curve, m *ff.Mont, j *montJac) *Point {
	f := c.F
	z := m.ToBig(&j.z)
	if z.Sign() == 0 {
		return c.Infinity()
	}
	zInv, err := f.Inv(z)
	if err != nil {
		panic(err)
	}
	zInv2 := f.Sqr(zInv)
	return &Point{X: f.Mul(m.ToBig(&j.x), zInv2), Y: f.Mul(m.ToBig(&j.y), f.Mul(zInv2, zInv))}
}

// TestLimbPathInversionCounts pins the field inversions (ff.InvOps) of every
// limb path: one per batch normalisation, so one per table build and one per
// result, and none per step of any walk.
func TestLimbPathInversionCounts(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		rng := mrand.New(mrand.NewSource(5))
		ks := make([]*big.Int, 24)
		for i := range ks {
			ks[i] = new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(c.R, big.NewInt(1))), big.NewInt(1))
		}
		points := []*Point{p, c.ScalarMult(p, ks[0]), c.ScalarMult(p, ks[1])}
		var fb *FixedBase
		var tab *MultiExpTable
		cases := []struct {
			op   string
			want int64
			run  func()
		}{
			{"ScalarMult", 2, func() { c.ScalarMult(p, ks[2]) }},                   // odd multiples + result
			{"ScalarMultConstTime", 2, func() { c.ScalarMultConstTime(p, ks[3]) }}, // odd multiples + result
			{"NewFixedBase", 1, func() { fb = c.NewFixedBase(p) }},
			{"FixedBase.Mul", 1, func() { fb.Mul(ks[4]) }},
			{"FixedBase.MulMany", 1, func() { fb.MulMany(ks) }},
			{"FixedBase.MulConstTime (builds table)", 2, func() { fb.MulConstTime(ks[5]) }},
			{"FixedBase.MulConstTime", 1, func() { fb.MulConstTime(ks[6]) }},
			{"NewMultiExpTable", 1, func() { tab = c.NewMultiExpTable(points) }},
			{"MultiExpTable.MultiExp", 1, func() { tab.MultiExp(ks[:3], 0) }},
		}
		for _, tc := range cases {
			before := ff.InvOps()
			tc.run()
			if got := ff.InvOps() - before; got != tc.want {
				t.Fatalf("%s: %s performed %d field inversions, want %d", name, tc.op, got, tc.want)
			}
		}
	}
}

func TestWNAFDigitsReconstructScalar(t *testing.T) {
	c := testCurve(t)
	for _, k := range testScalars(t, c, 24) {
		if k.Sign() <= 0 {
			continue
		}
		digits := wnafDigits(k, scalarWindow)
		// Σ d_i · 2^i must equal k, every non-zero digit must be odd and
		// within the window bound.
		sum := new(big.Int)
		bound := int8(1 << (scalarWindow - 1))
		for i, d := range digits {
			if d != 0 {
				if d%2 == 0 || d >= bound || d <= -bound {
					t.Fatalf("digit %d out of w-NAF range: %d", i, d)
				}
			}
			term := new(big.Int).Lsh(big.NewInt(int64(d)), uint(i))
			sum.Add(sum, term)
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("wNAF digits of %v reconstruct to %v", k, sum)
		}
	}
}
