// Package ibbe implements the Delerablée identity-based broadcast
// encryption scheme (ASIACRYPT 2007) instantiated on the Type-A symmetric
// pairing, together with the IBBE-SGX complexity cuts of Contiu et al.
// (DSN 2018, Appendix A):
//
//   - EncryptClassic is the traditional public-key-only encryption whose C2
//     computation expands a polynomial of quadratic cost (paper eq. 4).
//   - EncryptMSK uses the master secret γ directly (paper eq. 3) and is
//     linear in the receiver set — the cut enabled by keeping MSK inside an
//     SGX enclave.
//   - AddUser / RemoveUser / Rekey are the O(1) dynamic membership
//     operations of Appendix A, sections E–G, built on the C3 augmentation
//     (eq. 5).
//
// The scheme is stateless: all state lives in the key and ciphertext values
// passed in and out, which is what lets the enclave layer seal and restore
// them freely.
package ibbe

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Errors returned by scheme operations.
var (
	// ErrGroupTooLarge reports a receiver set exceeding the m fixed at setup.
	ErrGroupTooLarge = errors.New("ibbe: receiver set exceeds maximal group size")
	// ErrNotMember reports a decryption attempt by an identity outside S.
	ErrNotMember = errors.New("ibbe: identity is not in the receiver set")
	// ErrEmptyGroup reports an empty receiver set.
	ErrEmptyGroup = errors.New("ibbe: receiver set is empty")
	// ErrBadKey reports malformed key material.
	ErrBadKey = errors.New("ibbe: malformed key material")
)

// Scheme binds the IBBE algorithms to a pairing parameter set. Metrics, when
// non-nil, receives operation counts (used by the Table I reproduction).
//
// A Scheme must not be copied after first use (it carries the identity-hash
// memo); share it by pointer, as NewScheme hands it out.
type Scheme struct {
	P       *pairing.Params
	Metrics *Metrics

	// DisableFastPath forces the reference arithmetic everywhere: affine
	// double-and-add scalar multiplication, the coefficient-by-coefficient
	// HPowers loop, square-and-multiply GT exponentiation, the affine
	// reference pairing, big.Int Z_r polynomial arithmetic and uncached
	// identity hashing. Only the primitive helpers read it (metrics.go,
	// HashID, expandProductPoly, prodGammaPlusHash, multiExpHPowers); every
	// scheme operation has one body. The differential tests pin the fast
	// path against this mode bit-for-bit, and the crypto benchmark uses it
	// as the "old path" arm. Leave it false in production.
	DisableFastPath bool

	// Identity-hash memo (HashID is deterministic, so caching is safe).
	hashMu   sync.RWMutex
	hashMemo map[string]*big.Int

	// rMinus1 = r − 1, hoisted out of HashID.
	rm1Once sync.Once
	rm1     *big.Int
}

// NewScheme returns an IBBE scheme over the given pairing parameters.
func NewScheme(p *pairing.Params) *Scheme { return &Scheme{P: p} }

// MasterSecretKey is MSK = (g, γ). It must never leave the trusted boundary;
// the enclave package enforces that.
type MasterSecretKey struct {
	G     *curve.Point
	Gamma *big.Int
}

// PublicKey is PK = (w, v, h, h^γ, …, h^γ^m) with w = g^γ and v = e(g, h).
// HPowers[i] holds h^(γ^i), so HPowers[0] = h and len(HPowers) = m+1.
//
// A PublicKey lazily accretes precomputed fixed-base and multi-exponentiation
// tables on first use (see pkPrecomp); because of the embedded sync.Once
// guards it must be shared by pointer, never copied by value — which is how
// every layer above already handles it.
type PublicKey struct {
	W       *curve.Point
	V       *pairing.GT
	HPowers []*curve.Point

	pre pkPrecomp
}

// pkPrecomp holds the per-public-key table caches behind the fast paths.
// Each table is built at most once (computed lazily under its own sync.Once,
// so e.g. an encrypt-only workload never pays for the Straus table) and then
// reused across every operation on the key — including the per-partition
// ECALLs core.Manager issues concurrently, for which Once provides the
// memory barrier.
type pkPrecomp struct {
	wOnce sync.Once
	w     *curve.FixedBase // fixed-base table for W = g^γ (C1 = w^−k)
	hOnce sync.Once
	h     *curve.FixedBase // fixed-base table for HPowers[0] = h (C2, C3)
	vOnce sync.Once
	v     *pairing.GTFixedBase // fixed-base table for v = e(g, h) (bk = v^k)
	tOnce sync.Once
	t     *curve.MultiExpTable // odd multiples of every HPowers[i] (Straus)
}

// fbW returns the lazily-built fixed-base table for pk.W.
func (s *Scheme) fbW(pk *PublicKey) *curve.FixedBase {
	pk.pre.wOnce.Do(func() { pk.pre.w = s.P.G1.NewFixedBase(pk.W) })
	return pk.pre.w
}

// fbH returns the lazily-built fixed-base table for h = pk.HPowers[0].
func (s *Scheme) fbH(pk *PublicKey) *curve.FixedBase {
	pk.pre.hOnce.Do(func() { pk.pre.h = s.P.G1.NewFixedBase(pk.HPowers[0]) })
	return pk.pre.h
}

// fbV returns the lazily-built GT fixed-base table for pk.V.
func (s *Scheme) fbV(pk *PublicKey) *pairing.GTFixedBase {
	pk.pre.vOnce.Do(func() { pk.pre.v = s.P.NewGTFixedBase(pk.V) })
	return pk.pre.v
}

// hTable returns the lazily-built Straus multi-exponentiation table over the
// full HPowers vector.
func (s *Scheme) hTable(pk *PublicKey) *curve.MultiExpTable {
	pk.pre.tOnce.Do(func() { pk.pre.t = s.P.G1.NewMultiExpTable(pk.HPowers) })
	return pk.pre.t
}

// MaxGroupSize returns m, the largest receiver set this key supports.
func (pk *PublicKey) MaxGroupSize() int { return len(pk.HPowers) - 1 }

// UserKey is USK_u = g^(1/(γ+H(u))).
type UserKey struct {
	D *curve.Point
}

// Ciphertext is the broadcast header (C1, C2) of Delerablée's scheme plus
// the C3 = h^Π(γ+H(u)) augmentation (paper eq. 5) that makes removal and
// re-keying O(1). C3 is public: it is computable from PK alone.
type Ciphertext struct {
	C1, C2, C3 *curve.Point
}

// Clone returns a deep copy, so membership operations can be non-destructive.
func (c *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C1: c.C1.Clone(), C2: c.C2.Clone(), C3: c.C3.Clone()}
}

// BroadcastKey is bk = v^k ∈ GT; its hash is used as a symmetric key.
type BroadcastKey = pairing.GT

// hashMemoCap bounds the identity-hash memo. Partitions top out in the low
// thousands of members (the paper's sweet spot is 1000–2000), so 4096
// entries cover every working set; when the cap is hit the memo is dropped
// wholesale, keeping memory bounded with zero bookkeeping on the hot path.
const hashMemoCap = 4096

// HashID maps an identity string into Z_r* (the function H of the paper).
// It is deterministic, never returns zero, and oversamples SHA-256 output to
// keep the modular bias negligible.
//
// Because the map is deterministic, results are memoized per Scheme (bounded
// by hashMemoCap, safe for concurrent use): every partition operation
// re-derives the same member hashes, so the repeated SHA-256 expansion and
// wide reduction collapse to one map lookup after first sight of an id.
func (s *Scheme) HashID(id string) *big.Int {
	if s.DisableFastPath {
		return s.hashIDUncached(id)
	}
	s.hashMu.RLock()
	v, ok := s.hashMemo[id]
	s.hashMu.RUnlock()
	if !ok {
		v = s.hashIDUncached(id)
		s.hashMu.Lock()
		if s.hashMemo == nil || len(s.hashMemo) >= hashMemoCap {
			s.hashMemo = make(map[string]*big.Int, 64)
		}
		s.hashMemo[id] = v
		s.hashMu.Unlock()
	}
	// Hand out a copy: big.Ints are mutable and the cached value must stay
	// pristine no matter what a caller does with the result.
	return new(big.Int).Set(v)
}

// hashIDUncached is the actual hash computation behind HashID.
func (s *Scheme) hashIDUncached(id string) *big.Int {
	r := s.P.R
	need := (r.BitLen()+7)/8 + 16
	out := make([]byte, 0, need+sha256.Size)
	var block uint32
	for len(out) < need {
		h := sha256.New()
		var pre [4]byte
		binary.BigEndian.PutUint32(pre[:], block)
		h.Write(pre[:])
		h.Write([]byte(id))
		out = h.Sum(out)
		block++
	}
	v := new(big.Int).SetBytes(out[:need])
	v.Mod(v, s.rMinus1())
	v.Add(v, bigOne) // uniform in [1, r−1]
	return v
}

// rMinus1 returns r − 1, computed once per Scheme instead of once per hash.
func (s *Scheme) rMinus1() *big.Int {
	s.rm1Once.Do(func() { s.rm1 = new(big.Int).Sub(s.P.R, bigOne) })
	return s.rm1
}

// Setup runs the system setup for maximal group size m: it draws
// MSK = (g, γ) and computes PK = (w, v, h, h^γ, …, h^γ^m). Cost is O(m)
// G1 exponentiations — the paper's Fig. 6a measures exactly this loop.
func (s *Scheme) Setup(m int, rng io.Reader) (*MasterSecretKey, *PublicKey, error) {
	if m < 1 {
		return nil, nil, errors.New("ibbe: maximal group size must be at least 1")
	}
	g1 := s.P.G1
	g, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing g: %w", err)
	}
	h, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing h: %w", err)
	}
	gamma, err := g1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing γ: %w", err)
	}
	msk := &MasterSecretKey{G: g, Gamma: gamma}

	pk := &PublicKey{
		W: s.expG1(g, gamma),
		V: s.pair(g, h),
	}
	exps := make([]*big.Int, m+1)
	acc := big.NewInt(1)
	for i := range exps {
		exps[i] = acc
		acc = s.P.Zr.Mul(acc, gamma)
	}
	pk.HPowers = s.expHPowers(pk, h, exps)
	return msk, pk, nil
}

// Extract derives the user secret key USK = g^(1/(γ+H(u))). This is the
// O(1) key-extraction operation benchmarked in Fig. 6b.
func (s *Scheme) Extract(msk *MasterSecretKey, id string) (*UserKey, error) {
	if msk == nil || msk.G == nil || msk.Gamma == nil {
		return nil, ErrBadKey
	}
	zr := s.P.Zr
	den := zr.Add(msk.Gamma, s.HashID(id))
	inv, err := zr.Inv(den)
	if err != nil {
		// Happens only if H(u) = −γ, probability ~ 2^−160.
		return nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	return &UserKey{D: s.expG1Secret(msk.G, inv)}, nil
}

// EncryptMSK generates a fresh broadcast key bk = v^k and header for the
// receiver identities ids, using the master secret to compute
// C2 = h^(k·Π(γ+H(u))) directly (paper eq. 3). Complexity: O(|S|) Z_r
// multiplications plus a constant number of exponentiations — the IBBE-SGX
// complexity cut.
func (s *Scheme) EncryptMSK(msk *MasterSecretKey, pk *PublicKey, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	if len(ids) == 0 {
		return nil, nil, ErrEmptyGroup
	}
	if len(ids) > pk.MaxGroupSize() {
		return nil, nil, fmt.Errorf("%w: %d > %d", ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	zr := s.P.Zr
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	prod := s.prodGammaPlusHash(msk.Gamma, ids)
	// All three header points are powers of the long-lived generators w and
	// h, and bk is a power of v: every exponentiation rides a fixed base.
	h := pk.HPowers[0]
	ct := &Ciphertext{
		C1: s.expFixed(pk, s.fbW, pk.W, zr.Neg(k)),
		C2: s.expFixed(pk, s.fbH, h, s.mulZr(k, prod)),
		C3: s.expFixed(pk, s.fbH, h, prod),
	}
	return s.expV(pk, k), ct, nil
}

// EncryptClassic is the traditional IBBE encryption that only uses PK: it
// expands Π(x + H(u)) into coefficients (quadratic cost, paper eq. 4) and
// assembles C2 from the h^γ^i powers. This is the paper's raw-IBBE baseline
// of Fig. 2.
func (s *Scheme) EncryptClassic(pk *PublicKey, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	if len(ids) == 0 {
		return nil, nil, ErrEmptyGroup
	}
	if len(ids) > pk.MaxGroupSize() {
		return nil, nil, fmt.Errorf("%w: %d > %d", ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	coeffs := s.expandProductPoly(ids) // O(n²)
	// C3 = h^Π(γ+H(u)) = Σ_i coeffs[i]·HPowers[i] in additive notation.
	c3 := s.multiExpHPowers(pk, coeffs, 0)
	bk, ct := s.rotateHeader(pk, c3, k)
	return bk, ct, nil
}

// Decrypt recovers bk for member id with secret key usk, given the receiver
// list ids and the header. Following Delerablée:
//
//	bk = ( e(C1, h^{p_{i,S}(γ)}) · e(USK_i, C2) )^{1/Δ},
//	p_{i,S}(x) = (Π_{j≠i}(x+H(u_j)) − Δ)/x,  Δ = Π_{j≠i} H(u_j).
//
// The polynomial expansion costs O(|S|²) — the cost the partitioning
// mechanism of the paper bounds by the partition size (Fig. 8b).
func (s *Scheme) Decrypt(pk *PublicKey, id string, usk *UserKey, ids []string, ct *Ciphertext) (*BroadcastKey, error) {
	if usk == nil || usk.D == nil {
		return nil, ErrBadKey
	}
	others := make([]string, 0, len(ids))
	found := false
	for _, u := range ids {
		if u == id && !found {
			found = true
			continue
		}
		others = append(others, u)
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotMember, id)
	}
	zr := s.P.Zr

	if len(others) == 0 {
		// Singleton group: p ≡ 0 and Δ = 1, so bk = e(USK, C2).
		return s.pairPt(usk.D, ct.C2), nil
	}

	coeffs := s.expandProductPoly(others) // degree n−1 polynomial, O(n²)
	delta := coeffs[0]
	// h^{p(γ)} = Σ_{l≥1} coeffs[l] · h^{γ^{l−1}}.
	hp := s.multiExpHPowers(pk, coeffs[1:], 0)

	num := s.P.GTMul(s.pairPt(ct.C1, hp), s.pairPt(usk.D, ct.C2))
	dInv, err := zr.Inv(delta)
	if err != nil {
		return nil, fmt.Errorf("ibbe: degenerate receiver set: %w", err)
	}
	return s.expGT(num, dInv), nil
}

// AddUser extends the receiver set of ct by id in O(1) using the master
// secret: C2 ← C2^(γ+H(u)), C3 ← C3^(γ+H(u)). The broadcast key is
// unchanged — joining members may read prior content (paper §A-E).
func (s *Scheme) AddUser(msk *MasterSecretKey, ct *Ciphertext, id string) *Ciphertext {
	e := s.P.Zr.Add(msk.Gamma, s.HashID(id))
	return &Ciphertext{
		C1: ct.C1.Clone(),
		C2: s.expG1(ct.C2, e),
		C3: s.expG1(ct.C3, e),
	}
}

// AddUsers extends the receiver set of ct by every id in ids with a constant
// number of exponentiations for the whole batch: the per-user exponents
// (γ+H(u)) are folded into one Z_r product before touching the curve, so a
// batch of n joins costs n Z_r multiplications plus the same two G1
// exponentiations a single AddUser costs. The broadcast key is unchanged,
// exactly as in the one-user operation (paper §A-E).
func (s *Scheme) AddUsers(msk *MasterSecretKey, ct *Ciphertext, ids []string) *Ciphertext {
	e := s.prodGammaPlusHash(msk.Gamma, ids)
	return &Ciphertext{
		C1: ct.C1.Clone(),
		C2: s.expG1(ct.C2, e),
		C3: s.expG1(ct.C3, e),
	}
}

// RemoveUsers revokes every id in ids from ct and re-keys, with a constant
// number of exponentiations for the whole batch (paper §A-F generalised):
// the divisors (γ+H(u)) are multiplied in Z_r, inverted once, and applied to
// C3 in a single exponentiation, after which a fresh k yields the rotated
// header and broadcast key. The caller must guarantee every id is currently
// in the receiver set; the partition layer tracks membership.
func (s *Scheme) RemoveUsers(msk *MasterSecretKey, pk *PublicKey, ct *Ciphertext, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	if len(ids) == 0 {
		return s.Rekey(pk, ct, rng)
	}
	zr := s.P.Zr
	den := s.prodGammaPlusHash(msk.Gamma, ids)
	inv, err := zr.Inv(den)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	c3 := s.expG1(ct.C3, inv)
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	bk, out := s.rotateHeader(pk, c3, k)
	return bk, out, nil
}

// rotateHeader assembles the header (C1 = w^−k, C2 = C3^k) and broadcast
// key bk = v^k for an established C3 — the shared tail of EncryptClassic,
// Rekey and both Remove operations. C1 and bk ride the w and v fixed bases;
// C2's base C3 changes every call, so it takes the generic path.
func (s *Scheme) rotateHeader(pk *PublicKey, c3 *curve.Point, k *big.Int) (*BroadcastKey, *Ciphertext) {
	out := &Ciphertext{C1: s.expFixed(pk, s.fbW, pk.W, s.P.Zr.Neg(k)), C2: s.expG1(c3, k), C3: c3}
	return s.expV(pk, k), out
}

// RemoveUser revokes id and re-keys in O(1) using the master secret
// (paper §A-F): C3 ← C3^(1/(γ+H(u))), then a fresh k gives
// C1 = w^−k, C2 = C3^k, bk = v^k.
// The caller must guarantee id is currently in the receiver set; the
// partition layer tracks membership.
func (s *Scheme) RemoveUser(msk *MasterSecretKey, pk *PublicKey, ct *Ciphertext, id string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	zr := s.P.Zr
	den := zr.Add(msk.Gamma, s.HashID(id))
	inv, err := zr.Inv(den)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	c3 := s.expG1(ct.C3, inv)
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	bk, out := s.rotateHeader(pk, c3, k)
	return bk, out, nil
}

// Rekey draws a fresh broadcast key for an unchanged receiver set in O(1)
// (paper §A-G). Only PK and the public C3 are needed.
func (s *Scheme) Rekey(pk *PublicKey, ct *Ciphertext, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	bk, out := s.rotateHeader(pk, ct.C3.Clone(), k)
	return bk, out, nil
}

// expandProductPoly returns the coefficients a_0..a_n of
// Π_{u∈ids}(x + H(u)), with a_n = 1. This is the quadratic polynomial
// expansion at the heart of both classic encryption and user decryption.
// The fast path runs the whole O(n²) recurrence in the Montgomery limb
// domain of Z_r — the hashes convert in once each, the coefficients convert
// out once at the end, and the n²/2 interior multiplications never touch
// big.Int. Both paths count one Z_r multiplication per interior step, so
// the Table I complexity shapes are the same.
func (s *Scheme) expandProductPoly(ids []string) []*big.Int {
	zr := s.P.Zr
	if !s.DisableFastPath {
		return s.expandProductPolyMont(zr.Mont(), ids)
	}
	coeffs := make([]*big.Int, 1, len(ids)+1)
	coeffs[0] = big.NewInt(1)
	for _, id := range ids {
		h := s.HashID(id)
		next := make([]*big.Int, len(coeffs)+1)
		next[len(coeffs)] = big.NewInt(0)
		for i := range next {
			next[i] = big.NewInt(0)
		}
		for i, c := range coeffs {
			// (Σ c_i x^i)(x + h) contributes c_i to x^{i+1} and c_i·h to x^i.
			next[i+1] = zr.Add(next[i+1], c)
			next[i] = zr.Add(next[i], s.mulZr(c, h))
		}
		coeffs = next
	}
	return coeffs
}

// expandProductPolyMont is the limb-domain expansion: the same recurrence,
// updated in place from the top coefficient downward so each round is one
// append plus n multiply-accumulates on fixed-width limb values.
func (s *Scheme) expandProductPolyMont(m *ff.Mont, ids []string) []*big.Int {
	coeffs := make([]ff.Fel, 1, len(ids)+1)
	m.SetOne(&coeffs[0])
	var h, t ff.Fel
	for _, id := range ids {
		m.FromBig(&h, s.HashID(id))
		n := len(coeffs)
		if s.Metrics != nil {
			s.Metrics.ZrMul.Add(int64(n)) // one mul per existing coefficient
		}
		var top ff.Fel
		coeffs = append(coeffs, top)
		coeffs[n] = coeffs[n-1] // leading coefficient stays 1
		for i := n - 1; i >= 1; i-- {
			m.Mul(&t, &coeffs[i], &h)
			m.Add(&coeffs[i], &t, &coeffs[i-1])
		}
		m.Mul(&coeffs[0], &coeffs[0], &h)
	}
	out := make([]*big.Int, len(coeffs))
	for i := range coeffs {
		out[i] = m.ToBig(&coeffs[i])
	}
	return out
}

// prodGammaPlusHash returns Π_{u∈ids} (γ + H(u)) mod r — the linear-cost
// exponent aggregation of EncryptMSK, AddUsers and RemoveUsers. The fast
// path accumulates in the Montgomery limb domain of Z_r; the reference arm
// multiplies big.Ints. Both count one Z_r multiplication per identity.
func (s *Scheme) prodGammaPlusHash(gamma *big.Int, ids []string) *big.Int {
	zr := s.P.Zr
	if !s.DisableFastPath {
		m := zr.Mont()
		var acc, g, t ff.Fel
		m.SetOne(&acc)
		m.FromBig(&g, gamma)
		for _, id := range ids {
			m.FromBig(&t, s.HashID(id))
			m.Add(&t, &t, &g)
			m.Mul(&acc, &acc, &t)
		}
		if s.Metrics != nil {
			s.Metrics.ZrMul.Add(int64(len(ids)))
		}
		return m.ToBig(&acc)
	}
	prod := big.NewInt(1)
	for _, id := range ids {
		prod = s.mulZr(prod, zr.Add(gamma, s.HashID(id)))
	}
	return prod
}

// multiExpHPowers computes Σ_i coeffs[i] · HPowers[i+offset].
//
// The fast path runs the interleaved Straus evaluation over the public key's
// precomputed odd-multiple table: one shared doubling chain for every base
// plus one mixed addition per non-zero w-NAF digit, instead of a full
// scalar multiplication per coefficient. Metrics still count one G1
// exponentiation per non-zero coefficient — the complexity the Table I
// reproduction asserts is about operation counts, not their unit price.
func (s *Scheme) multiExpHPowers(pk *PublicKey, coeffs []*big.Int, offset int) *curve.Point {
	if s.DisableFastPath {
		acc := s.P.G1.Infinity()
		for i, c := range coeffs {
			if c.Sign() == 0 {
				continue
			}
			acc = s.P.G1.Add(acc, s.expG1(pk.HPowers[i+offset], c))
		}
		return acc
	}
	if s.Metrics != nil {
		nz := int64(0)
		for _, c := range coeffs {
			if c.Sign() != 0 {
				nz++
			}
		}
		s.Metrics.G1Exp.Add(nz)
	}
	return s.hTable(pk).MultiExp(coeffs, offset)
}

var bigOne = big.NewInt(1)
