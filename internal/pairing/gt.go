package pairing

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// GT is an element of the order-r target group GT ⊂ F_q²*. Values are
// immutable and created only through Params methods, which guarantees they
// carry the right field context.
type GT struct {
	v *ff.E2
}

// GTOne returns the identity of GT.
func (p *Params) GTOne() *GT { return &GT{v: p.E2.One()} }

// GTMul returns a·b.
func (p *Params) GTMul(a, b *GT) *GT { return &GT{v: p.E2.Mul(a.v, b.v)} }

// GTInv returns a⁻¹. GT elements are never zero, so inversion cannot fail.
func (p *Params) GTInv(a *GT) *GT {
	inv, err := p.E2.Inv(a.v)
	if err != nil {
		// Unreachable for well-formed GT elements.
		return p.GTOne()
	}
	return &GT{v: inv}
}

// GTExp returns a^k with the exponent reduced modulo r (GT has order r).
// The ladder is the width-4 sliding window on the limb core: the element
// converts in once, every squaring and multiplication is a CIOS product, and
// the result converts out once.
func (p *Params) GTExp(a *GT, k *big.Int) *GT {
	m := p.F.Mont()
	var x ff.E2Fel
	m.E2FromE2(&x, a.v)
	m.E2ExpWindowed(&x, &x, new(big.Int).Mod(k, p.R))
	return &GT{v: m.E2ToE2(&x)}
}

// GTExpBinary is the square-and-multiply reference ladder over the
// immutable big.Int F_q² operations; the differential tests pin GTExp and
// GTFixedBase against it and the crypto benchmark uses it as the "old path"
// arm.
func (p *Params) GTExpBinary(a *GT, k *big.Int) *GT {
	e := new(big.Int).Mod(k, p.R)
	out, err := p.E2.Exp(a.v, e)
	if err != nil {
		// Unreachable: e ≥ 0 after the reduction, and non-negative exponents
		// cannot fail. Silently returning the identity here would hand out a
		// predictable broadcast key, so fail loud instead.
		panic("pairing: GTExpBinary: " + err.Error())
	}
	return &GT{v: out}
}

// GTEqual reports whether a == b.
func (p *Params) GTEqual(a, b *GT) bool { return p.E2.Equal(a.v, b.v) }

// GTIsOne reports whether a is the identity.
func (p *Params) GTIsOne(a *GT) bool { return p.E2.IsOne(a.v) }

// GTMarshal encodes a as two fixed-width field elements.
func (p *Params) GTMarshal(a *GT) []byte { return p.E2.ToBytes(a.v) }

// GTUnmarshal parses an encoding produced by GTMarshal.
func (p *Params) GTUnmarshal(b []byte) (*GT, error) {
	v, err := p.E2.FromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("pairing: %w", err)
	}
	return &GT{v: v}, nil
}

// GTLen returns the marshalled size of a GT element.
func (p *Params) GTLen() int { return 2 * p.F.ByteLen() }

// GTHash derives a 32-byte symmetric key from a GT element; this is the
// sgx_sha step the paper uses to turn a partition broadcast key bk into an
// AES-256 key.
func (p *Params) GTHash(a *GT) [32]byte {
	return sha256.Sum256(p.GTMarshal(a))
}

// InGT reports whether a has order dividing r (i.e. is a valid GT element).
func (p *Params) InGT(a *GT) bool {
	e, err := p.E2.Exp(a.v, p.R)
	if err != nil {
		return false
	}
	return p.E2.IsOne(e)
}
