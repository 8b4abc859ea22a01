package smt

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// rational is an exact rational number for the simplex and linear forms.
// A value whose numerator and denominator both fit in int64 is held inline,
// in lowest terms with a positive denominator; any other value is held as a
// *big.Rat. Every operation first tries the inline form and promotes to
// big.Rat only when an intermediate would overflow, and every big result
// that fits is demoted back, so a value's magnitude alone picks its
// representation. The zero value is 0.
//
// Values are immutable: operations return new values and never modify a
// shared *big.Rat, so copies of a rational are independent. Two equal big
// values may hold different pointers, so compare values only with cmp and
// sign, never with ==.
type rational struct {
	num int64
	dm1 int64    // denominator minus one, so the zero value is 0/1
	big *big.Rat // non-nil iff the value does not fit inline
}

var one = rational{num: 1}

// ratInt returns the integer v.
func ratInt(v int64) rational { return rational{num: v} }

// ratOfBig converts x, which it does not retain.
func ratOfBig(x *big.Rat) rational {
	if fitsInline(x) {
		return ofBig(x)
	}
	return rational{big: new(big.Rat).Set(x)}
}

// ofBig takes ownership of x and demotes it when it fits inline.
func ofBig(x *big.Rat) rational {
	if !fitsInline(x) {
		return rational{big: x}
	}
	if x.IsInt() {
		return rational{num: x.Num().Int64()}
	}
	return rational{num: x.Num().Int64(), dm1: x.Denom().Int64() - 1}
}

// fitsInline checks IsInt first because Denom allocates for an integer.
func fitsInline(x *big.Rat) bool {
	return x.Num().IsInt64() && (x.IsInt() || x.Denom().IsInt64())
}

// asBig returns r as a big.Rat, which the caller must not modify.
func (r rational) asBig() *big.Rat {
	if r.big != nil {
		return r.big
	}
	return new(big.Rat).SetFrac64(r.num, r.dm1+1)
}

// bigOp computes op(a, b) in big.Rat arithmetic: the overflow path.
func bigOp(op func(z, x, y *big.Rat) *big.Rat, a, b rational) rational {
	return ofBig(op(new(big.Rat), a.asBig(), b.asBig()))
}

func (r rational) sign() int {
	if r.big != nil {
		return r.big.Sign()
	}
	return cmp.Compare(r.num, 0)
}

// cmp returns -1, 0 or +1 as r is less than, equal to or greater than o.
// Inline operands are compared by exact 128-bit cross products.
func (r rational) cmp(o rational) int {
	if r.big != nil || o.big != nil {
		return r.asBig().Cmp(o.asBig())
	}
	if r.dm1 == o.dm1 {
		return cmp.Compare(r.num, o.num)
	}
	rs, os := r.sign(), o.sign()
	if rs != os { // equal signs are nonzero: 0 is always 0/1
		return cmp.Compare(rs, os)
	}
	h1, l1 := bits.Mul64(uabs(r.num), uint64(o.dm1+1))
	h2, l2 := bits.Mul64(uabs(o.num), uint64(r.dm1+1))
	c := cmp.Compare(h1, h2)
	if c == 0 {
		c = cmp.Compare(l1, l2)
	}
	return c * rs
}

func (r rational) neg() rational {
	if r.big != nil || r.num == math.MinInt64 {
		return ofBig(new(big.Rat).Neg(r.asBig()))
	}
	return rational{num: -r.num, dm1: r.dm1}
}

func (r rational) add(o rational) rational {
	if r.big == nil && o.big == nil {
		if r.dm1 == 0 && o.dm1 == 0 {
			if s, ok := add64(r.num, o.num); ok {
				return rational{num: s}
			}
		} else if s, ok := addFrac(r, o); ok {
			return s
		}
	}
	return bigOp((*big.Rat).Add, r, o)
}

// addFrac adds two inline fractions with Knuth's gcd-splitting algorithm,
// which yields lowest terms without reducing the full cross product.
func addFrac(r, o rational) (rational, bool) {
	rd, od := uint64(r.dm1+1), uint64(o.dm1+1)
	g := gcd(rd, od)
	x, ok1 := mul64(r.num, int64(od/g))
	y, ok2 := mul64(o.num, int64(rd/g))
	t, ok3 := add64(x, y)
	if !ok1 || !ok2 || !ok3 {
		return rational{}, false
	}
	g2 := gcd(uabs(t), g)
	d, ok := mul64(int64(rd/g), int64(od/g2))
	if !ok {
		return rational{}, false
	}
	return rational{num: t / int64(g2), dm1: d - 1}, true
}

func (r rational) sub(o rational) rational { return r.add(o.neg()) }

func (r rational) mul(o rational) rational {
	if r.big == nil && o.big == nil {
		if r.dm1 == 0 && o.dm1 == 0 {
			if p, ok := mul64(r.num, o.num); ok {
				return rational{num: p}
			}
		} else if p, ok := mulFrac(r, o); ok {
			return p
		}
	}
	return bigOp((*big.Rat).Mul, r, o)
}

// mulFrac multiplies two inline fractions, cancelling the cross gcds
// first so the result is in lowest terms.
func mulFrac(r, o rational) (rational, bool) {
	rd, od := uint64(r.dm1+1), uint64(o.dm1+1)
	g1 := int64(gcd(uabs(r.num), od))
	g2 := int64(gcd(uabs(o.num), rd))
	n, ok1 := mul64(r.num/g1, o.num/g2)
	d, ok2 := mul64(int64(rd)/g2, int64(od)/g1)
	if !ok1 || !ok2 {
		return rational{}, false
	}
	return rational{num: n, dm1: d - 1}, true
}

// quo returns r / o. It panics if o is zero.
func (r rational) quo(o rational) rational {
	if o.sign() == 0 {
		panic("division by zero")
	}
	if o.big == nil && o.num != math.MinInt64 {
		// 1/o in lowest terms, with the sign moved to the numerator.
		inv := rational{num: o.dm1 + 1, dm1: int64(uabs(o.num)) - 1}
		if o.num < 0 {
			inv.num = -inv.num
		}
		return r.mul(inv)
	}
	return bigOp((*big.Rat).Quo, r, o)
}

func (r rational) String() string {
	if r.big != nil {
		return r.big.RatString()
	}
	s := strconv.FormatInt(r.num, 10)
	if r.dm1 != 0 {
		s += "/" + strconv.FormatInt(r.dm1+1, 10)
	}
	return s
}

// add64 and mul64 return the int64 result and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (s^a)&(s^b) >= 0
}

func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs(a), uabs(b))
	if (a < 0) != (b < 0) {
		return int64(-lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// uabs returns |v| as a uint64; it is exact for math.MinInt64 too.
func uabs(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// gcd is Euclid's algorithm; gcd(0, b) = b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
