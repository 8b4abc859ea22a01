package smt

import (
	"math"
	"math/big"
	"testing"
)

func TestDeltaString(t *testing.T) {
	for _, tc := range []struct {
		d    delta
		want string
	}{
		{dInt(5), "5"},
		{dStrict(ratInt(5), 1), "5+1δ"},
		{dStrict(ratInt(5), -1), "5-1δ"},
		{delta{R: rat(-1, 2), D: rat(3, 4)}, "-1/2+3/4δ"},
		{delta{D: ratInt(-2)}, "0-2δ"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// FuzzRatArith checks rational against math/big: every operation agrees
// exactly, every result whose numerator and denominator fit in int64 is
// held inline in lowest terms with a positive denominator, and nothing
// panics except division by zero. An operand is n/d scaled by 2^(sh&63),
// into the numerator or (when sh&64 is set) the denominator, so operands
// reach far beyond int64; d = 0 reads as 1.
func FuzzRatArith(f *testing.F) {
	type operand struct {
		n, d int64
		sh   uint8
	}
	edges := []int64{0, 1, -1, math.MaxInt64, -math.MaxInt64, math.MinInt64 + 1, math.MinInt64}
	var seeds [][2]operand
	for _, a := range edges {
		for _, b := range edges {
			seeds = append(seeds, [2]operand{{a, 1, 0}, {b, 1, 0}})
		}
	}
	seeds = append(seeds,
		[2]operand{{math.MaxInt64, 1, 0}, {1, 1, 0}},                                                 // sum overflows
		[2]operand{{math.MinInt64, 1, 0}, {-1, 1, 0}},                                                // product and quotient overflow
		[2]operand{{1 << 32, 1, 0}, {1 << 32, 1, 0}},                                                 // product overflows
		[2]operand{{1, math.MaxInt64, 0}, {1, math.MaxInt64 - 1, 0}},                                 // denominators' product overflows
		[2]operand{{math.MaxInt64, math.MaxInt64 - 1, 0}, {math.MaxInt64 - 1, math.MaxInt64 - 2, 0}}, // cross products overflow
		[2]operand{{-math.MaxInt64, 3, 0}, {math.MaxInt64, 5, 0}},                                    // large fractions
		[2]operand{{3, 7, 63}, {-5, 11, 64 + 40}},                                                    // beyond int64, both ways
		[2]operand{{1, 1, 63}, {-1, 1, 63}},                                                          // 2^63 does not fit, -2^63 does
	)
	for _, p := range seeds {
		f.Add(p[0].n, p[0].d, p[0].sh, p[1].n, p[1].d, p[1].sh)
	}
	f.Fuzz(func(t *testing.T, an, ad int64, ash uint8, bn, bd int64, bsh uint8) {
		a, abig := fuzzOperand(t, an, ad, ash)
		b, bbig := fuzzOperand(t, bn, bd, bsh)
		check := func(op string, got rational, want *big.Rat) {
			t.Helper()
			if got.asBig().Cmp(want) != 0 || got.String() != want.RatString() {
				t.Fatalf("%s(%v, %v) = %v, want %s", op, a, b, got, want.RatString())
			}
			checkCanonical(t, op, got)
		}
		check("add", a.add(b), new(big.Rat).Add(abig, bbig))
		check("sub", a.sub(b), new(big.Rat).Sub(abig, bbig))
		check("mul", a.mul(b), new(big.Rat).Mul(abig, bbig))
		check("neg", a.neg(), new(big.Rat).Neg(abig))
		if got, want := a.cmp(b), abig.Cmp(bbig); got != want {
			t.Fatalf("cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := b.cmp(a), bbig.Cmp(abig); got != want {
			t.Fatalf("cmp(%v, %v) = %d, want %d", b, a, got, want)
		}
		if got, want := a.sign(), abig.Sign(); got != want {
			t.Fatalf("sign(%v) = %d, want %d", a, got, want)
		}
		if bbig.Sign() != 0 {
			check("quo", a.quo(b), new(big.Rat).Quo(abig, bbig))
			return
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("quo(%v, 0) did not panic", a)
			}
		}()
		a.quo(b)
	})
}

// fuzzOperand builds FuzzRatArith's operand both as a rational and as a
// big.Rat.
func fuzzOperand(t *testing.T, n, d int64, sh uint8) (rational, *big.Rat) {
	t.Helper()
	if d == 0 {
		d = 1
	}
	num, den := big.NewInt(n), big.NewInt(d)
	if sh&64 == 0 {
		num.Lsh(num, uint(sh&63))
	} else {
		den.Lsh(den, uint(sh&63))
	}
	want := new(big.Rat).SetFrac(num, den)
	r := ratOfBig(want)
	if r.asBig().Cmp(want) != 0 {
		t.Fatalf("operand %d/%d<<%d = %v, want %s", n, d, sh, r, want.RatString())
	}
	checkCanonical(t, "operand", r)
	return r, want
}

// checkCanonical fails unless r is held inline exactly when it fits, and
// inline values are in lowest terms with a positive denominator.
func checkCanonical(t *testing.T, what string, r rational) {
	t.Helper()
	if r.big != nil {
		if r.big.Num().IsInt64() && r.big.Denom().IsInt64() {
			t.Fatalf("%s: %v fits in int64 but is held as a big.Rat", what, r)
		}
		return
	}
	den := r.dm1 + 1
	if den <= 0 {
		t.Fatalf("%s: inline %v has denominator %d", what, r, den)
	}
	g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(big.NewInt(r.num)), big.NewInt(den))
	if g.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("%s: inline %d/%d is not in lowest terms", what, r.num, den)
	}
}
