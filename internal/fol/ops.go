package fol

import (
	"fmt"
	"math/big"
	"sort"
)

var (
	// The boolean singletons belong to no interner, so their canonical keys
	// are set here rather than at intern time.
	termTrue  = &Term{Kind: KTrue, Sort: SortBool, key: "true"}
	termFalse = &Term{Kind: KFalse, Sort: SortBool, key: "false"}
	ratZero   = new(big.Rat)
	ratOne    = big.NewRat(1, 1)
)

// True returns the boolean constant true.
func True() *Term { return termTrue }

// False returns the boolean constant false.
func False() *Term { return termFalse }

// Bool returns the boolean constant for v.
func Bool(v bool) *Term {
	if v {
		return termTrue
	}
	return termFalse
}

// Add returns the sum of ts as a normalized linear combination: nested sums
// flatten, constants fold, and like terms combine (so x - x folds to 0).
// ts must not be empty: the sum is built in the first term's interner.
func Add(ts ...*Term) *Term {
	owner := ts[0].in
	acc := new(big.Rat)
	coeffs := make(map[string]*big.Rat)
	terms := make(map[string]*Term)
	var order []string
	var collect func(t *Term, c *big.Rat)
	collect = func(t *Term, c *big.Rat) {
		switch t.Kind {
		case KNum:
			acc.Add(acc, new(big.Rat).Mul(c, t.Rat))
		case KAdd:
			for _, a := range t.Args {
				collect(a, c)
			}
		case KNeg:
			collect(t.Args[0], new(big.Rat).Neg(c))
		case KMul:
			if t.Args[0].Kind == KNum {
				rest := Mul(t.Args[1:]...)
				collect(rest, new(big.Rat).Mul(c, t.Args[0].Rat))
				return
			}
			fallthrough
		default:
			key := t.Key()
			if cur, ok := coeffs[key]; ok {
				cur.Add(cur, c)
			} else {
				coeffs[key] = new(big.Rat).Set(c)
				terms[key] = t
				order = append(order, key)
			}
		}
	}
	for _, t := range ts {
		collect(t, ratOne)
	}
	sort.Strings(order) // canonical: x+y and y+x build identical terms
	args := make([]*Term, 0, len(order)+1)
	for _, key := range order {
		c := coeffs[key]
		switch {
		case c.Sign() == 0:
		case c.Cmp(ratOne) == 0:
			args = append(args, terms[key])
		default:
			args = append(args, Mul(owner.Num(c), terms[key]))
		}
	}
	if acc.Sign() != 0 || len(args) == 0 {
		args = append(args, owner.Num(acc))
	}
	if len(args) == 1 {
		return args[0]
	}
	return owner.adopt(&Term{Kind: KAdd, Sort: SortNum, Args: args})
}

// Neg returns the numeric negation of t.
func Neg(t *Term) *Term {
	switch t.Kind {
	case KNum:
		return t.in.Num(new(big.Rat).Neg(t.Rat))
	case KNeg:
		return t.Args[0]
	case KAdd:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = Neg(a)
		}
		return Add(args...)
	}
	return t.in.adopt(&Term{Kind: KNeg, Sort: SortNum, Args: []*Term{t}})
}

// Sub returns a - b.
func Sub(a, b *Term) *Term { return Add(a, Neg(b)) }

// Mul returns the product of ts, flattening and folding constants. Products
// of two or more non-constant factors are non-linear; the SMT layer treats
// them as uninterpreted. ts must not be empty: the product is built in the
// first term's interner.
func Mul(ts ...*Term) *Term {
	owner := ts[0].in
	args := make([]*Term, 0, len(ts))
	acc := new(big.Rat).Set(ratOne)
	for _, t := range ts {
		switch t.Kind {
		case KMul:
			for _, a := range t.Args {
				if a.Kind == KNum {
					acc.Mul(acc, a.Rat)
				} else {
					args = append(args, a)
				}
			}
		case KNum:
			acc.Mul(acc, t.Rat)
		default:
			args = append(args, t)
		}
	}
	if acc.Sign() == 0 {
		return owner.Int(0)
	}
	if len(args) == 0 {
		return owner.Num(acc)
	}
	SortTerms(args) // canonical: x*y and y*x build identical terms
	if acc.Cmp(ratOne) != 0 {
		args = append([]*Term{owner.Num(acc)}, args...)
	}
	if len(args) == 1 {
		return args[0]
	}
	return owner.adopt(&Term{Kind: KMul, Sort: SortNum, Args: args})
}

// Div returns a / b. Division by a non-zero constant folds into
// multiplication; other divisions remain symbolic (treated as uninterpreted
// by the solver).
func Div(a, b *Term) *Term {
	if b.Kind == KNum && b.Rat.Sign() != 0 {
		return Mul(a, b.in.Num(new(big.Rat).Inv(b.Rat)))
	}
	return a.in.adopt(&Term{Kind: KDiv, Sort: SortNum, Args: []*Term{a, b}})
}

// Eq returns the numeric equality a = b, with constant folding and canonical
// argument ordering so that structurally equal atoms coincide.
func Eq(a, b *Term) *Term {
	if a.Kind == KNum && b.Kind == KNum {
		return Bool(a.Rat.Cmp(b.Rat) == 0)
	}
	if a.Equal(b) {
		return True()
	}
	if a.Key() > b.Key() {
		a, b = b, a
	}
	return a.in.adopt(&Term{Kind: KEq, Sort: SortBool, Args: []*Term{a, b}})
}

// Le returns a <= b with constant folding.
func Le(a, b *Term) *Term {
	if a.Kind == KNum && b.Kind == KNum {
		return Bool(a.Rat.Cmp(b.Rat) <= 0)
	}
	if a.Equal(b) {
		return True()
	}
	return a.in.adopt(&Term{Kind: KLe, Sort: SortBool, Args: []*Term{a, b}})
}

// Lt returns a < b with constant folding.
func Lt(a, b *Term) *Term {
	if a.Kind == KNum && b.Kind == KNum {
		return Bool(a.Rat.Cmp(b.Rat) < 0)
	}
	if a.Equal(b) {
		return False()
	}
	return a.in.adopt(&Term{Kind: KLt, Sort: SortBool, Args: []*Term{a, b}})
}

// Ge returns a >= b.
func Ge(a, b *Term) *Term { return Le(b, a) }

// Gt returns a > b.
func Gt(a, b *Term) *Term { return Lt(b, a) }

// Not returns the negation of t. Negated comparisons are rewritten to their
// complementary comparison (valid over a total order), which keeps the atom
// vocabulary small.
func Not(t *Term) *Term {
	switch t.Kind {
	case KTrue:
		return False()
	case KFalse:
		return True()
	case KNot:
		return t.Args[0]
	case KLe:
		return Lt(t.Args[1], t.Args[0])
	case KLt:
		return Le(t.Args[1], t.Args[0])
	}
	return t.in.adopt(&Term{Kind: KNot, Sort: SortBool, Args: []*Term{t}})
}

// And returns the conjunction of ts, flattening, deduplicating, and detecting
// syntactic complements.
func And(ts ...*Term) *Term { return nary(KAnd, ts) }

// Or returns the disjunction of ts, flattening, deduplicating, and detecting
// syntactic complements.
func Or(ts ...*Term) *Term { return nary(KOr, ts) }

func nary(k Kind, ts []*Term) *Term {
	unit, zero := termTrue, termFalse
	if k == KOr {
		unit, zero = termFalse, termTrue
	}
	args := make([]*Term, 0, len(ts))
	seen := make(map[string]bool, len(ts))
	var collect func(t *Term) bool // returns false when the zero is hit
	collect = func(t *Term) bool {
		if t.Kind == k {
			for _, a := range t.Args {
				if !collect(a) {
					return false
				}
			}
			return true
		}
		if t.Kind == unit.Kind {
			return true
		}
		if t.Kind == zero.Kind {
			return false
		}
		key := t.Key()
		if seen[key] {
			return true
		}
		if seen[Not(t).Key()] {
			return false // t and ¬t together
		}
		seen[key] = true
		args = append(args, t)
		return true
	}
	for _, t := range ts {
		if !collect(t) {
			return zero
		}
	}
	switch len(args) {
	case 0:
		return unit
	case 1:
		return args[0]
	}
	// Units and zeros were dropped, so no argument is a singleton.
	return args[0].in.adopt(&Term{Kind: k, Sort: SortBool, Args: args})
}

// Implies returns a => b, represented as ¬a ∨ b.
func Implies(a, b *Term) *Term { return Or(Not(a), b) }

// Iff returns a <=> b with constant folding.
func Iff(a, b *Term) *Term {
	if a.Equal(b) {
		return True()
	}
	if v, ok := a.BoolVal(); ok {
		if v {
			return b
		}
		return Not(b)
	}
	if v, ok := b.BoolVal(); ok {
		if v {
			return a
		}
		return Not(a)
	}
	if a.Key() > b.Key() {
		a, b = b, a
	}
	return a.in.adopt(&Term{Kind: KIff, Sort: SortBool, Args: []*Term{a, b}})
}

// Ite returns if-then-else. Boolean-sorted ITEs expand into connectives;
// numeric ITEs remain as KIte terms and are lifted by the SMT preprocessor.
func Ite(cond, then, els *Term) *Term {
	if then.Sort != els.Sort {
		panic("fol: Ite branches have different sorts")
	}
	if v, ok := cond.BoolVal(); ok {
		if v {
			return then
		}
		return els
	}
	if then.Equal(els) {
		return then
	}
	if then.Sort == SortBool {
		return Or(And(cond, then), And(Not(cond), els))
	}
	return then.in.adopt(&Term{Kind: KIte, Sort: SortNum, Args: []*Term{cond, then, els}})
}

// TupleEq returns the conjunction of element-wise equalities between two
// equally sized vectors of terms (mixing sorts is allowed; boolean elements
// compare with Iff).
func TupleEq(a, b []*Term) *Term {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fol: TupleEq over vectors of different lengths %d and %d", len(a), len(b)))
	}
	conj := make([]*Term, 0, len(a))
	for i := range a {
		if a[i].Sort == SortBool {
			conj = append(conj, Iff(a[i], b[i]))
		} else {
			conj = append(conj, Eq(a[i], b[i]))
		}
	}
	return And(conj...)
}

// SortTerms orders a slice of terms by canonical key, for deterministic
// iteration.
func SortTerms(ts []*Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}
