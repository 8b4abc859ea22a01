// Package symbolic implements SPES's symbolic encoding of queries into
// first-order logic: columns as (value, is-null) pairs, predicates in
// Kleene three-valued logic, CASE via ASSIGN constraints, and EXISTS /
// user-defined functions as uninterpreted functions (§5.2 and Appendix B of
// the paper; the scheme follows EQUITAS's encoding).
package symbolic

import (
	"fmt"
	"math/big"
	"sort"

	"spes/internal/fol"
)

// Col is a symbolic column: a numeric value term and a boolean is-null term.
type Col struct {
	Val  *fol.Term
	Null *fol.Term
}

// Tuple is a symbolic tuple, one Col per output column.
type Tuple []Col

// Terms flattens a tuple into its component terms.
func (t Tuple) Terms() []*fol.Term {
	out := make([]*fol.Term, 0, 2*len(t))
	for _, c := range t {
		out = append(out, c.Val, c.Null)
	}
	return out
}

// IdentityEq returns the formula stating two tuples are identical SQL
// values: same null pattern and, where non-null, same value.
func IdentityEq(a, b Tuple) *fol.Term {
	if len(a) != len(b) {
		return fol.False()
	}
	conj := make([]*fol.Term, 0, 2*len(a))
	for i := range a {
		conj = append(conj,
			fol.Iff(a[i].Null, b[i].Null),
			fol.Implies(fol.Not(a[i].Null), fol.Eq(a[i].Val, b[i].Val)))
	}
	return fol.And(conj...)
}

// BindEq returns the strict element-wise equality of two tuples: values
// equal and null flags matching, with the value pinned even on NULL
// columns. For *binding* a fresh symbolic tuple to a concrete one this is
// interchangeable with IdentityEq (the fresh value component is
// unconstrained by the tuple's meaning, so pinning it loses no models that
// matter), and its purely conjunctive shape lets the solver case-split
// union ASSIGN disjunctions instead of enumerating models.
func BindEq(a, b Tuple) *fol.Term {
	if len(a) != len(b) {
		return fol.False()
	}
	conj := make([]*fol.Term, 0, 2*len(a))
	for i := range a {
		conj = append(conj,
			fol.Iff(a[i].Null, b[i].Null),
			fol.Eq(a[i].Val, b[i].Val))
	}
	return fol.And(conj...)
}

// GroupEq returns the formula stating two tuples fall in the same GROUP BY
// group: SQL grouping treats NULLs as equal.
func GroupEq(a, b Tuple) *fol.Term {
	if len(a) != len(b) {
		return fol.False()
	}
	conj := make([]*fol.Term, 0, len(a))
	for i := range a {
		conj = append(conj, fol.Or(
			fol.And(a[i].Null, b[i].Null),
			fol.And(fol.Not(a[i].Null), fol.Not(b[i].Null), fol.Eq(a[i].Val, b[i].Val))))
	}
	return fol.And(conj...)
}

// Pred3 is a three-valued predicate: when Null holds the predicate is
// UNKNOWN; otherwise Val gives its truth.
type Pred3 struct {
	Val  *fol.Term
	Null *fol.Term
}

// IsTrue returns the formula for "the predicate evaluates to TRUE" (the
// filter-acceptance condition).
func (p Pred3) IsTrue() *fol.Term { return fol.And(fol.Not(p.Null), p.Val) }

// IsFalse returns the formula for "the predicate evaluates to FALSE".
func (p Pred3) IsFalse() *fol.Term { return fol.And(fol.Not(p.Null), fol.Not(p.Val)) }

// TruePred is the always-TRUE predicate.
func TruePred() Pred3 { return Pred3{Val: fol.True(), Null: fol.False()} }

// Gen allocates fresh symbolic variables and interns string constants. One
// Gen is shared across both queries of a verification session so that equal
// string literals map to equal numeric constants, with interning values
// chosen to preserve lexicographic order (string comparisons stay sound).
//
// A Gen builds its leaves through a term interner, and because the fol
// smart constructors build in the interner of their arguments, every
// formula the encoder builds over those leaves lands in the same DAG — no
// other layer has to thread the interner explicitly.
type Gen struct {
	n       int
	strings map[string]*big.Rat
	in      *fol.Interner
}

// NewGen returns an empty generator whose terms are hash-consed by in.
func NewGen(in *fol.Interner) *Gen {
	return &Gen{strings: make(map[string]*big.Rat), in: in}
}

// Interner returns the generator's interner.
func (g *Gen) Interner() *fol.Interner { return g.in }

// FreshCol allocates a fresh symbolic column.
func (g *Gen) FreshCol(prefix string) Col {
	g.n++
	return Col{
		Val:  g.in.NumVar(fmt.Sprintf("%s_v%d", prefix, g.n)),
		Null: g.in.BoolVar(fmt.Sprintf("%s_n%d", prefix, g.n)),
	}
}

// FreshTuple allocates a tuple of n fresh columns.
func (g *Gen) FreshTuple(prefix string, n int) Tuple {
	t := make(Tuple, n)
	for i := range t {
		t[i] = g.FreshCol(prefix)
	}
	return t
}

// FreshNum allocates a fresh numeric variable.
func (g *Gen) FreshNum(prefix string) *fol.Term {
	g.n++
	return g.in.NumVar(fmt.Sprintf("%s_x%d", prefix, g.n))
}

// InternString returns a numeric constant for a string literal. Distinct
// strings get distinct rationals whose order matches lexicographic string
// order, so <, <=, and = on interned strings behave correctly.
func (g *Gen) InternString(s string) *fol.Term {
	if r, ok := g.strings[s]; ok {
		return g.in.Num(r)
	}
	// Place s relative to the already interned strings.
	keys := make([]string, 0, len(g.strings))
	for k := range g.strings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pos := sort.SearchStrings(keys, s)
	var val *big.Rat
	switch {
	case len(keys) == 0:
		val = big.NewRat(0, 1)
	case pos == 0:
		val = new(big.Rat).Sub(g.strings[keys[0]], big.NewRat(1, 1))
	case pos == len(keys):
		val = new(big.Rat).Add(g.strings[keys[len(keys)-1]], big.NewRat(1, 1))
	default:
		sum := new(big.Rat).Add(g.strings[keys[pos-1]], g.strings[keys[pos]])
		val = sum.Quo(sum, big.NewRat(2, 1))
	}
	g.strings[s] = val
	return g.in.Num(val)
}

// QPSR is the Query Pair Symbolic Representation (§5.2): a symbolic
// bijection between the output tuples of two cardinally equivalent queries.
// Cols1 represents an arbitrary tuple of the first query; Cols2 the tuple
// the bijection pairs it with in the second query's output. Cond constrains
// both to be actual output tuples; Assign carries auxiliary definitional
// constraints (CASE arms, union branch selection).
type QPSR struct {
	Cols1  Tuple
	Cols2  Tuple
	Cond   *fol.Term
	Assign *fol.Term
}

// FullEquivalenceObligation is the formula of Lemma 1 whose validity proves
// full equivalence: Cond ∧ Assign ⟹ Cols1 = Cols2.
func (q *QPSR) FullEquivalenceObligation() *fol.Term {
	if len(q.Cols1) != len(q.Cols2) {
		return fol.False()
	}
	return fol.Implies(fol.And(q.Cond, q.Assign), IdentityEq(q.Cols1, q.Cols2))
}
