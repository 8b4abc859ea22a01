// Package fol implements the first-order-logic term language that SPES uses
// for symbolic representations of queries. Terms are immutable and
// hash-consed by an Interner, over two sorts (numeric and boolean). The
// package provides smart constructors that perform light normalization
// (flattening, constant folding), plus substitution, traversal, and
// printing utilities.
//
// The numeric sort models SQL values uniformly as rationals; string constants
// are interned to numeric constants by the symbolic encoder, and operations
// the solver cannot interpret (user-defined functions, string functions,
// EXISTS predicates, non-linear multiplication) appear as uninterpreted
// function applications.
package fol

import (
	"math/big"
)

// Sort identifies the type of a term.
type Sort uint8

const (
	// SortNum is the numeric sort (modelled as rationals in the solver).
	SortNum Sort = iota
	// SortBool is the boolean sort.
	SortBool
)

func (s Sort) String() string {
	if s == SortBool {
		return "Bool"
	}
	return "Num"
}

// Kind identifies the head symbol of a term.
type Kind uint8

const (
	// KVar is a sorted variable; Name holds the identifier.
	KVar Kind = iota
	// KNum is a numeric constant; Rat holds the value.
	KNum
	// KTrue and KFalse are the boolean constants.
	KTrue
	KFalse

	// Numeric operators.
	KAdd // n-ary sum
	KMul // n-ary product
	KNeg // unary negation
	KDiv // binary division

	// Atoms comparing numeric terms.
	KEq // equality (numeric)
	KLe // less-or-equal
	KLt // strict less-than

	// Boolean connectives.
	KNot
	KAnd // n-ary
	KOr  // n-ary
	KImplies
	KIff

	// KIte is if-then-else; Args[0] is a boolean condition and Args[1],
	// Args[2] share the term's sort (numeric or boolean).
	KIte

	// KApp is an uninterpreted function application; Name holds the
	// function symbol and Sort the result sort.
	KApp
)

var kindNames = map[Kind]string{
	KVar: "var", KNum: "num", KTrue: "true", KFalse: "false",
	KAdd: "+", KMul: "*", KNeg: "-", KDiv: "/",
	KEq: "=", KLe: "<=", KLt: "<",
	KNot: "not", KAnd: "and", KOr: "or", KImplies: "=>", KIff: "<=>",
	KIte: "ite", KApp: "app",
}

func (k Kind) String() string { return kindNames[k] }

// Term is an immutable FOL term. Every term is owned by an Interner, which
// hash-conses it; the only exceptions are the boolean constants True and
// False, universal singletons that belong to every interner at once.
// Construct terms only through an Interner's leaf constructors and the
// package's composite constructors, which establish the invariants the
// solver relies on (sorts line up, n-ary connectives are flattened,
// constants are folded).
type Term struct {
	Kind Kind
	Sort Sort
	Name string   // variable or function symbol
	Rat  *big.Rat // numeric constant value
	Args []*Term

	key  string    // canonical form, computed at intern time
	in   *Interner // owning interner; nil only for the boolean singletons
	id   uint32    // dense per-interner node ID; 0/1 are the boolean singletons
	hash uint64    // structural hash, computed at intern time
}

// ID returns the term's dense interner-scoped node ID: within one interner,
// structural equality, pointer identity, and ID equality coincide. The
// boolean singletons carry the fixed IDs 0 (true) and 1 (false) in every
// interner.
func (t *Term) ID() uint32 { return t.id }

// Hash returns the term's structural hash, computed once at intern time.
func (t *Term) Hash() uint64 { return t.hash }

// Owner returns the interner that owns t, or nil for the universal
// singletons (which belong to every interner at once).
func (t *Term) Owner() *Interner { return t.in }

// IsConst reports whether t is a constant (numeric or boolean).
func (t *Term) IsConst() bool {
	return t.Kind == KNum || t.Kind == KTrue || t.Kind == KFalse
}

// IsAtom reports whether t is a theory atom from the SAT solver's point of
// view: a comparison between numeric terms, a boolean variable, a boolean
// uninterpreted application, or a boolean constant.
func (t *Term) IsAtom() bool {
	switch t.Kind {
	case KEq, KLe, KLt, KTrue, KFalse:
		return true
	case KVar, KApp:
		return t.Sort == SortBool
	}
	return false
}

// Equal reports structural equality of two terms.
func (t *Term) Equal(u *Term) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil {
		return false
	}
	if t.in == u.in {
		// Hash-consed by the same interner (or both singletons): structural
		// equality is pointer identity, and the pointers differ.
		return false
	}
	if t.Kind != u.Kind || t.Sort != u.Sort || t.Name != u.Name || len(t.Args) != len(u.Args) {
		return false
	}
	if t.Kind == KNum && t.Rat.Cmp(u.Rat) != 0 {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// BoolVal returns the value of a boolean constant, and ok=false if t is not
// one.
func (t *Term) BoolVal() (val, ok bool) {
	switch t.Kind {
	case KTrue:
		return true, true
	case KFalse:
		return false, true
	}
	return false, false
}
