// Integrity-constraint axioms (the constraint-aware extension beyond the
// paper, grounded in Chirkova & Genesereth's treatment of equivalence
// under embedded dependencies): the verifier conjoins these into a table
// scan's COND so the solver may assume them. Every axiom holds on every
// database that satisfies the declared constraints, so conjoining them
// into the premise of the Lemma 1 obligation is sound — it can only admit
// more proofs, all of which are valid on the constrained catalog.
package symbolic

import "spes/internal/fol"

// KeyFDAxiom states the functional dependency a unique key induces
// between two symbolic tuples drawn from the same table: if the key
// columns (key, as positions into the tuples) agree and are non-NULL on
// both sides, the tuples are the same row, so every column agrees.
//
// The non-NULL premise makes one encoding serve both PRIMARY KEY and
// UNIQUE: a PK is never NULL (the premise is trivially satisfied), while
// SQL UNIQUE only constrains rows whose key is fully non-NULL.
func KeyFDAxiom(a, b Tuple, key []int) *fol.Term {
	if len(a) != len(b) {
		return fol.True()
	}
	prem := make([]*fol.Term, 0, 3*len(key))
	for _, j := range key {
		prem = append(prem,
			fol.Not(a[j].Null), fol.Not(b[j].Null),
			fol.Eq(a[j].Val, b[j].Val))
	}
	return fol.Implies(fol.And(prem...), IdentityEq(a, b))
}

// Member applies the uninterpreted membership predicate name to the value
// components of tuple t at positions idx. The predicate models "some row
// of the parent table carries these key values": parent scans assert it
// of their own key, child scans assert it of their fully non-NULL foreign
// keys (see FKChildAxiom), and because the symbol is uninterpreted the
// solver may only conclude what both assertions jointly entail. The
// application is built in the interner of the tuple's values.
func Member(name string, t Tuple, idx []int) *fol.Term {
	args := make([]*fol.Term, len(idx))
	for i, j := range idx {
		args[i] = t[j].Val
	}
	return t[idx[0]].Val.Owner().App(name, fol.SortBool, args...)
}

// FKChildAxiom states referential containment for one child tuple under
// MATCH SIMPLE semantics: when every foreign-key component (fkIdx, as
// positions into t) is non-NULL, the key tuple is a member of the parent
// relation's key set.
func FKChildAxiom(name string, t Tuple, fkIdx []int) *fol.Term {
	prem := make([]*fol.Term, len(fkIdx))
	for i, j := range fkIdx {
		prem[i] = fol.Not(t[j].Null)
	}
	return fol.Implies(fol.And(prem...), Member(name, t, fkIdx))
}
