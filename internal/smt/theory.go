package smt

import (
	"sort"

	"spes/internal/fol"
)

// theoryLit is a theory atom with the polarity the propositional model
// assigned to it.
type theoryLit struct {
	atom *fol.Term
	pos  bool
	vars []*fol.Term // cached fol.Vars(atom); nil means compute on demand
}

type linOp uint8

const (
	opLe linOp = iota // form ≤ 0
	opLt              // form < 0
	opEq              // form = 0
)

type linCon struct {
	form *linForm
	op   linOp
	lit  int // index of the originating literal; -1 for propagated equalities
}

// theoryCache memoizes ID-keyed per-term theory translations that stay
// valid for the lifetime of one interner. A solver's model loop re-checks
// heavily overlapping literal sets — every model round, every conflict
// explanation, and every core-minimization trial re-translates the same
// atoms — so the linear form of a term difference, a pure function of the
// two (immutable) terms, is worth computing once per solver instead of
// once per check. The cache is bound to the solver's interner, where the ID
// pair identifies the pair of terms exactly.
//
// Cached linForms are shared across checks and must be treated as
// immutable; buildSimplex, formToRow, and the propagation loop only read
// them (their rationals are values, so the simplex's copies are its own).
type theoryCache struct {
	in    *fol.Interner
	diffs map[uint64]*linForm
}

func newTheoryCache(in *fol.Interner) *theoryCache {
	return &theoryCache{in: in, diffs: make(map[uint64]*linForm)}
}

// diff returns linearize(a) − linearize(b), memoized.
func (tc *theoryCache) diff(a, b *fol.Term) *linForm {
	k := uint64(a.ID())<<32 | uint64(b.ID())
	if f, ok := tc.diffs[k]; ok {
		return f
	}
	f := diff(a, b)
	tc.diffs[k] = f
	return f
}

// theoryCheck decides whether a conjunction of theory literals is consistent
// in the combination of linear rational arithmetic and uninterpreted
// functions. It runs congruence closure and simplex to a shared fixpoint,
// exchanging equalities between them (both theories are convex, so equality
// propagation suffices for completeness of the combination).
//
// The returned certain flag is false when the propagation budget was
// exhausted before a verdict; callers must then treat the overall result as
// unknown.
func theoryCheck(e *euf, lits []theoryLit, budget int, tc *theoryCache) (consistent, certain bool) {
	consistent, certain, _ = theoryCheckExplain(e, lits, budget, tc)
	return consistent, certain
}

// theoryCheckExplain is theoryCheck that additionally returns, when
// available, the indices of the literals involved in an arithmetic conflict
// (a small starting point for core minimization). A nil explanation means
// "unknown subset".
//
// The check runs on a persistent congruence engine. Term registration
// (including registration-time congruence merges, which are
// model-independent and therefore globally valid) accumulates in e across
// calls; everything the asserted literals add — merges, signature inserts,
// disequalities — is recorded on a trail and rolled back before returning,
// so e always ends a call in its registration-only base state.
//
// Every map downstream (congruence nodes, the theory cache, linear-form
// coefficients, the simplex variable index) keys on term IDs: the atoms,
// e's registered terms and tc must all belong to one interner, the
// solver's, into which every formula is interned on entry.
func theoryCheckExplain(e *euf, lits []theoryLit, budget int, tc *theoryCache) (consistent, certain bool, expl []int) {
	trueNode := fol.True()
	falseNode := fol.False()
	e.node(trueNode)
	e.node(falseNode)
	// Registration pass, before the undo mark: node registration must stay
	// out of the recorded trail (it is permanent), and signatures computed
	// during registration must not observe assertion-time merges.
	for _, l := range lits {
		a := l.atom
		switch a.Kind {
		case fol.KEq, fol.KLe, fol.KLt:
			e.node(a.Args[0])
			e.node(a.Args[1])
		case fol.KApp:
			e.node(a)
		}
	}
	m := e.mark()
	defer e.undo(m)

	var cons []linCon
	var boolVars []theoryLit

	for idx, l := range lits {
		a := l.atom
		switch a.Kind {
		case fol.KEq:
			lhs, rhs := a.Args[0], a.Args[1]
			if l.pos {
				e.assertEq(lhs, rhs)
				cons = append(cons, linCon{form: tc.diff(lhs, rhs), op: opEq, lit: idx})
			} else {
				e.assertDiseq(lhs, rhs)
				// The arithmetic side of a disequality is enforced by the
				// eagerly added trichotomy clauses (a=b ∨ a<b ∨ b<a), which
				// guarantee a strict comparison is asserted alongside.
			}
		case fol.KLe:
			e.node(a.Args[0])
			e.node(a.Args[1])
			if l.pos {
				cons = append(cons, linCon{form: tc.diff(a.Args[0], a.Args[1]), op: opLe, lit: idx})
			} else {
				cons = append(cons, linCon{form: tc.diff(a.Args[1], a.Args[0]), op: opLt, lit: idx})
			}
		case fol.KLt:
			e.node(a.Args[0])
			e.node(a.Args[1])
			if l.pos {
				cons = append(cons, linCon{form: tc.diff(a.Args[0], a.Args[1]), op: opLt, lit: idx})
			} else {
				cons = append(cons, linCon{form: tc.diff(a.Args[1], a.Args[0]), op: opLe, lit: idx})
			}
		case fol.KApp: // boolean application
			e.node(a)
			if l.pos {
				e.assertEq(a, trueNode)
			} else {
				e.assertEq(a, falseNode)
			}
		case fol.KVar: // plain boolean variable
			boolVars = append(boolVars, theoryLit{atom: a, pos: l.pos})
		}
		if e.conflict {
			return false, true, nil
		}
	}
	// Boolean variables matter to the theories only if they occur inside
	// registered terms (e.g., as application arguments).
	for _, l := range boolVars {
		if _, ok := e.lookup(l.atom); ok {
			if l.pos {
				e.assertEq(l.atom, trueNode)
			} else {
				e.assertEq(l.atom, falseNode)
			}
			if e.conflict {
				return false, true, nil
			}
		}
	}

	// Pure-arithmetic fast path: without uninterpreted applications the
	// congruence closure can teach the simplex nothing beyond the asserted
	// equalities (which are already linear constraints), so one simplex
	// check decides.
	if !e.hasApps() {
		if e.conflict {
			return false, true, nil
		}
		sx, _, feasible := buildSimplex(cons)
		if !feasible || !sx.check() {
			return false, true, explain(sx, cons)
		}
		return true, true, nil
	}

	emitted := make(map[[2]int]bool)
	for round := 0; round < budget; round++ {
		if e.conflict {
			return false, true, nil
		}
		sx, varIdx, feasible := buildSimplex(cons)
		if !feasible || !sx.check() {
			return false, true, explain(sx, cons)
		}
		changed := false

		// Congruence closure → arithmetic: numeric terms in one class are
		// equal; tell the simplex.
		for root, members := range e.classes() {
			var nums []int
			for _, id := range members {
				if e.term(id).Sort == fol.SortNum {
					nums = append(nums, id)
				}
			}
			if len(nums) < 2 {
				continue
			}
			first := nums[0]
			for _, other := range nums[1:] {
				key := [2]int{first, other}
				if emitted[key] {
					continue
				}
				emitted[key] = true
				cons = append(cons, linCon{form: tc.diff(e.term(first), e.term(other)), op: opEq, lit: -1})
				changed = true
			}
			_ = root
		}

		// Arithmetic → congruence closure: probe candidate argument pairs
		// whose equality would fire new congruences.
		var row []entry
		for _, p := range e.argPairs() {
			t1, t2 := e.term(p[0]), e.term(p[1])
			d := tc.diff(t1, t2)
			if d.isConst() {
				if d.konst.sign() == 0 {
					e.assertEq(t1, t2)
					changed = true
				}
				continue
			}
			var ok bool
			if row, ok = formToRow(d, varIdx, row); !ok {
				continue // mentions a variable the arithmetic never constrained
			}
			// Cheap filter: skip if the current model already separates them.
			val := dRat(d.konst)
			for _, en := range row {
				val = val.add(sx.value(en.x).scale(en.c))
			}
			if val.R.sign() != 0 || val.D.sign() != 0 {
				continue
			}
			if sx.probeZero(row, d.konst) {
				e.assertEq(t1, t2)
				if e.conflict {
					return false, true, nil
				}
				changed = true
			}
		}

		if !changed {
			return true, true, nil
		}
	}
	return true, false, nil // budget exhausted; caller must treat as unknown
}

// explain maps a simplex conflict explanation (constraint tags) back to
// literal indices. nil when any contributing constraint lacks an
// originating literal (propagated equalities).
func explain(sx *simplex, cons []linCon) []int {
	if sx == nil || sx.conflictWhy == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, tag := range sx.conflictWhy {
		if tag < 0 || tag >= len(cons) {
			return nil
		}
		lit := cons[tag].lit
		if lit < 0 {
			return nil
		}
		if !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	return out
}

// buildSimplex constructs a simplex instance from the accumulated linear
// constraints. It returns feasible=false when a ground constraint is already
// violated.
func buildSimplex(cons []linCon) (sx *simplex, varIdx map[uint32]int, feasible bool) {
	sx = newSimplex()
	varIdx = make(map[uint32]int)
	// Deterministic variable ordering: sort by the opaque terms' canonical
	// keys, not their IDs — IDs depend on interning order, which varies
	// when concurrent workers share one interner, and the simplex pivot
	// order (hence which explanation a conflict yields) must not.
	var ents []*fol.Term
	slacks := 0
	for _, c := range cons {
		if len(c.form.terms) > 1 {
			slacks++
		}
		for _, lt := range c.form.terms {
			if _, seen := varIdx[lt.t.ID()]; !seen {
				varIdx[lt.t.ID()] = -1 // numbered after the sort
				ents = append(ents, lt.t)
			}
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key() < ents[j].Key() })
	sx.reserve(len(ents) + slacks + 1) // +1: probeZero's slack
	for _, t := range ents {
		varIdx[t.ID()] = sx.newVar()
	}
	var row []entry // defineSlack copies it, so one buffer serves every row
	for tag, c := range cons {
		if c.form.isConst() {
			s := c.form.konst.sign()
			bad := false
			switch c.op {
			case opLe:
				bad = s > 0
			case opLt:
				bad = s >= 0
			case opEq:
				bad = s != 0
			}
			if bad {
				sx.conflictWhy = []int{tag}
				return sx, varIdx, false
			}
			continue
		}
		row, _ = formToRow(c.form, varIdx, row) // every term was numbered above
		// Σ row + konst ⋈ 0  ⇔  slack ⋈ -konst.
		rhs := c.form.konst.neg()
		if len(row) == 1 {
			// Single-variable constraint: bound the variable directly.
			co := row[0].c
			if !applyBound(sx, row[0].x, rhs.quo(co), c.op, co.sign() < 0, tag) {
				return sx, varIdx, false
			}
			continue
		}
		if !applyBound(sx, sx.defineSlack(row), rhs, c.op, false, tag) {
			return sx, varIdx, false
		}
	}
	return sx, varIdx, true
}

// applyBound asserts x ⋈ b (or the flipped comparison when flip is set,
// which arises from dividing by a negative coefficient). why tags the
// originating constraint for explanations.
func applyBound(sx *simplex, x int, b rational, op linOp, flip bool, why int) bool {
	switch op {
	case opEq:
		return sx.assertLower(x, dRat(b), why) && sx.assertUpper(x, dRat(b), why)
	case opLe:
		if flip {
			return sx.assertLower(x, dRat(b), why)
		}
		return sx.assertUpper(x, dRat(b), why)
	case opLt:
		if flip {
			return sx.assertLower(x, dStrict(b, 1), why)
		}
		return sx.assertUpper(x, dStrict(b, -1), why)
	}
	return true
}

// formToRow writes f's variable part into row (reusing its storage) as
// simplex entries, in f's term order. ok=false if the form mentions a
// variable outside the arithmetic vocabulary.
func formToRow(f *linForm, varIdx map[uint32]int, row []entry) ([]entry, bool) {
	row = row[:0]
	for _, lt := range f.terms {
		x, ok := varIdx[lt.t.ID()]
		if !ok {
			return row, false
		}
		row = append(row, entry{x, lt.c})
	}
	return row, true
}
