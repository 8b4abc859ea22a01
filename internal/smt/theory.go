package smt

import (
	"math/big"
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
// them (the simplex copies coefficients before mutating).
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
		for _, p := range e.argPairs() {
			t1, t2 := e.term(p[0]), e.term(p[1])
			d := tc.diff(t1, t2)
			if d.isConst() {
				if d.konst.Sign() == 0 {
					e.assertEq(t1, t2)
					changed = true
				}
				continue
			}
			row, k, ok := formToRow(d, varIdx)
			if !ok {
				continue // mentions a variable the arithmetic never constrained
			}
			// Cheap filter: skip if the current model already separates them.
			val := dRat(k)
			for x, c := range row {
				val = val.add(sx.value(x).scale(c))
			}
			if val.R.Sign() != 0 || val.D.Sign() != 0 {
				continue
			}
			if sx.probeZero(row, k) {
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
	type varEnt struct {
		id uint32
		t  *fol.Term
	}
	var ents []varEnt
	seen := make(map[uint32]bool)
	for _, c := range cons {
		for id, t := range c.form.opaque {
			if !seen[id] {
				seen[id] = true
				ents = append(ents, varEnt{id, t})
			}
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].t.Key() < ents[j].t.Key() })
	for _, e := range ents {
		varIdx[e.id] = sx.newVar()
	}
	for tag, c := range cons {
		if c.form.isConst() {
			s := c.form.konst.Sign()
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
		row := make(map[int]*big.Rat, len(c.form.coeffs))
		for k, co := range c.form.coeffs {
			row[varIdx[k]] = co
		}
		// Σ row + konst ⋈ 0  ⇔  slack ⋈ -konst.
		bound := new(big.Rat).Neg(c.form.konst)
		var x int
		if len(row) == 1 {
			// Single-variable constraint: bound the variable directly.
			for v, co := range row {
				x = v
				b := new(big.Rat).Quo(bound, co)
				if !applyBound(sx, x, b, c.op, co.Sign() < 0, tag) {
					return sx, varIdx, false
				}
			}
			continue
		}
		x = sx.defineSlack(row)
		if !applyBound(sx, x, bound, c.op, false, tag) {
			return sx, varIdx, false
		}
	}
	return sx, varIdx, true
}

// applyBound asserts x ⋈ b (or the flipped comparison when flip is set,
// which arises from dividing by a negative coefficient). why tags the
// originating constraint for explanations.
func applyBound(sx *simplex, x int, b *big.Rat, op linOp, flip bool, why int) bool {
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

// formToRow converts a linear form to simplex row indices. ok=false if the
// form mentions a variable outside the arithmetic vocabulary.
func formToRow(f *linForm, varIdx map[uint32]int) (map[int]*big.Rat, *big.Rat, bool) {
	row := make(map[int]*big.Rat, len(f.coeffs))
	for k, c := range f.coeffs {
		x, ok := varIdx[k]
		if !ok {
			return nil, nil, false
		}
		row[x] = c
	}
	return row, f.konst, true
}
