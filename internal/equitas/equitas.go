// Package equitas reimplements the EQUITAS baseline the paper compares
// against (§2, §7.2): a symbolic prover of query equivalence under SET
// semantics via bidirectional containment.
//
// For each query it derives a single symbolic representation — one symbolic
// tuple (COLS) plus the condition (COND) under which the tuple is returned —
// and proves Q1 ⊑ Q2 by checking COND₁ ⟹ COND₂ and
// COND₁ ∧ COND₂ ⟹ COLS₁ = COLS₂ with the SMT solver. Equivalence holds when
// containment holds both ways.
//
// Faithful limitations (per the paper's characterization):
//   - set semantics only: it cannot track tuple multiplicities, so it
//     accepts pairs like Figure 1 that differ as bags;
//   - monolithic whole-query SRs: base-table occurrences are aligned by
//     scan order, so input permutations beyond simple cases fail;
//   - no UNF normalization: structural mismatches that SPES's rules remove
//     (outer-join simplification, aggregate merging) defeat it.
package equitas

import (
	"fmt"

	"spes/internal/fol"
	"spes/internal/plan"
	"spes/internal/smt"
	"spes/internal/symbolic"
)

// Verifier proves set-semantics equivalence. One per pair; not concurrent.
// Its terms are built in its own interner, which its solver shares.
type Verifier struct {
	solver *smt.Solver
	gen    *symbolic.Gen
	enc    *symbolic.Encoder
	// tableVars aligns base-table occurrences across the two queries: the
	// i-th scan of table T in either query maps to the same symbolic tuple.
	tableVars map[string][]symbolic.Tuple
	scanCount map[string]int
}

// New returns a fresh verifier.
func New() *Verifier {
	g := symbolic.NewGen(fol.NewInterner())
	s := smt.New()
	s.Interner = g.Interner()
	return &Verifier{
		solver:    s,
		gen:       g,
		enc:       symbolic.NewEncoder(g),
		tableVars: make(map[string][]symbolic.Tuple),
	}
}

// SolverQueries reports solver usage for benchmarking.
func (v *Verifier) SolverQueries() int { return v.solver.Stats.Queries }

// sr is a single-query symbolic representation.
type sr struct {
	cols   symbolic.Tuple
	cond   *fol.Term
	assign *fol.Term
}

// VerifyPlans reports whether the two plans are proved equivalent under set
// semantics.
func (v *Verifier) VerifyPlans(q1, q2 plan.Node) bool {
	if q1.Arity() != q2.Arity() {
		return false
	}
	v.scanCount = make(map[string]int)
	s1, err := v.derive(q1)
	if err != nil {
		return false
	}
	v.scanCount = make(map[string]int)
	s2, err := v.derive(q2)
	if err != nil {
		return false
	}
	return v.contains(s1, s2) && v.contains(s2, s1)
}

// contains checks as ⊑ bs under set semantics: every tuple produced by some
// SR of as must be produced by b — established by finding, for each a-SR,
// one b-SR containing it (sound; incomplete for tuples b only covers by
// combining branches).
func (v *Verifier) contains(as, bs []*sr) bool {
	for _, a := range as {
		ok := false
		for _, b := range bs {
			if v.pairContains(a, b) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// pairContains checks a ⊑ b for single SRs.
func (v *Verifier) pairContains(a, b *sr) bool {
	ctx := fol.And(a.assign, b.assign)
	if !v.solver.Valid(fol.Implies(fol.And(ctx, a.cond), b.cond)) {
		return false
	}
	return v.solver.Valid(fol.Implies(fol.And(ctx, a.cond, b.cond),
		symbolic.IdentityEq(a.cols, b.cols)))
}

// maxSRs caps the disjunctive expansion.
const maxSRs = 32

// derive builds the SRs of a plan — a disjunction with one SR per way a
// tuple can be produced (union branches multiply out).
func (v *Verifier) derive(n plan.Node) ([]*sr, error) {
	switch t := n.(type) {
	case *plan.Table:
		return []*sr{v.deriveTable(t)}, nil

	case *plan.Empty:
		return []*sr{{
			cols:   v.gen.FreshTuple("eq_e", t.Arity()),
			cond:   fol.False(),
			assign: fol.True(),
		}}, nil

	case *plan.SPJ:
		// Cartesian product over the inputs' SR alternatives.
		combos := [][]*sr{nil}
		for _, in := range t.Inputs {
			alts, err := v.derive(in)
			if err != nil {
				return nil, err
			}
			var next [][]*sr
			for _, c := range combos {
				for _, alt := range alts {
					next = append(next, append(append([]*sr{}, c...), alt))
				}
			}
			if len(next) > maxSRs {
				return nil, fmt.Errorf("equitas: disjunctive expansion too large")
			}
			combos = next
		}
		var out []*sr
		for _, combo := range combos {
			s, err := v.deriveSPJOver(t, combo)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil

	case *plan.Union:
		var out []*sr
		for _, in := range t.Inputs {
			alts, err := v.derive(in)
			if err != nil {
				return nil, err
			}
			out = append(out, alts...)
			if len(out) > maxSRs {
				return nil, fmt.Errorf("equitas: disjunctive expansion too large")
			}
		}
		return out, nil

	case *plan.Agg:
		return v.deriveAgg(t)
	}
	return nil, fmt.Errorf("equitas: unsupported node %T", n)
}

// deriveSPJOver builds one SPJ SR over a fixed choice of input SRs.
func (v *Verifier) deriveSPJOver(t *plan.SPJ, inputs []*sr) (*sr, error) {
	var cols symbolic.Tuple
	conds := []*fol.Term{}
	assigns := []*fol.Term{}
	for _, s := range inputs {
		cols = append(cols, s.cols...)
		conds = append(conds, s.cond)
		assigns = append(assigns, s.assign)
	}
	cond := fol.And(conds...)
	if t.Pred != nil {
		p, err := v.enc.Pred(t.Pred, cols)
		if err != nil {
			v.enc.TakeAssigns()
			return nil, err
		}
		assigns = append(assigns, v.enc.TakeAssigns())
		cond = fol.And(cond, p.IsTrue())
	}
	out := make(symbolic.Tuple, len(t.Proj))
	for i, p := range t.Proj {
		c, err := v.enc.Expr(p.E, cols)
		if err != nil {
			v.enc.TakeAssigns()
			return nil, err
		}
		out[i] = c
	}
	assigns = append(assigns, v.enc.TakeAssigns())
	return &sr{cols: out, cond: cond, assign: fol.And(assigns...)}, nil
}

func (v *Verifier) deriveTable(t *plan.Table) *sr {
	name := t.Meta.Name
	i := v.scanCount[name]
	v.scanCount[name] = i + 1
	for len(v.tableVars[name]) <= i {
		cols := make(symbolic.Tuple, len(t.Meta.Columns))
		for k, c := range t.Meta.Columns {
			sc := v.gen.FreshCol("eq_t")
			if c.NotNull {
				sc.Null = fol.False()
			}
			cols[k] = sc
		}
		v.tableVars[name] = append(v.tableVars[name], cols)
	}
	return &sr{cols: v.tableVars[name][i], cond: fol.True(), assign: fol.True()}
}

// deriveAgg models an aggregate output column as an uninterpreted function
// of the aggregate's operand and the full group key. Two aggregates agree
// exactly when function, operand, and grouping coincide symbolically —
// EQUITAS's set-semantic treatment of grouped queries. Aggregation over a
// disjunctive input (groups spanning union branches) is unsupported.
func (v *Verifier) deriveAgg(a *plan.Agg) ([]*sr, error) {
	alts, err := v.derive(a.Input)
	if err != nil {
		return nil, err
	}
	if len(alts) != 1 {
		return nil, fmt.Errorf("equitas: aggregate over a union")
	}
	in := alts[0]
	var out symbolic.Tuple
	var keyTerms []*fol.Term
	for _, g := range a.GroupBy {
		c, err := v.enc.Expr(g.E, in.cols)
		if err != nil {
			v.enc.TakeAssigns()
			return nil, err
		}
		out = append(out, c)
		keyTerms = append(keyTerms, c.Val, c.Null)
	}
	assigns := []*fol.Term{in.assign, v.enc.TakeAssigns()}
	for _, f := range a.Aggs {
		args := append([]*fol.Term{}, keyTerms...)
		if f.Arg != nil {
			c, err := v.enc.Expr(f.Arg, in.cols)
			if err != nil {
				v.enc.TakeAssigns()
				return nil, err
			}
			assigns = append(assigns, v.enc.TakeAssigns())
			args = append(args, c.Val, c.Null)
		}
		name := fmt.Sprintf("eqagg$%v", f.Op)
		if f.Distinct {
			name += "$d"
		}
		out = append(out, symbolic.Col{
			Val:  v.gen.Interner().App(name, fol.SortNum, args...),
			Null: v.gen.Interner().App(name+"$null", fol.SortBool, args...),
		})
	}
	return []*sr{{cols: out, cond: in.cond, assign: fol.And(assigns...)}}, nil
}
