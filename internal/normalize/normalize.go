// Package normalize converts plan trees toward Union Normal Form (§4.2 of
// the paper) and applies SPES's normalization rules: SPJ merging, union
// flattening and distribution, empty-table elimination (solver-backed
// unsatisfiable predicates), predicate push-down through aggregates and
// unions, aggregate merging, and the integrity-constraint rules (self-join
// on primary key, grouping on a primary key).
//
// Every rule preserves bag semantics; the differential test suite executes
// plans before and after normalization on random databases to enforce this.
package normalize

import (
	"spes/internal/fol"
	"spes/internal/plan"
	"spes/internal/smt"
	"spes/internal/symbolic"
)

// Options disables individual rules, for the paper's "SPES (w/o
// normalization)" configuration and for ablation benchmarks.
type Options struct {
	NoSPJMerge   bool
	NoUnionRules bool
	NoEmptyTable bool
	NoPushdown   bool
	NoAggMerge   bool
	NoIntegrity  bool
	// MaxPasses bounds fixpoint iteration (default 12).
	MaxPasses int
}

func (o Options) maxPasses() int {
	if o.MaxPasses > 0 {
		return o.MaxPasses
	}
	return 12
}

// SatCache is an optional second-level predicate-satisfiability cache
// shared across Normalizers (see SetSatCache). Implementations must be
// safe for concurrent use. The cached relation — canonical predicate key
// to satisfiability — is deterministic, so sharing never changes a
// normalization result, only skips recomputing it.
type SatCache interface {
	Lookup(key string) (sat, ok bool)
	Store(key string, sat bool)
}

// Normalizer rewrites plans. Safe to reuse across plans; not concurrent.
type Normalizer struct {
	opts Options
	// solver and enc back the empty-table check (predSatisfiable). They are
	// created, together with the interner they share, on the first
	// satisfiability-cache miss: most normalizations are answered from the
	// caches and never build a term.
	solver *smt.Solver
	enc    *symbolic.Encoder
	// satCache memoizes predicate satisfiability by canonical form.
	satCache map[string]bool
	// shared is an optional cross-Normalizer satisfiability cache; the
	// local map stays in front of it so repeat lookups on this Normalizer
	// never pay the shared cache's synchronization.
	shared SatCache
}

// New returns a Normalizer.
func New(opts Options) *Normalizer {
	return &Normalizer{opts: opts, satCache: make(map[string]bool)}
}

// SetSatCache attaches a shared predicate-satisfiability cache behind the
// local one (batch engines give every worker's Normalizer the same cache).
func (nz *Normalizer) SetSatCache(c SatCache) { nz.shared = c }

// Normalize rewrites n to a fixpoint of the rule set. Subquery plans nested
// inside expressions (EXISTS, scalar subqueries) are normalized too, so
// structurally different but rule-equal subqueries converge to one shape
// (which the symbolic encoder's canonical EXISTS naming relies on).
func (nz *Normalizer) Normalize(n plan.Node) plan.Node {
	prev := plan.Format(n)
	for pass := 0; pass < nz.opts.maxPasses(); pass++ {
		n = nz.normalizeSubplans(nz.rewrite(n))
		cur := plan.Format(n)
		if cur == prev {
			break
		}
		prev = cur
	}
	return n
}

// normalizeSubplans applies the rule set to every expression-nested plan.
func (nz *Normalizer) normalizeSubplans(n plan.Node) plan.Node {
	rewriteExpr := func(e plan.Expr) plan.Expr {
		if e == nil {
			return nil
		}
		return plan.RewriteExpr(e, func(x plan.Expr) plan.Expr {
			switch v := x.(type) {
			case *plan.Exists:
				return &plan.Exists{Sub: nz.normalizeSubplans(nz.rewrite(v.Sub)), Negate: v.Negate}
			case *plan.ScalarSub:
				return &plan.ScalarSub{Sub: nz.normalizeSubplans(nz.rewrite(v.Sub))}
			}
			return nil
		})
	}
	switch v := n.(type) {
	case *plan.SPJ:
		out := &plan.SPJ{Pred: rewriteExpr(v.Pred)}
		for _, in := range v.Inputs {
			out.Inputs = append(out.Inputs, nz.normalizeSubplans(in))
		}
		for _, p := range v.Proj {
			out.Proj = append(out.Proj, plan.NamedExpr{Name: p.Name, E: rewriteExpr(p.E)})
		}
		return out
	case *plan.Agg:
		out := &plan.Agg{Input: nz.normalizeSubplans(v.Input)}
		for _, g := range v.GroupBy {
			out.GroupBy = append(out.GroupBy, plan.NamedExpr{Name: g.Name, E: rewriteExpr(g.E)})
		}
		for _, a := range v.Aggs {
			na := plan.AggExpr{Op: a.Op, Distinct: a.Distinct, Name: a.Name}
			if a.Arg != nil {
				na.Arg = rewriteExpr(a.Arg)
			}
			out.Aggs = append(out.Aggs, na)
		}
		return out
	case *plan.Union:
		out := &plan.Union{}
		for _, in := range v.Inputs {
			out.Inputs = append(out.Inputs, nz.normalizeSubplans(in))
		}
		return out
	}
	return n
}

// rewrite applies one bottom-up pass.
func (nz *Normalizer) rewrite(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.Table, *plan.Empty:
		return n

	case *plan.Union:
		return nz.rewriteUnion(v)

	case *plan.Agg:
		return nz.rewriteAgg(v)

	case *plan.SPJ:
		return nz.rewriteSPJ(v)
	}
	return n
}

func (nz *Normalizer) rewriteUnion(u *plan.Union) plan.Node {
	inputs := make([]plan.Node, 0, len(u.Inputs))
	for _, in := range u.Inputs {
		in = nz.rewrite(in)
		if nz.opts.NoUnionRules {
			inputs = append(inputs, in)
			continue
		}
		switch c := in.(type) {
		case *plan.Union:
			inputs = append(inputs, c.Inputs...) // flatten
		case *plan.Empty:
			// drop empty branches
		default:
			inputs = append(inputs, in)
		}
	}
	if nz.opts.NoUnionRules {
		return &plan.Union{Inputs: inputs}
	}
	switch len(inputs) {
	case 0:
		return &plan.Empty{Names: u.ColumnNames()}
	case 1:
		return inputs[0]
	}
	return &plan.Union{Inputs: inputs}
}

func (nz *Normalizer) rewriteSPJ(s *plan.SPJ) plan.Node {
	inputs := make([]plan.Node, len(s.Inputs))
	for i, in := range s.Inputs {
		inputs[i] = nz.rewrite(in)
	}
	s = &plan.SPJ{Inputs: inputs, Pred: s.Pred, Proj: s.Proj}

	// Empty input annihilates the product.
	for _, in := range s.Inputs {
		if _, ok := in.(*plan.Empty); ok {
			return &plan.Empty{Names: s.ColumnNames()}
		}
	}

	// Merge SPJ children into this SPJ.
	if !nz.opts.NoSPJMerge {
		for {
			merged := false
			for i, in := range s.Inputs {
				if child, ok := in.(*plan.SPJ); ok {
					s = mergeSPJ(s, i, child)
					merged = true
					break
				}
			}
			if !merged {
				break
			}
		}
	}

	// Distribute over a Union input: SPJ([..U(a,b)..]) = U(SPJ([..a..]), SPJ([..b..])).
	if !nz.opts.NoUnionRules {
		for i, in := range s.Inputs {
			if u, ok := in.(*plan.Union); ok {
				branches := make([]plan.Node, len(u.Inputs))
				for k, alt := range u.Inputs {
					cp := &plan.SPJ{Pred: s.Pred, Proj: s.Proj}
					cp.Inputs = append(append(append([]plan.Node{}, s.Inputs[:i]...), alt), s.Inputs[i+1:]...)
					branches[k] = cp
				}
				return nz.rewrite(&plan.Union{Inputs: branches})
			}
		}
	}

	// Unsatisfiable predicate: empty table rule.
	if !nz.opts.NoEmptyTable && s.Pred != nil && !nz.predSatisfiable(s) {
		return &plan.Empty{Names: s.ColumnNames()}
	}

	// Push predicates into aggregate and union inputs.
	if !nz.opts.NoPushdown {
		if out, changed := nz.pushdown(s); changed {
			return nz.rewrite(out)
		}
	}

	// Integrity constraints: self-join on a primary key collapses to one
	// scan; a foreign-key join whose parent does not escape is eliminated;
	// a unique-key join whose table does not escape becomes a semi-join.
	if !nz.opts.NoIntegrity {
		if out, changed := selfJoinPK(s); changed {
			return nz.rewrite(out)
		}
		if out, changed := joinElimFK(s); changed {
			return nz.rewrite(out)
		}
		if out, changed := joinToSemijoin(s); changed {
			return nz.rewrite(out)
		}
	}

	// Identity SPJ unwrapping keeps trees small and types aligned.
	if len(s.Inputs) == 1 && s.Pred == nil && len(s.Proj) == s.Inputs[0].Arity() {
		identity := true
		for i, p := range s.Proj {
			c, ok := p.E.(*plan.ColRef)
			if !ok || c.Index != i {
				identity = false
				break
			}
		}
		if identity {
			return s.Inputs[0]
		}
	}
	return s
}

// predSatisfiable checks IsTrue(pred) for satisfiability over a symbolic
// input row constrained only by the schema's NOT NULL facts; Unsat proves
// the SPJ returns no rows on any database (so `pk IS NULL` filters reduce
// to Empty too).
func (nz *Normalizer) predSatisfiable(s *plan.SPJ) bool {
	// Build the cache key first: the fresh symbolic tuple is only needed on
	// a miss, and this path is hot enough that allocating it up front
	// dominated cache-hit lookups.
	var nnTag []byte
	for _, input := range s.Inputs {
		for i := 0; i < input.Arity(); i++ {
			if notNullColumn(input, i) {
				nnTag = append(nnTag, '1')
			} else {
				nnTag = append(nnTag, '0')
			}
		}
	}
	key := "spj:" + string(nnTag) + ":" + s.Pred.String()
	if v, ok := nz.satCache[key]; ok {
		return v
	}
	if nz.shared != nil {
		if v, ok := nz.shared.Lookup(key); ok {
			nz.satCache[key] = v
			return v
		}
	}
	if nz.enc == nil {
		// The interner is the normalizer's own, not an engine's: the terms
		// built here never reach a verifier, and keeping them out of the
		// engine's DAG leaves its size, rotation points and obligation-cache
		// keys independent of normalization.
		tin := fol.NewInterner()
		nz.enc = symbolic.NewEncoder(symbolic.NewGen(tin))
		nz.solver = smt.New()
		nz.solver.Interner = tin
	}
	// nnTag holds one byte per input column in flat tuple order, so index i
	// addresses in[i] directly.
	in := nz.enc.Gen.FreshTuple("nz", s.InputArity())
	for i := range nnTag {
		if nnTag[i] == '1' {
			in[i].Null = fol.False()
		}
	}
	p, err := nz.enc.Pred(s.Pred, in)
	assigns := nz.enc.TakeAssigns()
	sat := true
	if err == nil {
		res := nz.solver.CheckSat(fol.And(p.IsTrue(), assigns))
		sat = res != smt.Unsat
	}
	nz.satCache[key] = sat
	if nz.shared != nil {
		nz.shared.Store(key, sat)
	}
	return sat
}

func (nz *Normalizer) rewriteAgg(a *plan.Agg) plan.Node {
	in := nz.rewrite(a.Input)
	a = &plan.Agg{Input: in, GroupBy: a.GroupBy, Aggs: a.Aggs}

	if _, ok := in.(*plan.Empty); ok && len(a.GroupBy) > 0 {
		// Grouped aggregation over no rows yields no rows. (A global
		// aggregate still yields one row, so it stays.)
		return &plan.Empty{Names: a.ColumnNames()}
	}

	if !nz.opts.NoAggMerge {
		if out, changed := countNotNull(a); changed {
			a = out
		}
		if out, changed := mergeAggregates(a); changed {
			return nz.rewrite(out)
		}
	}
	if !nz.opts.NoIntegrity {
		if out, changed := groupByPK(a); changed {
			return nz.rewrite(out)
		}
	}
	return a
}
