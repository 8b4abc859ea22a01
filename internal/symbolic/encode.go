package symbolic

import (
	"fmt"
	"math/big"

	"spes/internal/fol"
	"spes/internal/plan"
)

// Encoder translates plan expressions into symbolic columns and three-valued
// predicates (the ConstExpr and ConstPred procedures of §5.5). Auxiliary
// definitional constraints (CASE lowering) accumulate in assigns; callers
// collect them with TakeAssigns.
type Encoder struct {
	Gen     *Gen
	assigns []*fol.Term
}

// NewEncoder returns an encoder sharing the given generator.
func NewEncoder(g *Gen) *Encoder { return &Encoder{Gen: g} }

// TakeAssigns returns the conjunction of constraints accumulated since the
// last call and resets the buffer.
func (e *Encoder) TakeAssigns() *fol.Term {
	out := fol.And(e.assigns...)
	e.assigns = nil
	return out
}

func (e *Encoder) addAssign(t *fol.Term) { e.assigns = append(e.assigns, t) }

// app, intc, and numc build leaves through the generator's interner.
// Composite terms are built in their arguments' interner, but leaves — and
// applications, which may have no argument — have none to take, so the
// encoder mints them here.
func (e *Encoder) app(name string, s fol.Sort, args ...*fol.Term) *fol.Term {
	return e.Gen.in.App(name, s, args...)
}

func (e *Encoder) intc(v int64) *fol.Term { return e.Gen.in.Int(v) }

func (e *Encoder) numc(r *big.Rat) *fol.Term { return e.Gen.in.Num(r) }

// Expr encodes a scalar expression over the symbolic input tuple
// (ConstExpr). Boolean-valued expressions in value position encode as 0/1.
func (e *Encoder) Expr(x plan.Expr, in Tuple) (Col, error) {
	switch v := x.(type) {
	case *plan.ColRef:
		if v.Index >= len(in) {
			return Col{}, fmt.Errorf("symbolic: column $%d out of range (width %d)", v.Index, len(in))
		}
		return in[v.Index], nil

	case *plan.OuterRef:
		return Col{}, fmt.Errorf("symbolic: free correlated reference (depth %d)", v.Depth)

	case *plan.Const:
		return e.constant(v.Val), nil

	case *plan.Bin:
		if v.Op.IsComparison() || v.Op.IsLogic() {
			p, err := e.Pred(x, in)
			if err != nil {
				return Col{}, err
			}
			return Col{Val: fol.Ite(p.Val, e.intc(1), e.intc(0)), Null: p.Null}, nil
		}
		l, err := e.Expr(v.L, in)
		if err != nil {
			return Col{}, err
		}
		r, err := e.Expr(v.R, in)
		if err != nil {
			return Col{}, err
		}
		null := fol.Or(l.Null, r.Null)
		switch v.Op {
		case plan.OpAdd:
			return Col{Val: fol.Add(l.Val, r.Val), Null: null}, nil
		case plan.OpSub:
			return Col{Val: fol.Sub(l.Val, r.Val), Null: null}, nil
		case plan.OpMul:
			return Col{Val: fol.Mul(l.Val, r.Val), Null: null}, nil
		case plan.OpDiv:
			return Col{Val: fol.Div(l.Val, r.Val), Null: null}, nil
		case plan.OpMod:
			return Col{Val: e.app("sql$mod", fol.SortNum, l.Val, r.Val), Null: null}, nil
		}
		return Col{}, fmt.Errorf("symbolic: unknown arithmetic operator %v", v.Op)

	case *plan.Neg:
		c, err := e.Expr(v.E, in)
		if err != nil {
			return Col{}, err
		}
		return Col{Val: fol.Neg(c.Val), Null: c.Null}, nil

	case *plan.Not, *plan.IsNull, *plan.Exists:
		p, err := e.Pred(x, in)
		if err != nil {
			return Col{}, err
		}
		return Col{Val: fol.Ite(p.Val, e.intc(1), e.intc(0)), Null: p.Null}, nil

	case *plan.Case:
		return e.caseExpr(v, in)

	case *plan.Func:
		args, nulls, err := e.encodeArgs(v.Args, in)
		if err != nil {
			return Col{}, err
		}
		all := append(append([]*fol.Term{}, args...), nulls...)
		return Col{
			Val:  e.app("fn$"+v.Name, fol.SortNum, all...),
			Null: e.app("fn$"+v.Name+"$null", fol.SortBool, all...),
		}, nil

	case *plan.ScalarSub:
		name, argCols, err := e.subqueryArgs(v.Sub, in)
		if err != nil {
			return Col{}, err
		}
		return Col{
			Val:  e.app("scalar$"+name, fol.SortNum, argCols...),
			Null: e.app("scalar$"+name+"$null", fol.SortBool, argCols...),
		}, nil
	}
	return Col{}, fmt.Errorf("symbolic: cannot encode expression %T", x)
}

func (e *Encoder) constant(d plan.Datum) Col {
	if d.Null {
		return Col{Val: e.intc(0), Null: fol.True()}
	}
	switch d.Kind {
	case plan.KNum:
		return Col{Val: e.numc(d.Num), Null: fol.False()}
	case plan.KStr:
		return Col{Val: e.Gen.InternString(d.Str), Null: fol.False()}
	case plan.KBool:
		if d.Bool {
			return Col{Val: e.intc(1), Null: fol.False()}
		}
		return Col{Val: e.intc(0), Null: fol.False()}
	}
	return Col{Val: e.intc(0), Null: fol.True()}
}

// caseExpr lowers CASE through a fresh column constrained by ASSIGN clauses,
// the role the paper assigns to the ASSIGN field of the QPSR.
func (e *Encoder) caseExpr(v *plan.Case, in Tuple) (Col, error) {
	out := e.Gen.FreshCol("case")
	// noPrior accumulates "no earlier arm fired".
	noPrior := fol.True()
	bind := func(guard *fol.Term, c Col) {
		e.addAssign(fol.Implies(guard,
			fol.And(fol.Iff(out.Null, c.Null), fol.Implies(fol.Not(c.Null), fol.Eq(out.Val, c.Val)))))
	}
	for _, w := range v.Whens {
		p, err := e.Pred(w.Cond, in)
		if err != nil {
			return Col{}, err
		}
		t, err := e.Expr(w.Then, in)
		if err != nil {
			return Col{}, err
		}
		fires := fol.And(noPrior, p.IsTrue())
		bind(fires, t)
		noPrior = fol.And(noPrior, fol.Not(p.IsTrue()))
	}
	if v.Else != nil {
		c, err := e.Expr(v.Else, in)
		if err != nil {
			return Col{}, err
		}
		bind(noPrior, c)
	} else {
		e.addAssign(fol.Implies(noPrior, out.Null))
	}
	return out, nil
}

// Pred encodes a predicate into three-valued form (ConstPred).
func (e *Encoder) Pred(x plan.Expr, in Tuple) (Pred3, error) {
	switch v := x.(type) {
	case *plan.Const:
		if v.Val.Null {
			return Pred3{Val: fol.False(), Null: fol.True()}, nil
		}
		if v.Val.Kind == plan.KBool {
			return Pred3{Val: fol.Bool(v.Val.Bool), Null: fol.False()}, nil
		}
		return Pred3{}, fmt.Errorf("symbolic: non-boolean constant %v as predicate", v.Val)

	case *plan.Bin:
		switch {
		case v.Op.IsLogic():
			l, err := e.Pred(v.L, in)
			if err != nil {
				return Pred3{}, err
			}
			r, err := e.Pred(v.R, in)
			if err != nil {
				return Pred3{}, err
			}
			return kleene(v.Op, l, r), nil
		case v.Op.IsComparison():
			l, err := e.Expr(v.L, in)
			if err != nil {
				return Pred3{}, err
			}
			r, err := e.Expr(v.R, in)
			if err != nil {
				return Pred3{}, err
			}
			var val *fol.Term
			switch v.Op {
			case plan.OpEq:
				val = fol.Eq(l.Val, r.Val)
			case plan.OpNe:
				val = fol.Not(fol.Eq(l.Val, r.Val))
			case plan.OpLt:
				val = fol.Lt(l.Val, r.Val)
			case plan.OpLe:
				val = fol.Le(l.Val, r.Val)
			case plan.OpGt:
				val = fol.Gt(l.Val, r.Val)
			case plan.OpGe:
				val = fol.Ge(l.Val, r.Val)
			}
			return Pred3{Val: val, Null: fol.Or(l.Null, r.Null)}, nil
		}
		return Pred3{}, fmt.Errorf("symbolic: arithmetic operator %v as predicate", v.Op)

	case *plan.Not:
		p, err := e.Pred(v.E, in)
		if err != nil {
			return Pred3{}, err
		}
		return Pred3{Val: fol.Not(p.Val), Null: p.Null}, nil

	case *plan.IsNull:
		c, err := e.Expr(v.E, in)
		if err != nil {
			return Pred3{}, err
		}
		return Pred3{Val: c.Null, Null: fol.False()}, nil

	case *plan.Func:
		args, nulls, err := e.encodeArgs(v.Args, in)
		if err != nil {
			return Pred3{}, err
		}
		all := append(append([]*fol.Term{}, args...), nulls...)
		return Pred3{
			Val:  e.app("pfn$"+v.Name, fol.SortBool, all...),
			Null: e.app("pfn$"+v.Name+"$null", fol.SortBool, all...),
		}, nil

	case *plan.Exists:
		name, argCols, err := e.subqueryArgs(v.Sub, in)
		if err != nil {
			return Pred3{}, err
		}
		val := e.app("exists$"+name, fol.SortBool, argCols...)
		if v.Negate {
			val = fol.Not(val)
		}
		return Pred3{Val: val, Null: fol.False()}, nil

	case *plan.ColRef, *plan.Case, *plan.ScalarSub:
		// Boolean-valued columns and expressions encode as 0/1 values.
		c, err := e.Expr(x, in)
		if err != nil {
			return Pred3{}, err
		}
		return Pred3{Val: fol.Eq(c.Val, e.intc(1)), Null: c.Null}, nil
	}
	return Pred3{}, fmt.Errorf("symbolic: cannot encode predicate %T", x)
}

// kleene composes three-valued AND/OR from component encodings.
func kleene(op plan.BinOp, l, r Pred3) Pred3 {
	var isT, isF *fol.Term
	if op == plan.OpAnd {
		isT = fol.And(l.IsTrue(), r.IsTrue())
		isF = fol.Or(l.IsFalse(), r.IsFalse())
	} else {
		isT = fol.Or(l.IsTrue(), r.IsTrue())
		isF = fol.And(l.IsFalse(), r.IsFalse())
	}
	return Pred3{Val: isT, Null: fol.And(fol.Not(isT), fol.Not(isF))}
}

func (e *Encoder) encodeArgs(args []plan.Expr, in Tuple) (vals, nulls []*fol.Term, err error) {
	for _, a := range args {
		c, err := e.Expr(a, in)
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, c.Val)
		nulls = append(nulls, c.Null)
	}
	return vals, nulls, nil
}

// subqueryArgs canonicalizes a subquery plan used as an uninterpreted
// function: correlated references (depth 1) are renumbered by first
// occurrence so that structurally identical subplans over differently laid
// out outer rows still share a symbol; the matching symbolic columns become
// the application's arguments.
func (e *Encoder) subqueryArgs(sub plan.Node, in Tuple) (string, []*fol.Term, error) {
	// Canonicalize expressions first so commutative variants of the same
	// subquery share a symbol, then renumber correlated references by
	// first occurrence in the canonical plan. EXISTS depends only on the
	// subquery's cardinality, so cardinality-irrelevant projections are
	// erased before hashing (a semi-join produced by rewriting a unique-key
	// join then matches the desugared IN form).
	sub = StripExistsProjections(plan.CanonNode(sub))
	refs := CollectOuterRefs(sub, 1)
	canon := RenumberOuterRefs(sub, 1, refs)
	name := fmt.Sprintf("%x", plan.Fingerprint(canon))
	var args []*fol.Term
	for _, idx := range refs {
		if idx >= len(in) {
			return "", nil, fmt.Errorf("symbolic: correlated reference $%d out of range", idx)
		}
		args = append(args, in[idx].Val, in[idx].Null)
	}
	if deep := CollectOuterRefs(sub, 2); len(deep) > 0 {
		return "", nil, fmt.Errorf("symbolic: subquery correlates more than one level up")
	}
	return name, args, nil
}

// StripExistsProjections replaces cardinality-irrelevant projections in a
// subquery used under EXISTS with a constant: the projection of a top-level
// SPJ (or of each branch of a top-level union) changes per-row values, never
// row counts. Aggregates are left untouched (their grouping columns shape
// cardinality).
func StripExistsProjections(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.SPJ:
		return &plan.SPJ{
			Inputs: v.Inputs,
			Pred:   v.Pred,
			Proj:   []plan.NamedExpr{{Name: "1", E: &plan.Const{Val: plan.IntDatum(1)}}},
		}
	case *plan.Union:
		out := &plan.Union{}
		for _, in := range v.Inputs {
			out.Inputs = append(out.Inputs, StripExistsProjections(in))
		}
		return out
	}
	return n
}

// CollectOuterRefs returns the distinct column indices of outer references
// at the given depth (relative to the subquery plan's own level), in first-
// occurrence order during a deterministic traversal.
func CollectOuterRefs(n plan.Node, depth int) []int {
	var out []int
	seen := map[int]bool{}
	var visitExpr func(x plan.Expr, d int)
	var visitNode func(n plan.Node, d int)
	visitExpr = func(x plan.Expr, d int) {
		plan.WalkExpr(x, func(y plan.Expr) bool {
			switch v := y.(type) {
			case *plan.OuterRef:
				if v.Depth == d && !seen[v.Index] {
					seen[v.Index] = true
					out = append(out, v.Index)
				}
			case *plan.Exists:
				visitNode(v.Sub, d+1)
			case *plan.ScalarSub:
				visitNode(v.Sub, d+1)
			}
			return true
		})
	}
	visitNode = func(n plan.Node, d int) {
		switch v := n.(type) {
		case *plan.SPJ:
			visitExpr(v.Pred, d)
			for _, p := range v.Proj {
				visitExpr(p.E, d)
			}
		case *plan.Agg:
			for _, g := range v.GroupBy {
				visitExpr(g.E, d)
			}
			for _, a := range v.Aggs {
				if a.Arg != nil {
					visitExpr(a.Arg, d)
				}
			}
		}
		for _, c := range plan.Children(n) {
			visitNode(c, d)
		}
	}
	visitNode(n, depth)
	return out
}

// RenumberOuterRefs rewrites outer references at the given depth to their
// position in order (a canonical numbering).
func RenumberOuterRefs(n plan.Node, depth int, order []int) plan.Node {
	pos := make(map[int]int, len(order))
	for i, idx := range order {
		pos[idx] = i
	}
	return rewriteNodeExprs(n, func(x plan.Expr, d int) plan.Expr {
		if v, ok := x.(*plan.OuterRef); ok && v.Depth == d+depth {
			if p, ok := pos[v.Index]; ok {
				return &plan.OuterRef{Depth: v.Depth, Index: p}
			}
		}
		return nil
	})
}

// rewriteNodeExprs rebuilds a plan tree, applying fn to every expression
// node; fn receives the expression-subplan nesting depth relative to the
// root (0 for expressions directly under the root's nodes).
func rewriteNodeExprs(n plan.Node, fn func(x plan.Expr, depth int) plan.Expr) plan.Node {
	var rewriteExpr func(x plan.Expr, d int) plan.Expr
	var rewriteNode func(n plan.Node, d int) plan.Node
	rewriteExpr = func(x plan.Expr, d int) plan.Expr {
		if x == nil {
			return nil
		}
		return plan.RewriteExpr(x, func(y plan.Expr) plan.Expr {
			switch v := y.(type) {
			case *plan.Exists:
				return &plan.Exists{Sub: rewriteNode(v.Sub, d+1), Negate: v.Negate}
			case *plan.ScalarSub:
				return &plan.ScalarSub{Sub: rewriteNode(v.Sub, d+1)}
			}
			return fn(y, d)
		})
	}
	rewriteNode = func(n plan.Node, d int) plan.Node {
		switch v := n.(type) {
		case *plan.Table, *plan.Empty:
			return n
		case *plan.SPJ:
			out := &plan.SPJ{Pred: rewriteExpr(v.Pred, d)}
			for _, in := range v.Inputs {
				out.Inputs = append(out.Inputs, rewriteNode(in, d))
			}
			for _, p := range v.Proj {
				out.Proj = append(out.Proj, plan.NamedExpr{Name: p.Name, E: rewriteExpr(p.E, d)})
			}
			return out
		case *plan.Agg:
			out := &plan.Agg{Input: rewriteNode(v.Input, d)}
			for _, g := range v.GroupBy {
				out.GroupBy = append(out.GroupBy, plan.NamedExpr{Name: g.Name, E: rewriteExpr(g.E, d)})
			}
			for _, a := range v.Aggs {
				na := plan.AggExpr{Op: a.Op, Distinct: a.Distinct, Name: a.Name}
				if a.Arg != nil {
					na.Arg = rewriteExpr(a.Arg, d)
				}
				out.Aggs = append(out.Aggs, na)
			}
			return out
		case *plan.Union:
			out := &plan.Union{}
			for _, in := range v.Inputs {
				out.Inputs = append(out.Inputs, rewriteNode(in, d))
			}
			return out
		}
		return n
	}
	return rewriteNode(n, 0)
}
