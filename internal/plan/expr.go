package plan

import "bytes"

// Expr is a scalar or predicate expression over the columns of a node's
// input row. Column references are positional (resolved by the builder).
type Expr interface {
	isExpr()
	// String renders the canonical encoding (see AppendExpr): two
	// expressions render alike iff they are structurally equal, column
	// names of nested plans aside.
	String() string
}

// ColRef references column Index of the current row.
type ColRef struct{ Index int }

func (*ColRef) isExpr()          {}
func (c *ColRef) String() string { return exprString(c) }

// OuterRef references column Index of a row Depth query levels up (for
// correlated subqueries); Depth >= 1.
type OuterRef struct{ Depth, Index int }

func (*OuterRef) isExpr()          {}
func (o *OuterRef) String() string { return exprString(o) }

// Const is a literal value.
type Const struct{ Val Datum }

func (*Const) isExpr()          {}
func (c *Const) String() string { return exprString(c) }

// BinOp enumerates plan-level binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpStrings = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or",
}

func (o BinOp) String() string {
	if int(o) < len(binOpStrings) {
		return binOpStrings[o]
	}
	return ""
}

// IsComparison reports whether o compares values (three-valued result).
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsLogic reports whether o is AND or OR.
func (o BinOp) IsLogic() bool { return o == OpAnd || o == OpOr }

// IsArith reports whether o is an arithmetic operator.
func (o BinOp) IsArith() bool { return o <= OpMod }

// Bin applies a binary operator with SQL three-valued semantics.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (*Bin) isExpr()          {}
func (b *Bin) String() string { return exprString(b) }

// Not is logical negation (three-valued).
type Not struct{ E Expr }

func (*Not) isExpr()          {}
func (n *Not) String() string { return exprString(n) }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

func (*Neg) isExpr()          {}
func (n *Neg) String() string { return exprString(n) }

// IsNull tests whether E evaluates to NULL (two-valued result).
type IsNull struct{ E Expr }

func (*IsNull) isExpr()          {}
func (n *IsNull) String() string { return exprString(n) }

// When is one CASE arm.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression; Else may be nil (NULL).
type Case struct {
	Whens []When
	Else  Expr
}

func (*Case) isExpr()          {}
func (c *Case) String() string { return exprString(c) }

// Func is an uninterpreted scalar function (user-defined functions, string
// operations like LIKE and ||). Bool marks predicate-valued functions.
type Func struct {
	Name string
	Bool bool
	Args []Expr
}

func (*Func) isExpr()          {}
func (f *Func) String() string { return exprString(f) }

// Exists is an EXISTS(subquery) predicate. Expressions inside Sub may use
// OuterRef to reach the enclosing row.
type Exists struct {
	Sub    Node
	Negate bool
}

func (*Exists) isExpr()          {}
func (e *Exists) String() string { return exprString(e) }

// ScalarSub is a scalar subquery: Sub must produce one column and at most
// one row; zero rows yield NULL.
type ScalarSub struct{ Sub Node }

func (*ScalarSub) isExpr()          {}
func (s *ScalarSub) String() string { return exprString(s) }

// ExprEqual reports structural equality of two expressions: whether their
// canonical encodings are equal. Both are encoded into stack buffers, so
// comparing expressions of ordinary size allocates nothing.
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ba, bb [256]byte
	return bytes.Equal(AppendExpr(ba[:0], a), AppendExpr(bb[:0], b))
}

// WalkExpr visits e and its sub-expressions pre-order; subquery plans are not
// descended into (use their nodes' own traversal).
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *Bin:
		WalkExpr(v.L, fn)
		WalkExpr(v.R, fn)
	case *Not:
		WalkExpr(v.E, fn)
	case *Neg:
		WalkExpr(v.E, fn)
	case *IsNull:
		WalkExpr(v.E, fn)
	case *Case:
		for _, w := range v.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(v.Else, fn)
	case *Func:
		for _, a := range v.Args {
			WalkExpr(a, fn)
		}
	}
}

// RewriteExpr rebuilds e bottom-up, replacing every sub-expression for which
// fn returns a non-nil replacement. Subquery plans inside Exists/ScalarSub
// are left untouched (callers rewrite those separately when needed).
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	switch v := e.(type) {
	case *Bin:
		return &Bin{Op: v.Op, L: RewriteExpr(v.L, fn), R: RewriteExpr(v.R, fn)}
	case *Not:
		return &Not{E: RewriteExpr(v.E, fn)}
	case *Neg:
		return &Neg{E: RewriteExpr(v.E, fn)}
	case *IsNull:
		return &IsNull{E: RewriteExpr(v.E, fn)}
	case *Case:
		out := &Case{Whens: make([]When, len(v.Whens))}
		for i, w := range v.Whens {
			out.Whens[i] = When{Cond: RewriteExpr(w.Cond, fn), Then: RewriteExpr(w.Then, fn)}
		}
		if v.Else != nil {
			out.Else = RewriteExpr(v.Else, fn)
		}
		return out
	case *Func:
		out := &Func{Name: v.Name, Bool: v.Bool, Args: make([]Expr, len(v.Args))}
		for i, a := range v.Args {
			out.Args[i] = RewriteExpr(a, fn)
		}
		return out
	}
	return e
}

// ShiftRefs rewrites column references for embedding an expression one query
// level deeper (ColRef -> OuterRef depth 1; OuterRef depth d -> d+1),
// descending into nested subquery plans (see ShiftOwnRefs).
func ShiftRefs(e Expr) Expr { return ShiftOwnRefs(e, 1) }

// OffsetRefs shifts every ColRef by delta (for concatenating input tuples).
func OffsetRefs(e Expr, delta int) Expr {
	if delta == 0 {
		return e
	}
	return RewriteExpr(e, func(x Expr) Expr {
		if v, ok := x.(*ColRef); ok {
			return &ColRef{Index: v.Index + delta}
		}
		return nil
	})
}
