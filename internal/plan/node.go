package plan

import (
	"fmt"
	"strings"

	"spes/internal/schema"
)

// Node is a query in SPES's four-category representation (§4.1):
// TABLE(n) | SPJ(inputs, pred, proj) | AGG(input, groupby, aggs) |
// UNION(inputs), plus the Empty node the empty-table normalization rule
// introduces (§4.2).
type Node interface {
	isNode()
	// Arity is the number of output columns.
	Arity() int
	// ColumnNames returns output column names (for scope resolution and
	// display; not semantically significant).
	ColumnNames() []string
}

// Table returns all tuples of a base table.
type Table struct {
	Meta *schema.Table
}

func (*Table) isNode()      {}
func (t *Table) Arity() int { return len(t.Meta.Columns) }
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Meta.Columns))
	for i, c := range t.Meta.Columns {
		out[i] = c.Name
	}
	return out
}

// NamedExpr is a projection item with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
}

// SPJ selects the tuples of the cartesian product of Inputs that satisfy
// Pred (nil means TRUE), then emits Proj applied to each selected tuple.
// Column references in Pred and Proj index the concatenation of the inputs'
// columns.
type SPJ struct {
	Inputs []Node
	Pred   Expr
	Proj   []NamedExpr
}

func (*SPJ) isNode()      {}
func (s *SPJ) Arity() int { return len(s.Proj) }
func (s *SPJ) ColumnNames() []string {
	out := make([]string, len(s.Proj))
	for i, p := range s.Proj {
		out[i] = p.Name
	}
	return out
}

// InputArity returns the width of the concatenated input row.
func (s *SPJ) InputArity() int {
	n := 0
	for _, in := range s.Inputs {
		n += in.Arity()
	}
	return n
}

// AggOp enumerates aggregate functions.
type AggOp uint8

const (
	AggCountStar AggOp = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggOpNames = [...]string{
	AggCountStar: "COUNT(*)", AggCount: "COUNT", AggSum: "SUM",
	AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
}

func (o AggOp) String() string {
	if int(o) < len(aggOpNames) {
		return aggOpNames[o]
	}
	return ""
}

// AggExpr is one aggregate computation.
type AggExpr struct {
	Op       AggOp
	Arg      Expr // nil for COUNT(*)
	Distinct bool
	Name     string
}

func (a AggExpr) key() string {
	var enc encoder
	b := enc.aggHead(nil, a)
	if a.Arg != nil {
		b = AppendExpr(b, a.Arg)
	}
	return string(append(b, ')'))
}

// Agg groups the input's tuples by the GroupBy expressions and emits one
// tuple per group: the group-by values followed by the aggregate values.
// With an empty GroupBy, the whole input forms a single group (and one tuple
// is emitted even for empty input, per SQL).
type Agg struct {
	Input   Node
	GroupBy []NamedExpr
	Aggs    []AggExpr
}

func (*Agg) isNode()      {}
func (a *Agg) Arity() int { return len(a.GroupBy) + len(a.Aggs) }
func (a *Agg) ColumnNames() []string {
	out := make([]string, 0, a.Arity())
	for _, g := range a.GroupBy {
		out = append(out, g.Name)
	}
	for _, f := range a.Aggs {
		out = append(out, f.Name)
	}
	return out
}

// Union concatenates the tuples of its inputs (UNION ALL semantics; the
// deduplicating UNION lowers to Agg over Union).
type Union struct {
	Inputs []Node
}

func (*Union) isNode()      {}
func (u *Union) Arity() int { return u.Inputs[0].Arity() }
func (u *Union) ColumnNames() []string {
	return u.Inputs[0].ColumnNames()
}

// Empty produces no rows; it results from the empty-table normalization
// rule (§4.2, unsatisfiable predicates).
type Empty struct {
	Names []string
}

func (*Empty) isNode()                 {}
func (e *Empty) Arity() int            { return len(e.Names) }
func (e *Empty) ColumnNames() []string { return e.Names }

// Children returns a node's direct sub-queries.
func Children(n Node) []Node {
	switch v := n.(type) {
	case *SPJ:
		return v.Inputs
	case *Agg:
		return []Node{v.Input}
	case *Union:
		return v.Inputs
	}
	return nil
}

// Walk visits n and its sub-queries pre-order (not descending into subquery
// plans nested inside expressions).
func Walk(n Node, fn func(Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range Children(n) {
		Walk(c, fn)
	}
}

// CountNodes returns the number of nodes in the tree, including subquery
// plans nested inside expressions (the "sub-query count" complexity metric
// of Figure 7).
func CountNodes(n Node) int {
	count := 0
	var visitExpr func(e Expr)
	var visit func(n Node)
	visitExpr = func(e Expr) {
		WalkExpr(e, func(x Expr) bool {
			switch v := x.(type) {
			case *Exists:
				visit(v.Sub)
			case *ScalarSub:
				visit(v.Sub)
			}
			return true
		})
	}
	visit = func(n Node) {
		count++
		switch v := n.(type) {
		case *SPJ:
			visitExpr(v.Pred)
			for _, p := range v.Proj {
				visitExpr(p.E)
			}
		case *Agg:
			for _, g := range v.GroupBy {
				visitExpr(g.E)
			}
			for _, a := range v.Aggs {
				visitExpr(a.Arg)
			}
		}
		for _, c := range Children(n) {
			visit(c)
		}
	}
	visit(n)
	return count
}

// Format renders a plan's canonical encoding (see AppendNode) on one line;
// structural equality of plans, column names aside, coincides with string
// equality.
func Format(n Node) string {
	var buf [keyBufSize]byte
	return string(AppendNode(buf[:0], n))
}

// Indent renders a plan as an indented multi-line tree for human reading.
func Indent(n Node) string {
	var b strings.Builder
	indent(n, &b, 0)
	return b.String()
}

func indent(n Node, b *strings.Builder, depth int) {
	pad := strings.Repeat("  ", depth)
	switch v := n.(type) {
	case *Table:
		fmt.Fprintf(b, "%sTABLE %s\n", pad, v.Meta.Name)
	case *Empty:
		fmt.Fprintf(b, "%sEMPTY\n", pad)
	case *SPJ:
		pred := "TRUE"
		if v.Pred != nil {
			pred = v.Pred.String()
		}
		var proj []string
		for _, p := range v.Proj {
			proj = append(proj, p.E.String())
		}
		fmt.Fprintf(b, "%sSPJ pred=%s proj=[%s]\n", pad, pred, strings.Join(proj, ", "))
		for _, c := range v.Inputs {
			indent(c, b, depth+1)
		}
	case *Agg:
		var by, fns []string
		for _, g := range v.GroupBy {
			by = append(by, g.E.String())
		}
		for _, a := range v.Aggs {
			fns = append(fns, a.key())
		}
		fmt.Fprintf(b, "%sAGG by=[%s] fns=[%s]\n", pad, strings.Join(by, ", "), strings.Join(fns, ", "))
		indent(v.Input, b, depth+1)
	case *Union:
		fmt.Fprintf(b, "%sUNION\n", pad)
		for _, c := range v.Inputs {
			indent(c, b, depth+1)
		}
	}
}
