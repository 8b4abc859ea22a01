package plan

import (
	"fmt"
	"strings"
)

// The fmt-based renderer the canonical encoder replaced, kept here
// verbatim as the reference the encoder must reproduce byte for byte on
// every corpus (canonical_identity_test.go). The only edits: the methods
// became a type switch, sub-expressions recurse through refExpr instead of
// the encoder-backed String methods, and the operator tables are private
// copies. It does not escape quotes or names; nothing in the corpora needs
// escaping, so on them the two renderers agree.

var refBinOpStrings = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or",
}

var refAggOpNames = map[AggOp]string{
	AggCountStar: "COUNT(*)", AggCount: "COUNT", AggSum: "SUM",
	AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
}

// refExpr renders through the reference when fmt asks for its String.
type refExpr struct{ e Expr }

func (r refExpr) String() string { return refString(r.e) }

func refDatum(d Datum) string {
	if d.Null {
		return "NULL"
	}
	switch d.Kind {
	case KNum:
		return d.Num.RatString()
	case KStr:
		return fmt.Sprintf("'%s'", d.Str)
	case KBool:
		if d.Bool {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

func refString(x Expr) string {
	switch v := x.(type) {
	case *ColRef:
		return fmt.Sprintf("$%d", v.Index)
	case *OuterRef:
		return fmt.Sprintf("$out%d.%d", v.Depth, v.Index)
	case *Const:
		return refDatum(v.Val)
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", refBinOpStrings[v.Op], refExpr{v.L}, refExpr{v.R})
	case *Not:
		return fmt.Sprintf("(not %s)", refExpr{v.E})
	case *Neg:
		return fmt.Sprintf("(neg %s)", refExpr{v.E})
	case *IsNull:
		return fmt.Sprintf("(isnull %s)", refExpr{v.E})
	case *Case:
		var b strings.Builder
		b.WriteString("(case")
		for _, w := range v.Whens {
			fmt.Fprintf(&b, " [%s %s]", refExpr{w.Cond}, refExpr{w.Then})
		}
		if v.Else != nil {
			fmt.Fprintf(&b, " else %s", refExpr{v.Else})
		}
		b.WriteString(")")
		return b.String()
	case *Func:
		var b strings.Builder
		fmt.Fprintf(&b, "(fn:%s", v.Name)
		for _, a := range v.Args {
			b.WriteByte(' ')
			b.WriteString(refString(a))
		}
		b.WriteString(")")
		return b.String()
	case *Exists:
		neg := ""
		if v.Negate {
			neg = "not-"
		}
		return fmt.Sprintf("(%sexists %s)", neg, refFormat(v.Sub))
	case *ScalarSub:
		return fmt.Sprintf("(scalar %s)", refFormat(v.Sub))
	}
	panic(fmt.Sprintf("reference renderer: unexpected expression %T", x))
}

func refAggKey(a AggExpr) string {
	arg := ""
	if a.Arg != nil {
		arg = refString(a.Arg)
	}
	d := ""
	if a.Distinct {
		d = " distinct"
	}
	return fmt.Sprintf("(%s%s %s)", refAggOpNames[a.Op], d, arg)
}

func refFormat(n Node) string {
	var b strings.Builder
	refFormatTo(n, &b)
	return b.String()
}

func refFormatTo(n Node, b *strings.Builder) {
	switch v := n.(type) {
	case *Table:
		fmt.Fprintf(b, "table(%s)", v.Meta.Name)
	case *Empty:
		fmt.Fprintf(b, "empty(%d)", len(v.Names))
	case *SPJ:
		b.WriteString("spj(in:[")
		for i, c := range v.Inputs {
			if i > 0 {
				b.WriteByte(' ')
			}
			refFormatTo(c, b)
		}
		b.WriteString("] pred:")
		if v.Pred != nil {
			b.WriteString(refString(v.Pred))
		} else {
			b.WriteString("true")
		}
		b.WriteString(" proj:[")
		for i, p := range v.Proj {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(refString(p.E))
		}
		b.WriteString("])")
	case *Agg:
		b.WriteString("agg(in:")
		refFormatTo(v.Input, b)
		b.WriteString(" by:[")
		for i, g := range v.GroupBy {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(refString(g.E))
		}
		b.WriteString("] fns:[")
		for i, a := range v.Aggs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(refAggKey(a))
		}
		b.WriteString("])")
	case *Union:
		b.WriteString("union(")
		for i, c := range v.Inputs {
			if i > 0 {
				b.WriteByte(' ')
			}
			refFormatTo(c, b)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "?%T", n)
	}
}

// RefFormat and RefString expose the reference renderer to the external
// test package, which can import the normalizer.
var (
	RefFormat = refFormat
	RefString = refString
)
