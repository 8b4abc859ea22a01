package plan

import (
	"math/big"
	"strconv"
	"strings"
)

// The canonical encoding is the one serialization behind every plan key:
// Format, Key, PairKey and Expr.String append it into a byte buffer, and
// Fingerprint and PairFingerprint fold the same bytes into FNV-1a as they
// are produced. Its grammar (lists are space-separated; column names are
// not encoded, and neither is Func.Bool, which every constructor derives
// from the function name):
//
//	node  = "table(" name ")" | "empty(" int ")"
//	      | "spj(in:[" nodes "] pred:" (expr | "true") " proj:[" exprs "])"
//	      | "agg(in:" node " by:[" exprs "] fns:[" aggs "])"
//	      | "union(" nodes ")"
//	agg   = "(" aggop [" distinct"] " " [expr] ")"
//	expr  = "$" int | "$out" int "." int | const
//	      | "(" binop " " expr " " expr ")"
//	      | "(not " expr ")" | "(neg " expr ")" | "(isnull " expr ")"
//	      | "(case" {" [" expr " " expr "]"} [" else " expr] ")"
//	      | "(fn:" name {" " expr} ")"
//	      | "(exists " node ")" | "(not-exists " node ")" | "(scalar " node ")"
//	const = "NULL" | "TRUE" | "FALSE" | int ["/" int] | "'" chars "'"
//	name  = [A-Za-z_][A-Za-z0-9_$]* | `"` chars `"`
//
// Escaping: a string constant doubles every ' inside it, and a function or
// table name without the SQL lexer's unquoted-identifier shape is written
// in double quotes with every " doubled. That makes the encoding
// injective: every alternative starts with its own literal prefix, and
// every variable-length item ends either at a byte it cannot contain (an
// unquoted name or a number stops at the space, ')' or ']' after it) or
// at a closing quote that its escaped contents cannot imitate, so the tree
// can be read back from the bytes. Two plans share a key only if they are
// the same plan up to column names.

// AppendExpr appends the canonical encoding of e to dst.
func AppendExpr(dst []byte, e Expr) []byte {
	var enc encoder
	return enc.tree(dst, e)
}

// AppendNode appends the canonical encoding of n to dst.
func AppendNode(dst []byte, n Node) []byte {
	var enc encoder
	return enc.tree(dst, n)
}

// keyBufSize is the stack buffer plan keys are encoded into before being
// copied out as a string: it holds every plan of the shipped corpora (the
// longest production plan encodes to under 3 KiB), so the string is the
// only allocation. Longer plans spill to the heap and stay correct.
const keyBufSize = 4096

// exprString renders an expression's canonical encoding as a string.
func exprString(e Expr) string {
	var buf [256]byte
	return string(AppendExpr(buf[:0], e))
}

// FNV-1a, 64-bit: the fingerprint hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// encoder writes the canonical encoding. Every method appends to the
// buffer it is passed and returns it, so a caller's stack buffer stays on
// the stack; a hashing encoder instead folds each write straight into the
// FNV-1a state sum and leaves the buffer alone, so a fingerprint needs no
// buffer at all.
type encoder struct {
	hashing bool
	sum     uint64
}

func (e *encoder) str(b []byte, s string) []byte {
	if e.hashing {
		h := e.sum
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
		e.sum = h
		return b
	}
	return append(b, s...)
}

func (e *encoder) byte(b []byte, c byte) []byte {
	if e.hashing {
		e.sum = (e.sum ^ uint64(c)) * fnvPrime64
		return b
	}
	return append(b, c)
}

func (e *encoder) int(b []byte, v int64) []byte {
	if !e.hashing {
		return strconv.AppendInt(b, v, 10)
	}
	var digits [20]byte
	for _, c := range strconv.AppendInt(digits[:0], v, 10) {
		b = e.byte(b, c)
	}
	return b
}

// rat writes r as big.Rat.RatString does, without allocating when the
// numerator and denominator fit in an int64.
func (e *encoder) rat(b []byte, r *big.Rat) []byte {
	if num := r.Num(); num.IsInt64() {
		if r.IsInt() {
			return e.int(b, num.Int64())
		}
		if den := r.Denom(); den.IsInt64() {
			b = e.byte(e.int(b, num.Int64()), '/')
			return e.int(b, den.Int64())
		}
	}
	return e.str(b, r.RatString())
}

// quoted writes s between q quotes, doubling every q inside it.
func (e *encoder) quoted(b []byte, s string, q byte) []byte {
	b = e.byte(b, q)
	for {
		i := strings.IndexByte(s, q)
		if i < 0 {
			break
		}
		b = e.byte(e.str(b, s[:i+1]), q)
		s = s[i+1:]
	}
	return e.byte(e.str(b, s), q)
}

// name writes a function or table name: verbatim when it has the SQL
// lexer's unquoted-identifier shape, double-quoted otherwise.
func (e *encoder) name(b []byte, s string) []byte {
	if plainName(s) {
		return e.str(b, s)
	}
	return e.quoted(b, s, '"')
}

// plainName reports whether s matches [A-Za-z_][A-Za-z0-9_$]*.
func plainName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case i > 0 && (c == '$' || '0' <= c && c <= '9'):
		default:
			return false
		}
	}
	return true
}

func (e *encoder) datum(b []byte, d Datum) []byte {
	switch {
	case d.Null:
		return e.str(b, "NULL")
	case d.Kind == KNum:
		return e.rat(b, d.Num)
	case d.Kind == KStr:
		return e.quoted(b, d.Str, '\'')
	case d.Kind == KBool && d.Bool:
		return e.str(b, "TRUE")
	case d.Kind == KBool:
		return e.str(b, "FALSE")
	}
	return e.byte(b, '?')
}

// aggHead writes an aggregate's encoding up to its argument.
func (e *encoder) aggHead(b []byte, a AggExpr) []byte {
	b = e.str(e.byte(b, '('), a.Op.String())
	if a.Distinct {
		b = e.str(b, " distinct")
	}
	return e.byte(b, ' ')
}

// tree writes t, a Node or an Expr. Plans and expressions nest in each
// other (an SPJ holds predicates, EXISTS holds a plan), and the whole walk
// is this one self-recursive method because escape analysis gives up on
// mutual recursion: split in two, the buffer would escape and every
// caller's stack buffer would move to the heap.
func (e *encoder) tree(b []byte, t any) []byte {
	switch v := t.(type) {
	case *Table:
		return e.byte(e.name(e.str(b, "table("), v.Meta.Name), ')')
	case *Empty:
		return e.byte(e.int(e.str(b, "empty("), int64(len(v.Names))), ')')
	case *SPJ:
		b = e.str(b, "spj(in:[")
		for i, in := range v.Inputs {
			if i > 0 {
				b = e.byte(b, ' ')
			}
			b = e.tree(b, in)
		}
		b = e.str(b, "] pred:")
		if v.Pred != nil {
			b = e.tree(b, v.Pred)
		} else {
			b = e.str(b, "true")
		}
		b = e.str(b, " proj:[")
		for i, p := range v.Proj {
			if i > 0 {
				b = e.byte(b, ' ')
			}
			b = e.tree(b, p.E)
		}
		return e.str(b, "])")
	case *Agg:
		b = e.str(e.tree(e.str(b, "agg(in:"), v.Input), " by:[")
		for i, g := range v.GroupBy {
			if i > 0 {
				b = e.byte(b, ' ')
			}
			b = e.tree(b, g.E)
		}
		b = e.str(b, "] fns:[")
		for i, a := range v.Aggs {
			if i > 0 {
				b = e.byte(b, ' ')
			}
			b = e.aggHead(b, a)
			if a.Arg != nil {
				b = e.tree(b, a.Arg)
			}
			b = e.byte(b, ')')
		}
		return e.str(b, "])")
	case *Union:
		b = e.str(b, "union(")
		for i, in := range v.Inputs {
			if i > 0 {
				b = e.byte(b, ' ')
			}
			b = e.tree(b, in)
		}
		return e.byte(b, ')')
	case *ColRef:
		return e.int(e.byte(b, '$'), int64(v.Index))
	case *OuterRef:
		b = e.byte(e.int(e.str(b, "$out"), int64(v.Depth)), '.')
		return e.int(b, int64(v.Index))
	case *Const:
		return e.datum(b, v.Val)
	case *Bin:
		b = e.byte(e.str(e.byte(b, '('), v.Op.String()), ' ')
		b = e.byte(e.tree(b, v.L), ' ')
		return e.byte(e.tree(b, v.R), ')')
	case *Not:
		return e.byte(e.tree(e.str(b, "(not "), v.E), ')')
	case *Neg:
		return e.byte(e.tree(e.str(b, "(neg "), v.E), ')')
	case *IsNull:
		return e.byte(e.tree(e.str(b, "(isnull "), v.E), ')')
	case *Case:
		b = e.str(b, "(case")
		for _, w := range v.Whens {
			b = e.byte(e.tree(e.str(b, " ["), w.Cond), ' ')
			b = e.byte(e.tree(b, w.Then), ']')
		}
		if v.Else != nil {
			b = e.tree(e.str(b, " else "), v.Else)
		}
		return e.byte(b, ')')
	case *Func:
		b = e.name(e.str(b, "(fn:"), v.Name)
		for _, a := range v.Args {
			b = e.tree(e.byte(b, ' '), a)
		}
		return e.byte(b, ')')
	case *Exists:
		if v.Negate {
			b = e.str(b, "(not-exists ")
		} else {
			b = e.str(b, "(exists ")
		}
		return e.byte(e.tree(b, v.Sub), ')')
	case *ScalarSub:
		return e.byte(e.tree(e.str(b, "(scalar "), v.Sub), ')')
	}
	return e.str(b, "<nil>")
}
