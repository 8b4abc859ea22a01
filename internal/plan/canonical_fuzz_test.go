package plan

import (
	"math/big"
	"reflect"
	"testing"

	"spes/internal/schema"
)

// treeDecoder reads plan and expression trees from fuzz input. Every
// choice consumes one byte (zero once the input runs out) and nesting is
// capped, so any input decodes to a finite tree covering every node and
// expression kind.
type treeDecoder struct{ data []byte }

const (
	maxFuzzDepth = 4
	maxFuzzText  = 8
)

// fuzzDelims are the bytes the canonical encoding uses as delimiters;
// text draws them for every input byte of 0x80 and above, so strings and
// names are full of them.
const fuzzDelims = `'" ()$:[]`

func (d *treeDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *treeDecoder) pick(n int) int { return d.next() % n }

// text draws a string: a length byte, then one byte per character, ASCII
// as is and anything higher as one of fuzzDelims.
func (d *treeDecoder) text() string {
	b := make([]byte, d.pick(maxFuzzText))
	for i := range b {
		c := d.next()
		if c >= 0x80 {
			c = int(fuzzDelims[c%len(fuzzDelims)])
		}
		b[i] = byte(c)
	}
	return string(b)
}

// Decoder choices, named for the hand-written seeds.
const (
	modeNode = iota
	modeExpr
)

const (
	fzColRef = iota
	fzOuterRef
	fzConst
	fzBin
	fzNot
	fzNeg
	fzIsNull
	fzCase
	fzFunc
	fzExists
	fzScalarSub
	fzExprKinds
	fzLeafExprKinds = fzConst + 1
)

const (
	dNull = iota
	dInt
	dFrac
	dBig
	dStr
	dBool
	dKinds
)

const (
	fzTable = iota
	fzEmpty
	fzSPJ
	fzAgg
	fzUnion
	fzNodeKinds
	fzLeafNodeKinds = fzEmpty + 1
)

func (d *treeDecoder) datum() Datum {
	switch d.pick(dKinds) {
	case dNull:
		return NullDatum()
	case dInt:
		return IntDatum(int64(int8(d.next())))
	case dFrac:
		return NumDatum(big.NewRat(int64(int8(d.next())), int64(1+d.pick(6))))
	case dBig:
		num := new(big.Int).Lsh(big.NewInt(int64(1+d.pick(4))), 64)
		return NumDatum(new(big.Rat).SetFrac(num, big.NewInt(int64(1+d.pick(3)))))
	case dStr:
		return StrDatum(d.text())
	}
	return BoolDatum(d.pick(2) == 1)
}

func (d *treeDecoder) expr(depth int) Expr {
	kinds := fzExprKinds
	if depth >= maxFuzzDepth {
		kinds = fzLeafExprKinds
	}
	switch d.pick(kinds) {
	case fzColRef:
		return &ColRef{Index: d.pick(8)}
	case fzOuterRef:
		return &OuterRef{Depth: 1 + d.pick(2), Index: d.pick(8)}
	case fzConst:
		return &Const{Val: d.datum()}
	case fzBin:
		return &Bin{Op: BinOp(d.pick(int(OpOr) + 1)), L: d.expr(depth + 1), R: d.expr(depth + 1)}
	case fzNot:
		return &Not{E: d.expr(depth + 1)}
	case fzNeg:
		return &Neg{E: d.expr(depth + 1)}
	case fzIsNull:
		return &IsNull{E: d.expr(depth + 1)}
	case fzCase:
		c := &Case{}
		for i := d.pick(3); i > 0; i-- {
			c.Whens = append(c.Whens, When{Cond: d.expr(depth + 1), Then: d.expr(depth + 1)})
		}
		if d.pick(2) == 1 {
			c.Else = d.expr(depth + 1)
		}
		return c
	case fzFunc:
		// Bool is derived from the name, as the builder derives it.
		name := d.text()
		f := &Func{Name: name, Bool: name == "LIKE"}
		for i := d.pick(4); i > 0; i-- {
			f.Args = append(f.Args, d.expr(depth+1))
		}
		return f
	case fzExists:
		return &Exists{Negate: d.pick(2) == 1, Sub: d.node(depth + 1)}
	}
	return &ScalarSub{Sub: d.node(depth + 1)}
}

func (d *treeDecoder) named(depth int) []NamedExpr {
	var out []NamedExpr
	for i := d.pick(3); i > 0; i-- {
		out = append(out, NamedExpr{Name: d.text(), E: d.expr(depth)})
	}
	return out
}

func (d *treeDecoder) node(depth int) Node {
	kinds := fzNodeKinds
	if depth >= maxFuzzDepth {
		kinds = fzLeafNodeKinds
	}
	switch d.pick(kinds) {
	case fzTable:
		t := &schema.Table{Name: d.text()}
		for i := 1 + d.pick(3); i > 0; i-- {
			t.Columns = append(t.Columns, schema.Column{Name: d.text()})
		}
		return &Table{Meta: t}
	case fzEmpty:
		e := &Empty{}
		for i := d.pick(3); i > 0; i-- {
			e.Names = append(e.Names, d.text())
		}
		return e
	case fzSPJ:
		s := &SPJ{}
		for i := 1 + d.pick(2); i > 0; i-- {
			s.Inputs = append(s.Inputs, d.node(depth+1))
		}
		if d.pick(2) == 1 {
			s.Pred = d.expr(depth + 1)
		}
		s.Proj = d.named(depth + 1)
		return s
	case fzAgg:
		a := &Agg{Input: d.node(depth + 1), GroupBy: d.named(depth + 1)}
		for i := d.pick(3); i > 0; i-- {
			f := AggExpr{Op: AggOp(d.pick(int(AggAvg) + 1)), Distinct: d.pick(2) == 1}
			if d.pick(2) == 1 {
				f.Arg = d.expr(depth + 1)
			}
			f.Name = d.text()
			a.Aggs = append(a.Aggs, f)
		}
		return a
	}
	u := &Union{}
	for i := 1 + d.pick(3); i > 0; i-- {
		u.Inputs = append(u.Inputs, d.node(depth+1))
	}
	return u
}

var (
	bigRatType = reflect.TypeOf((*big.Rat)(nil))
	tableType  = reflect.TypeOf((*schema.Table)(nil))
	emptyType  = reflect.TypeOf(Empty{})
	namedType  = reflect.TypeOf(NamedExpr{})
	aggType    = reflect.TypeOf(AggExpr{})
)

// sameTree is the fuzz oracle: structural equality by reflection over
// every field of the plan and expression types, except the column names
// the encoding leaves out (NamedExpr.Name, AggExpr.Name, the entries of
// Empty.Names, a table's columns; a table is its name). It shares nothing
// with the encoder, and a field added to a plan type without being encoded
// turns into a collision here.
func sameTree(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() && b.IsNil()
		}
		switch a.Type() {
		case bigRatType:
			return a.Interface().(*big.Rat).Cmp(b.Interface().(*big.Rat)) == 0
		case tableType:
			return a.Elem().FieldByName("Name").String() == b.Elem().FieldByName("Name").String()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			switch name := a.Type().Field(i).Name; {
			case name == "Name" && (a.Type() == namedType || a.Type() == aggType):
				continue
			case name == "Names" && a.Type() == emptyType:
				if a.Field(i).Len() != b.Field(i).Len() {
					return false
				}
				continue
			}
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func sameNode(a, b Node) bool {
	return sameTree(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
}

func sameExpr(a, b Expr) bool {
	return sameTree(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
}

// fuzzSeed spells decoder input: an int is one choice byte, a string is
// a length byte followed by its bytes.
func fuzzSeed(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			out = append(out, byte(v))
		case string:
			out = append(append(out, byte(len(v))), v...)
		}
	}
	return out
}

// Seeds: the two collisions the unescaped renderer had, as bare
// expressions and inside an SPJ over EMP(ENAME) comparing $0 = f(...).
var (
	seedLowerSplit  = []any{fzFunc, "LOWER", 2, fzConst, dStr, "A", fzConst, dStr, "B"}
	seedLowerJoined = []any{fzFunc, "LOWER", 1, fzConst, dStr, "A' 'B"}
	seedFuncSpace   = []any{fzFunc, "F $1", 1, fzColRef, 1}
	seedFuncTwoArgs = []any{fzFunc, "F", 2, fzColRef, 1, fzColRef, 1}
)

func seedSPJ(pred []any) []any {
	out := []any{fzSPJ, 0, fzTable, "EMP", 0, "ENAME", 1, fzBin, int(OpEq), fzColRef, 0}
	out = append(out, pred...)
	return append(out, 1, "ENAME", fzColRef, 0)
}

func fuzzSeeds() [][]byte {
	cat := func(parts ...[]any) []byte {
		var all []any
		for _, p := range parts {
			all = append(all, p...)
		}
		return fuzzSeed(all...)
	}
	return [][]byte{
		cat([]any{modeExpr}, seedLowerSplit, seedLowerJoined),
		cat([]any{modeExpr}, seedFuncSpace, seedFuncTwoArgs),
		cat([]any{modeNode}, seedSPJ(seedLowerSplit), seedSPJ(seedLowerJoined)),
		cat([]any{modeNode}, seedSPJ(seedFuncSpace), seedSPJ(seedFuncTwoArgs)),
		cat([]any{modeNode}, seedSPJ(seedFuncTwoArgs), seedSPJ(seedFuncTwoArgs)),
	}
}

// checkCanonicalPair asserts the encoding is injective on one decoded
// pair: equal keys exactly when the oracle says the trees are equal.
func checkCanonicalPair(t *testing.T, data []byte) {
	d := &treeDecoder{data: data}
	if d.pick(2) == modeNode {
		a, b := d.node(0), d.node(0)
		fa, fb := Format(a), Format(b)
		if same := sameNode(a, b); (fa == fb) != same {
			t.Fatalf("Format equal = %v, trees equal = %v:\n a: %s\n b: %s", fa == fb, same, fa, fb)
		}
		if Fingerprint(a) != HashKey(fa) || PairFingerprint(a, b) != HashKey(PairKey(a, b)) {
			t.Fatalf("fingerprints do not hash the key bytes of %s", fa)
		}
		return
	}
	a, b := d.expr(0), d.expr(0)
	sa, sb := a.String(), b.String()
	same := sameExpr(a, b)
	if (sa == sb) != same {
		t.Fatalf("String equal = %v, trees equal = %v:\n a: %s\n b: %s", sa == sb, same, sa, sb)
	}
	if ExprEqual(a, b) != same {
		t.Fatalf("ExprEqual = %v, trees equal = %v:\n a: %s\n b: %s", ExprEqual(a, b), same, sa, sb)
	}
}

// FuzzCanonicalForm decodes two plan or expression trees and checks that
// their canonical encodings are equal exactly when the trees are, column
// names aside. Strings and names are drawn full of the encoding's own
// delimiters; the seeds include both collisions of the unescaped renderer.
func FuzzCanonicalForm(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkCanonicalPair)
}

// TestFuzzSeedsDecode pins the hand-spelled seeds to the trees they are
// meant to be, so a decoder change cannot silently empty them.
func TestFuzzSeedsDecode(t *testing.T) {
	want := [][2]string{
		{`(fn:LOWER 'A' 'B')`, `(fn:LOWER 'A'' ''B')`},
		{`(fn:"F $1" $1)`, `(fn:F $1 $1)`},
		{
			`spj(in:[table(EMP)] pred:(= $0 (fn:LOWER 'A' 'B')) proj:[$0])`,
			`spj(in:[table(EMP)] pred:(= $0 (fn:LOWER 'A'' ''B')) proj:[$0])`,
		},
		{
			`spj(in:[table(EMP)] pred:(= $0 (fn:"F $1" $1)) proj:[$0])`,
			`spj(in:[table(EMP)] pred:(= $0 (fn:F $1 $1)) proj:[$0])`,
		},
		{
			`spj(in:[table(EMP)] pred:(= $0 (fn:F $1 $1)) proj:[$0])`,
			`spj(in:[table(EMP)] pred:(= $0 (fn:F $1 $1)) proj:[$0])`,
		},
	}
	for i, s := range fuzzSeeds() {
		d := &treeDecoder{data: s}
		var got [2]string
		if d.pick(2) == modeNode {
			got = [2]string{Format(d.node(0)), Format(d.node(0))}
		} else {
			got = [2]string{d.expr(0).String(), d.expr(0).String()}
		}
		if got != want[i] || len(d.data) != 0 {
			t.Errorf("seed %d decodes to %q (%d bytes left), want %q", i, got, len(d.data), want[i])
		}
		checkCanonicalPair(t, s)
	}
}

// TestCanonicalEscaping pins the escaping rule on the two collisions the
// unescaped renderer had, and that constants keep their display form.
func TestCanonicalEscaping(t *testing.T) {
	lowerSplit := &Func{Name: "LOWER", Args: []Expr{&Const{Val: StrDatum("A")}, &Const{Val: StrDatum("B")}}}
	lowerJoined := &Func{Name: "LOWER", Args: []Expr{&Const{Val: StrDatum("A' 'B")}}}
	funcSpace := &Func{Name: "F $1", Args: []Expr{&ColRef{Index: 1}}}
	funcTwoArgs := &Func{Name: "F", Args: []Expr{&ColRef{Index: 1}, &ColRef{Index: 1}}}
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{lowerSplit, `(fn:LOWER 'A' 'B')`},
		{lowerJoined, `(fn:LOWER 'A'' ''B')`},
		{funcSpace, `(fn:"F $1" $1)`},
		{funcTwoArgs, `(fn:F $1 $1)`},
		{&Func{Name: `Q"`}, `(fn:"Q""")`},
		{&Func{Name: ""}, `(fn:"")`},
		{&Func{Name: "_x$9"}, `(fn:_x$9)`},
		{&Func{Name: "9x"}, `(fn:"9x")`},
	} {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %s, want %s", got, c.want)
		}
	}
	if ExprEqual(lowerSplit, lowerJoined) || ExprEqual(funcSpace, funcTwoArgs) {
		t.Error("ExprEqual conflates the colliding expressions")
	}
	tbl := &Table{Meta: &schema.Table{Name: "A) (B"}}
	if got := Format(tbl); got != `table("A) (B")` {
		t.Errorf("Format = %s", got)
	}
	if got := StrDatum("it's").String(); got != "'it's'" {
		t.Errorf("Datum.String = %s, want the unescaped display form", got)
	}
}
