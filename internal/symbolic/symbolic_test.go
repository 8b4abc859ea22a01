package symbolic

import (
	"math/big"
	"math/rand"
	"testing"

	"spes/internal/fol"
	"spes/internal/plan"
)

// evalTerm evaluates a fol term under concrete variable values.
func evalTerm(t *testing.T, term *fol.Term, vars map[string]fol.Value) fol.Value {
	t.Helper()
	v, err := fol.Eval(term, fol.Interp{Vars: vars})
	if err != nil {
		t.Fatalf("eval %v: %v", term, err)
	}
	return v
}

// bindTuple assigns concrete row values to a symbolic tuple's variables.
func bindTuple(tup Tuple, row []plan.Datum, vars map[string]fol.Value) {
	for i, col := range tup {
		d := row[i]
		if col.Val.Kind == fol.KVar {
			if d.Null || d.Kind != plan.KNum {
				vars[col.Val.Name] = fol.NumValue(big.NewRat(0, 1))
			} else {
				vars[col.Val.Name] = fol.NumValue(d.Num)
			}
		}
		if col.Null.Kind == fol.KVar {
			vars[col.Null.Name] = fol.BoolValue(d.Null)
		}
	}
}

func TestConstantEncoding(t *testing.T) {
	g := NewGen(fol.NewInterner())
	e := NewEncoder(g)
	in := g.FreshTuple("x", 0)

	c, err := e.Expr(&plan.Const{Val: plan.IntDatum(42)}, in)
	if err != nil {
		t.Fatal(err)
	}
	if c.Val.Rat.Cmp(big.NewRat(42, 1)) != 0 || c.Null.Kind != fol.KFalse {
		t.Errorf("int constant encoded as (%v, %v)", c.Val, c.Null)
	}

	c, err = e.Expr(&plan.Const{Val: plan.NullDatum()}, in)
	if err != nil {
		t.Fatal(err)
	}
	if c.Null.Kind != fol.KTrue {
		t.Errorf("NULL constant should have true null flag, got %v", c.Null)
	}
}

func TestStringInterningPreservesOrder(t *testing.T) {
	g := NewGen(fol.NewInterner())
	// Intern in scrambled order; the values must respect lexicographic
	// order regardless.
	words := []string{"mango", "apple", "zebra", "kiwi", "banana", "apricot"}
	vals := map[string]*big.Rat{}
	for _, w := range words {
		vals[w] = g.InternString(w).Rat
	}
	for _, a := range words {
		for _, b := range words {
			cmp := vals[a].Cmp(vals[b])
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if cmp != want {
				t.Errorf("interning order broken: %q vs %q -> %d, want %d", a, b, cmp, want)
			}
		}
	}
	// Idempotent.
	if g.InternString("mango").Rat.Cmp(vals["mango"]) != 0 {
		t.Error("re-interning changed the value")
	}
}

// TestPredicateEncodingDifferential is the encoder's core soundness test:
// for random predicates and random rows, the symbolic three-valued encoding
// evaluated under the bound model must agree exactly with direct SQL
// three-valued evaluation of the same predicate by internal/exec. (The
// executor import would be a cycle, so evaluation is reimplemented minimally
// here for the generated fragment.)
func TestPredicateEncodingDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	width := 3
	in := g.FreshTuple("c", width)

	for iter := 0; iter < 600; iter++ {
		pred := randPred(r, width, 3)
		p, err := enc.Pred(pred, in)
		if err != nil {
			t.Fatalf("encode %v: %v", pred, err)
		}
		assign := enc.TakeAssigns()

		row := randRow(r, width)
		vars := map[string]fol.Value{}
		bindTuple(in, row, vars)
		// CASE encodings introduce auxiliary variables defined by assign;
		// predicates in this generator avoid CASE, so assign must be TRUE.
		if assign.Kind != fol.KTrue {
			t.Fatalf("unexpected assigns for %v: %v", pred, assign)
		}

		gotVal := evalTerm(t, p.Val, vars).Bool
		gotNull := evalTerm(t, p.Null, vars).Bool

		want := eval3(pred, row)
		if want == tvUnknown != gotNull {
			t.Fatalf("null flag mismatch for %v on %v: encoder null=%v, want %v",
				pred, row, gotNull, want == tvUnknown)
		}
		if want != tvUnknown && (want == tvTrue) != gotVal {
			t.Fatalf("value mismatch for %v on %v: encoder val=%v, want %v",
				pred, row, gotVal, want)
		}
	}
}

// three-valued logic domain for the reference evaluator.
type tv int

const (
	tvFalse tv = iota
	tvUnknown
	tvTrue
)

// eval3 is the reference three-valued evaluator for the generated fragment.
func eval3(e plan.Expr, row []plan.Datum) tv {
	switch v := e.(type) {
	case *plan.Bin:
		switch {
		case v.Op == plan.OpAnd:
			a, b := eval3(v.L, row), eval3(v.R, row)
			if a < b {
				return a
			}
			return b
		case v.Op == plan.OpOr:
			a, b := eval3(v.L, row), eval3(v.R, row)
			if a > b {
				return a
			}
			return b
		default: // comparison
			l, lnull := evalNum(v.L, row)
			r, rnull := evalNum(v.R, row)
			if lnull || rnull {
				return tvUnknown
			}
			c := l.Cmp(r)
			var res bool
			switch v.Op {
			case plan.OpEq:
				res = c == 0
			case plan.OpNe:
				res = c != 0
			case plan.OpLt:
				res = c < 0
			case plan.OpLe:
				res = c <= 0
			case plan.OpGt:
				res = c > 0
			case plan.OpGe:
				res = c >= 0
			}
			if res {
				return tvTrue
			}
			return tvFalse
		}
	case *plan.Not:
		switch eval3(v.E, row) {
		case tvTrue:
			return tvFalse
		case tvFalse:
			return tvTrue
		}
		return tvUnknown
	case *plan.IsNull:
		_, null := evalNum(v.E, row)
		if null {
			return tvTrue
		}
		return tvFalse
	}
	panic("eval3: unexpected node")
}

func evalNum(e plan.Expr, row []plan.Datum) (*big.Rat, bool) {
	switch v := e.(type) {
	case *plan.ColRef:
		d := row[v.Index]
		if d.Null {
			return nil, true
		}
		return d.Num, false
	case *plan.Const:
		if v.Val.Null {
			return nil, true
		}
		return v.Val.Num, false
	case *plan.Neg:
		r, null := evalNum(v.E, row)
		if null {
			return nil, true
		}
		return new(big.Rat).Neg(r), false
	case *plan.Bin:
		l, lnull := evalNum(v.L, row)
		r, rnull := evalNum(v.R, row)
		if lnull || rnull {
			return nil, true
		}
		out := new(big.Rat)
		switch v.Op {
		case plan.OpAdd:
			out.Add(l, r)
		case plan.OpSub:
			out.Sub(l, r)
		case plan.OpMul:
			out.Mul(l, r)
		}
		return out, false
	}
	panic("evalNum: unexpected node")
}

func randNum(r *rand.Rand, width, depth int) plan.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return &plan.ColRef{Index: r.Intn(width)}
		}
		if r.Intn(8) == 0 {
			return &plan.Const{Val: plan.NullDatum()}
		}
		return &plan.Const{Val: plan.IntDatum(int64(r.Intn(7) - 3))}
	}
	ops := []plan.BinOp{plan.OpAdd, plan.OpSub, plan.OpMul}
	if r.Intn(4) == 0 {
		return &plan.Neg{E: randNum(r, width, depth-1)}
	}
	op := ops[r.Intn(len(ops))]
	l := randNum(r, width, depth-1)
	rr := randNum(r, width, depth-1)
	if op == plan.OpMul {
		// Keep products linear so the reference and solver theories agree.
		rr = &plan.Const{Val: plan.IntDatum(int64(r.Intn(4) - 1))}
	}
	return &plan.Bin{Op: op, L: l, R: rr}
}

func randPred(r *rand.Rand, width, depth int) plan.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(6) == 0 {
			return &plan.IsNull{E: randNum(r, width, 1)}
		}
		cmps := []plan.BinOp{plan.OpEq, plan.OpNe, plan.OpLt, plan.OpLe, plan.OpGt, plan.OpGe}
		return &plan.Bin{Op: cmps[r.Intn(len(cmps))], L: randNum(r, width, 2), R: randNum(r, width, 2)}
	}
	switch r.Intn(3) {
	case 0:
		return &plan.Bin{Op: plan.OpAnd, L: randPred(r, width, depth-1), R: randPred(r, width, depth-1)}
	case 1:
		return &plan.Bin{Op: plan.OpOr, L: randPred(r, width, depth-1), R: randPred(r, width, depth-1)}
	}
	return &plan.Not{E: randPred(r, width, depth-1)}
}

func randRow(r *rand.Rand, width int) []plan.Datum {
	row := make([]plan.Datum, width)
	for i := range row {
		if r.Intn(4) == 0 {
			row[i] = plan.NullDatum()
		} else {
			row[i] = plan.IntDatum(int64(r.Intn(9) - 4))
		}
	}
	return row
}

func TestCaseEncodingViaAssign(t *testing.T) {
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	in := g.FreshTuple("c", 1)
	// CASE WHEN $0 > 0 THEN 1 ELSE 2 END
	caseExpr := &plan.Case{
		Whens: []plan.When{{
			Cond: &plan.Bin{Op: plan.OpGt, L: &plan.ColRef{Index: 0}, R: &plan.Const{Val: plan.IntDatum(0)}},
			Then: &plan.Const{Val: plan.IntDatum(1)},
		}},
		Else: &plan.Const{Val: plan.IntDatum(2)},
	}
	col, err := enc.Expr(caseExpr, in)
	if err != nil {
		t.Fatal(err)
	}
	assign := enc.TakeAssigns()
	if assign.Kind == fol.KTrue {
		t.Fatal("CASE must produce ASSIGN constraints")
	}
	if col.Val.Kind != fol.KVar {
		t.Fatalf("CASE should yield a fresh column, got %v", col.Val)
	}
	// The assign must pin the fresh column: when $0 = 3 (arm fires), col=1.
	vars := map[string]fol.Value{
		in[0].Val.Name:  fol.NumValue(big.NewRat(3, 1)),
		in[0].Null.Name: fol.BoolValue(false),
		col.Val.Name:    fol.NumValue(big.NewRat(1, 1)),
		col.Null.Name:   fol.BoolValue(false),
	}
	if !evalTerm(t, assign, vars).Bool {
		t.Error("assign should accept col=1 when the arm fires")
	}
	vars[col.Val.Name] = fol.NumValue(big.NewRat(2, 1))
	if evalTerm(t, assign, vars).Bool {
		t.Error("assign should reject col=2 when the arm fires")
	}
}

func TestIdentityAndGroupEq(t *testing.T) {
	g := NewGen(fol.NewInterner())
	a := g.FreshTuple("a", 1)
	b := g.FreshTuple("b", 1)
	vars := map[string]fol.Value{}
	set := func(c Col, null bool, val int64) {
		vars[c.Val.Name] = fol.NumValue(big.NewRat(val, 1))
		vars[c.Null.Name] = fol.BoolValue(null)
	}

	// Both NULL: group-equal AND identity-equal (values ignored).
	set(a[0], true, 1)
	set(b[0], true, 2)
	if !evalTerm(t, GroupEq(a, b), vars).Bool {
		t.Error("NULLs should group together")
	}
	if !evalTerm(t, IdentityEq(a, b), vars).Bool {
		t.Error("NULLs should be identical output values")
	}

	// One NULL: neither.
	set(b[0], false, 1)
	if evalTerm(t, GroupEq(a, b), vars).Bool || evalTerm(t, IdentityEq(a, b), vars).Bool {
		t.Error("NULL vs non-NULL must differ")
	}

	// Equal non-NULL: both.
	set(a[0], false, 1)
	if !evalTerm(t, GroupEq(a, b), vars).Bool || !evalTerm(t, IdentityEq(a, b), vars).Bool {
		t.Error("equal non-NULL values must match")
	}

	// Mismatched widths are never equal.
	if IdentityEq(a, g.FreshTuple("w", 2)).Kind != fol.KFalse {
		t.Error("width mismatch should be false")
	}
}

func TestExistsCanonicalNaming(t *testing.T) {
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	in := g.FreshTuple("c", 2)
	sub := func(l, r plan.Expr) plan.Node {
		return &plan.SPJ{
			Inputs: []plan.Node{&plan.SPJ{Proj: []plan.NamedExpr{{Name: "X", E: &plan.Const{Val: plan.IntDatum(1)}}}}},
			Pred:   &plan.Bin{Op: plan.OpEq, L: l, R: r},
			Proj:   []plan.NamedExpr{{Name: "Y", E: &plan.ColRef{Index: 0}}},
		}
	}
	// Commuted equalities inside the subquery produce the same symbol.
	p1, err := enc.Pred(&plan.Exists{Sub: sub(&plan.ColRef{Index: 0}, &plan.OuterRef{Depth: 1, Index: 1})}, in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := enc.Pred(&plan.Exists{Sub: sub(&plan.OuterRef{Depth: 1, Index: 1}, &plan.ColRef{Index: 0})}, in)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Val.Key() != p2.Val.Key() {
		t.Errorf("commuted EXISTS subqueries should share a symbol:\n%v\n%v", p1.Val, p2.Val)
	}
	// Depth-2 correlation is rejected.
	deep := sub(&plan.ColRef{Index: 0}, &plan.OuterRef{Depth: 2, Index: 0})
	if _, err := enc.Pred(&plan.Exists{Sub: deep}, in); err == nil {
		t.Error("depth-2 correlation should be unsupported")
	}
	enc.TakeAssigns()
}

func TestCollectOuterRefs(t *testing.T) {
	sub := &plan.SPJ{
		Inputs: []plan.Node{},
		Pred: &plan.Bin{Op: plan.OpAnd,
			L: &plan.Bin{Op: plan.OpEq, L: &plan.OuterRef{Depth: 1, Index: 3}, R: &plan.Const{Val: plan.IntDatum(1)}},
			R: &plan.Bin{Op: plan.OpEq, L: &plan.OuterRef{Depth: 1, Index: 1}, R: &plan.OuterRef{Depth: 1, Index: 3}},
		},
		Proj: []plan.NamedExpr{{Name: "A", E: &plan.Const{Val: plan.IntDatum(1)}}},
	}
	refs := CollectOuterRefs(sub, 1)
	if len(refs) != 2 || refs[0] != 3 || refs[1] != 1 {
		t.Errorf("refs = %v, want [3 1] (first occurrence order)", refs)
	}
}

func TestFunctionEncoding(t *testing.T) {
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	in := g.FreshTuple("c", 2)
	fn := &plan.Func{Name: "UDF", Args: []plan.Expr{&plan.ColRef{Index: 0}, &plan.ColRef{Index: 1}}}

	c1, err := enc.Expr(fn, in)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := enc.Expr(fn, in)
	if err != nil {
		t.Fatal(err)
	}
	// Same function over same arguments: identical terms (congruence by
	// construction).
	if c1.Val.Key() != c2.Val.Key() || c1.Null.Key() != c2.Null.Key() {
		t.Error("repeated UDF applications should encode identically")
	}
	if c1.Val.Kind != fol.KApp || c1.Null.Kind != fol.KApp {
		t.Errorf("UDF should encode as applications: %v / %v", c1.Val, c1.Null)
	}
	// Different functions differ.
	other := &plan.Func{Name: "UDF2", Args: fn.Args}
	c3, err := enc.Expr(other, in)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Val.Key() == c1.Val.Key() {
		t.Error("different UDF names must not collide")
	}
	// Predicate-valued functions encode as boolean applications.
	like := &plan.Func{Name: "LIKE", Bool: true, Args: fn.Args}
	p, err := enc.Pred(like, in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Val.Sort != fol.SortBool {
		t.Errorf("predicate function should be boolean-sorted: %v", p.Val)
	}
}

func TestDivModEncoding(t *testing.T) {
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	in := g.FreshTuple("c", 2)
	div := &plan.Bin{Op: plan.OpDiv, L: &plan.ColRef{Index: 0}, R: &plan.ColRef{Index: 1}}
	c, err := enc.Expr(div, in)
	if err != nil {
		t.Fatal(err)
	}
	if c.Val.Kind != fol.KDiv {
		t.Errorf("variable division should stay symbolic: %v", c.Val)
	}
	// Division by a constant folds into multiplication.
	div2 := &plan.Bin{Op: plan.OpDiv, L: &plan.ColRef{Index: 0}, R: &plan.Const{Val: plan.IntDatum(2)}}
	c2, err := enc.Expr(div2, in)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Val.Kind == fol.KDiv {
		t.Errorf("constant division should fold: %v", c2.Val)
	}
	mod := &plan.Bin{Op: plan.OpMod, L: &plan.ColRef{Index: 0}, R: &plan.ColRef{Index: 1}}
	c3, err := enc.Expr(mod, in)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Val.Kind != fol.KApp {
		t.Errorf("modulo should encode as an uninterpreted application: %v", c3.Val)
	}
}

func TestBooleanValuePosition(t *testing.T) {
	g := NewGen(fol.NewInterner())
	enc := NewEncoder(g)
	in := g.FreshTuple("c", 1)
	// A comparison used as a value encodes as 0/1 with the comparison's
	// nullability.
	cmp := &plan.Bin{Op: plan.OpGt, L: &plan.ColRef{Index: 0}, R: &plan.Const{Val: plan.IntDatum(0)}}
	c, err := enc.Expr(cmp, in)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]fol.Value{
		in[0].Val.Name:  fol.NumValue(big.NewRat(5, 1)),
		in[0].Null.Name: fol.BoolValue(false),
	}
	// The ITE lifts in the solver; evaluate directly here.
	v := evalTerm(t, c.Val, vars)
	if v.Rat.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("5 > 0 in value position should be 1, got %v", v.Rat)
	}
	// Boolean constant as a predicate.
	p, err := enc.Pred(&plan.Const{Val: plan.BoolDatum(true)}, in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Val.Kind != fol.KTrue {
		t.Errorf("TRUE constant predicate: %v", p.Val)
	}
	// Numeric constant as a predicate is an error.
	if _, err := enc.Pred(&plan.Const{Val: plan.IntDatum(3)}, in); err == nil {
		t.Error("numeric constant as predicate should fail")
	}
	// A free correlated reference is an encoding error.
	if _, err := enc.Expr(&plan.OuterRef{Depth: 1, Index: 0}, in); err == nil {
		t.Error("free outer reference should fail")
	}
	// Out-of-range column reference is an encoding error.
	if _, err := enc.Expr(&plan.ColRef{Index: 9}, in); err == nil {
		t.Error("out-of-range column should fail")
	}
}

func TestStripExistsProjections(t *testing.T) {
	table := &plan.SPJ{
		Inputs: []plan.Node{},
		Pred:   &plan.Bin{Op: plan.OpGt, L: &plan.Const{Val: plan.IntDatum(1)}, R: &plan.Const{Val: plan.IntDatum(0)}},
		Proj: []plan.NamedExpr{
			{Name: "A", E: &plan.Const{Val: plan.IntDatum(1)}},
			{Name: "B", E: &plan.Const{Val: plan.IntDatum(2)}},
		},
	}
	stripped := StripExistsProjections(table).(*plan.SPJ)
	if len(stripped.Proj) != 1 {
		t.Errorf("projection should collapse to one constant: %v", stripped.Proj)
	}
	if stripped.Pred == nil {
		t.Error("the predicate must survive (it shapes cardinality)")
	}
	// Unions strip branchwise.
	u := &plan.Union{Inputs: []plan.Node{table, table}}
	su := StripExistsProjections(u).(*plan.Union)
	for _, in := range su.Inputs {
		if len(in.(*plan.SPJ).Proj) != 1 {
			t.Error("union branches should be stripped")
		}
	}
	// Aggregates are untouched (grouping shapes cardinality).
	agg := &plan.Agg{Input: table, GroupBy: []plan.NamedExpr{{Name: "A", E: &plan.ColRef{Index: 0}}}}
	if StripExistsProjections(agg) != plan.Node(agg) {
		t.Error("aggregates must not be stripped")
	}
}

func TestTupleTermsAndObligation(t *testing.T) {
	g := NewGen(fol.NewInterner())
	tup := g.FreshTuple("x", 2)
	if got := len(tup.Terms()); got != 4 {
		t.Errorf("Terms() = %d elements, want 4", got)
	}
	q := &QPSR{
		Cols1:  g.FreshTuple("a", 1),
		Cols2:  g.FreshTuple("b", 2),
		Cond:   fol.True(),
		Assign: fol.True(),
	}
	// Mismatched widths make the obligation unprovable (False antecedent
	// would be wrong — it must be the whole obligation that's False).
	if q.FullEquivalenceObligation().Kind != fol.KFalse {
		t.Error("width mismatch should yield an unprovable obligation")
	}
}

func TestBindEqSemantics(t *testing.T) {
	g := NewGen(fol.NewInterner())
	a := g.FreshTuple("a", 1)
	b := g.FreshTuple("b", 1)
	bind := BindEq(a, b)
	vars := map[string]fol.Value{
		a[0].Val.Name: fol.NumValue(big.NewRat(3, 1)), a[0].Null.Name: fol.BoolValue(false),
		b[0].Val.Name: fol.NumValue(big.NewRat(3, 1)), b[0].Null.Name: fol.BoolValue(false),
	}
	if !evalTerm(t, bind, vars).Bool {
		t.Error("equal non-null tuples bind")
	}
	// Strictness: NULL columns still require equal value components.
	vars[a[0].Null.Name] = fol.BoolValue(true)
	vars[b[0].Null.Name] = fol.BoolValue(true)
	vars[b[0].Val.Name] = fol.NumValue(big.NewRat(4, 1))
	if evalTerm(t, bind, vars).Bool {
		t.Error("BindEq is strict on value components")
	}
	if BindEq(a, g.FreshTuple("w", 2)).Kind != fol.KFalse {
		t.Error("width mismatch should be false")
	}
}
