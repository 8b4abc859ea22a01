package fol

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// tin owns every term the tests in this package build.
var tin = NewInterner()

func TestConstructorsFoldConstants(t *testing.T) {
	cases := []struct {
		name string
		got  *Term
		want *Term
	}{
		{"add-consts", Add(tin.Int(2), tin.Int(3)), tin.Int(5)},
		{"add-zero", Add(tin.NumVar("x"), tin.Int(0)), tin.NumVar("x")},
		{"mul-consts", Mul(tin.Int(2), tin.Int(3)), tin.Int(6)},
		{"mul-zero", Mul(tin.NumVar("x"), tin.Int(0)), tin.Int(0)},
		{"mul-one", Mul(tin.NumVar("x"), tin.Int(1)), tin.NumVar("x")},
		{"neg-const", Neg(tin.Int(4)), tin.Int(-4)},
		{"neg-neg", Neg(Neg(tin.NumVar("x"))), tin.NumVar("x")},
		{"sub-self", Sub(tin.NumVar("x"), tin.NumVar("x")), tin.Int(0)},
		{"div-const", Div(tin.NumVar("x"), tin.Int(2)), Mul(tin.Num(big.NewRat(1, 2)), tin.NumVar("x"))},
		{"eq-consts-true", Eq(tin.Int(3), tin.Int(3)), True()},
		{"eq-consts-false", Eq(tin.Int(3), tin.Int(4)), False()},
		{"eq-self", Eq(tin.NumVar("x"), tin.NumVar("x")), True()},
		{"le-consts", Le(tin.Int(3), tin.Int(4)), True()},
		{"lt-self", Lt(tin.NumVar("x"), tin.NumVar("x")), False()},
		{"not-true", Not(True()), False()},
		{"not-not", Not(Not(tin.BoolVar("p"))), tin.BoolVar("p")},
		{"and-true-unit", And(tin.BoolVar("p"), True()), tin.BoolVar("p")},
		{"and-false-zero", And(tin.BoolVar("p"), False()), False()},
		{"and-dedupe", And(tin.BoolVar("p"), tin.BoolVar("p")), tin.BoolVar("p")},
		{"and-complement", And(tin.BoolVar("p"), Not(tin.BoolVar("p"))), False()},
		{"or-true-zero", Or(tin.BoolVar("p"), True()), True()},
		{"or-complement", Or(tin.BoolVar("p"), Not(tin.BoolVar("p"))), True()},
		{"iff-self", Iff(tin.BoolVar("p"), tin.BoolVar("p")), True()},
		{"iff-true", Iff(True(), tin.BoolVar("p")), tin.BoolVar("p")},
		{"iff-false", Iff(False(), tin.BoolVar("p")), Not(tin.BoolVar("p"))},
		{"ite-const-cond", Ite(True(), tin.Int(1), tin.Int(2)), tin.Int(1)},
		{"ite-same-branches", Ite(tin.BoolVar("p"), tin.Int(1), tin.Int(1)), tin.Int(1)},
		{"implies-desugar", Implies(tin.BoolVar("p"), tin.BoolVar("q")), Or(Not(tin.BoolVar("p")), tin.BoolVar("q"))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.got.Equal(c.want) {
				t.Errorf("got %v, want %v", c.got, c.want)
			}
		})
	}
}

func TestNotRewritesComparisons(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	if got := Not(Le(x, y)); !got.Equal(Lt(y, x)) {
		t.Errorf("Not(x<=y) = %v, want y<x", got)
	}
	if got := Not(Lt(x, y)); !got.Equal(Le(y, x)) {
		t.Errorf("Not(x<y) = %v, want y<=x", got)
	}
}

func TestEqCanonicalOrder(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	if Eq(x, y).Key() != Eq(y, x).Key() {
		t.Errorf("Eq is not canonically ordered: %v vs %v", Eq(x, y), Eq(y, x))
	}
	if Iff(tin.BoolVar("p"), tin.BoolVar("q")).Key() != Iff(tin.BoolVar("q"), tin.BoolVar("p")).Key() {
		t.Error("Iff is not canonically ordered")
	}
}

func TestBoolIteExpands(t *testing.T) {
	p, a, b := tin.BoolVar("p"), tin.BoolVar("a"), tin.BoolVar("b")
	got := Ite(p, a, b)
	want := Or(And(p, a), And(Not(p), b))
	if !got.Equal(want) {
		t.Errorf("bool ite = %v, want %v", got, want)
	}
}

func TestSubst(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	f := And(Lt(x, tin.Int(5)), Eq(y, Add(x, tin.Int(1))))
	got := Subst(f, map[string]*Term{"x": tin.Int(2)})
	want := And(Lt(tin.Int(2), tin.Int(5)), Eq(y, tin.Int(3)))
	if !got.Equal(want) {
		t.Errorf("subst got %v, want %v", got, want)
	}
	// Folding should kick in: Lt(2,5) is true, so the conjunct vanishes.
	if !got.Equal(Eq(y, tin.Int(3))) {
		t.Errorf("subst did not fold: %v", got)
	}
}

func TestRenameVars(t *testing.T) {
	f := And(tin.BoolVar("p"), Lt(tin.NumVar("x"), tin.NumVar("y")))
	got := RenameVars(f, func(n string) string { return n + "'" })
	want := And(tin.BoolVar("p'"), Lt(tin.NumVar("x'"), tin.NumVar("y'")))
	if !got.Equal(want) {
		t.Errorf("rename got %v, want %v", got, want)
	}
}

func TestVars(t *testing.T) {
	f := And(tin.BoolVar("p"), Lt(tin.NumVar("x"), Add(tin.NumVar("x"), tin.NumVar("y"))))
	vs := Vars(f)
	if len(vs) != 3 {
		t.Fatalf("got %d vars, want 3: %v", len(vs), vs)
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, n := range []string{"p", "x", "y"} {
		if !names[n] {
			t.Errorf("missing variable %q", n)
		}
	}
}

func TestTupleEq(t *testing.T) {
	a := []*Term{tin.NumVar("x"), tin.BoolVar("p")}
	b := []*Term{tin.NumVar("y"), tin.BoolVar("q")}
	got := TupleEq(a, b)
	want := And(Eq(tin.NumVar("x"), tin.NumVar("y")), Iff(tin.BoolVar("p"), tin.BoolVar("q")))
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("TupleEq over mismatched lengths should panic")
		}
	}()
	TupleEq(a, b[:1])
}

func TestKeyEqualsStructuralEquality(t *testing.T) {
	// Property: Key() agrees with Equal() on randomly built terms.
	gen := newTermGen(rand.New(rand.NewSource(7)))
	for i := 0; i < 500; i++ {
		a := gen.boolTerm(3)
		b := gen.boolTerm(3)
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatalf("Key/Equal disagree:\n a=%v\n b=%v", a, b)
		}
	}
}

// TestSimplificationPreservesSemantics checks that rebuilding a random term
// through the smart constructors (via a no-op rename) never changes its value
// under a random interpretation.
func TestSimplificationPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	gen := newTermGen(r)
	cfg := &quick.Config{MaxCount: 400, Rand: r}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := newTermGen(rr)
		term := g.boolTerm(4)
		rebuilt := RenameVars(term, func(n string) string { return n })
		in := g.randomInterp(rr)
		v1, err1 := Eval(term, in)
		v2, err2 := Eval(rebuilt, in)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return v1.Bool == v2.Bool
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	_ = gen
}

// termGen builds small random terms over a fixed vocabulary for property
// tests.
type termGen struct{ r *rand.Rand }

func newTermGen(r *rand.Rand) *termGen { return &termGen{r: r} }

var genNumVars = []string{"x", "y", "z"}
var genBoolVars = []string{"p", "q"}

func (g *termGen) numTerm(depth int) *Term {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return tin.NumVar(genNumVars[g.r.Intn(len(genNumVars))])
		}
		return tin.Int(int64(g.r.Intn(7) - 3))
	}
	switch g.r.Intn(4) {
	case 0:
		return Add(g.numTerm(depth-1), g.numTerm(depth-1))
	case 1:
		return Sub(g.numTerm(depth-1), g.numTerm(depth-1))
	case 2:
		return Neg(g.numTerm(depth - 1))
	default:
		return Mul(tin.Int(int64(g.r.Intn(5)-2)), g.numTerm(depth-1))
	}
}

func (g *termGen) boolTerm(depth int) *Term {
	if depth == 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return tin.BoolVar(genBoolVars[g.r.Intn(len(genBoolVars))])
		case 1:
			return Bool(g.r.Intn(2) == 0)
		case 2:
			return Eq(g.numTerm(2), g.numTerm(2))
		default:
			return Lt(g.numTerm(2), g.numTerm(2))
		}
	}
	switch g.r.Intn(5) {
	case 0:
		return And(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 1:
		return Or(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 2:
		return Not(g.boolTerm(depth - 1))
	case 3:
		return Iff(g.boolTerm(depth-1), g.boolTerm(depth-1))
	default:
		return Le(g.numTerm(2), g.numTerm(2))
	}
}

func (g *termGen) randomInterp(r *rand.Rand) Interp {
	vars := make(map[string]Value)
	for _, n := range genNumVars {
		vars[n] = NumValue(big.NewRat(int64(r.Intn(11)-5), 1))
	}
	for _, n := range genBoolVars {
		vars[n] = BoolValue(r.Intn(2) == 0)
	}
	return Interp{Vars: vars}
}

func TestSizeAndWalk(t *testing.T) {
	f := And(tin.BoolVar("p"), Lt(tin.NumVar("x"), tin.Int(3)))
	if got := Size(f); got != 5 {
		t.Errorf("Size = %d, want 5 for %v", got, f)
	}
}
