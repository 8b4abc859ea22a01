package smt

import (
	"math/big"
	"math/rand"
	"testing"

	"spes/internal/fol"
	"spes/internal/sat"
)

// tin owns the terms the package's tests build.
var tin = fol.NewInterner()

func checkSat(t *testing.T, f *fol.Term, want Result) {
	t.Helper()
	s := New()
	if got := s.CheckSat(f); got != want {
		t.Errorf("CheckSat(%v) = %v, want %v", f, got, want)
	}
}

func TestCheckSatBasics(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	p := tin.BoolVar("p")

	checkSat(t, fol.True(), Sat)
	checkSat(t, fol.False(), Unsat)
	checkSat(t, p, Sat)
	checkSat(t, fol.And(p, fol.Not(p)), Unsat)
	checkSat(t, fol.Lt(x, y), Sat)
	checkSat(t, fol.And(fol.Lt(x, y), fol.Lt(y, x)), Unsat)
	checkSat(t, fol.And(fol.Le(x, y), fol.Le(y, x)), Sat)
	checkSat(t, fol.And(fol.Le(x, y), fol.Le(y, x), fol.Not(fol.Eq(x, y))), Unsat)
	checkSat(t, fol.And(fol.Lt(x, tin.Int(3)), fol.Lt(tin.Int(5), x)), Unsat)
	// The paper's §3.1 examples: x+5>10 ∧ x<3 is unsat only over integers;
	// over rationals it is sat at e.g. x=5.5... actually x+5>10 requires
	// x>5, contradicting x<3 over the rationals too.
	checkSat(t, fol.And(fol.Gt(fol.Add(x, tin.Int(5)), tin.Int(10)), fol.Lt(x, tin.Int(3))), Unsat)
	checkSat(t, fol.And(fol.Gt(fol.Add(x, tin.Int(5)), tin.Int(10)), fol.Lt(x, tin.Int(6))), Sat)
}

// TestCheckSatObligationShapes checks conjunctions shaped like the
// verifier's obligations, prefix ∧ ¬suffix: arithmetic and congruence
// under an arithmetic-implied equality, a contradictory prefix, and an ITE
// occurring twice in one formula, which must share one lifted variable.
func TestCheckSatObligationShapes(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx, fy := tin.App("f", fol.SortNum, x), tin.App("f", fol.SortNum, y)
	xEqY := fol.And(fol.Le(x, y), fol.Le(y, x))
	minXY := fol.Ite(fol.Le(x, y), x, y)
	zero, one, five := tin.Int(0), tin.Int(1), tin.Int(5)

	checkSat(t, fol.And(xEqY, fol.Lt(x, y)), Unsat)
	checkSat(t, fol.And(xEqY, fol.Eq(x, y)), Sat)
	checkSat(t, fol.And(fol.Le(zero, x), fol.Lt(x, zero)), Unsat)
	checkSat(t, fol.And(fol.Le(zero, x), fol.Lt(x, one)), Sat)
	checkSat(t, fol.And(fol.Lt(x, zero), fol.Lt(zero, x), fol.Eq(x, x)), Unsat)
	checkSat(t, fol.And(fol.Eq(minXY, five), fol.Lt(x, five)), Unsat)
	checkSat(t, fol.And(fol.Eq(minXY, five), fol.Lt(minXY, five)), Unsat)
	checkSat(t, fol.Eq(minXY, five), Sat)
	checkSat(t, fol.And(xEqY, fol.Not(fol.Eq(fx, fy))), Unsat)
	checkSat(t, fol.And(xEqY, fol.Eq(fx, fy)), Sat)
}

// TestLemmaStoreKeepsDistinctCores pins that a check's lemma store keeps
// every distinct core, including two whose literal codes (2·atom ID +
// polarity) have equal sums, and replays both into a later case whose
// vocabulary covers them.
func TestLemmaStoreKeepsDistinctCores(t *testing.T) {
	in := fol.NewInterner()
	a, b, c, d := in.BoolVar("a"), in.BoolVar("b"), in.BoolVar("c"), in.BoolVar("d")
	core1 := []theoryLit{{atom: a, pos: true}, {atom: d, pos: false}}
	core2 := []theoryLit{{atom: b, pos: true}, {atom: c, pos: false}}
	codeSum := func(core []theoryLit) uint32 {
		var sum uint32
		for _, l := range core {
			sum += 2 * l.atom.ID()
			if l.pos {
				sum++
			}
		}
		return sum
	}
	if codeSum(core1) != codeSum(core2) {
		t.Fatalf("sanity: code sums %d and %d differ", codeSum(core1), codeSum(core2))
	}
	store := new(lemmaStore)
	store.record(core1)
	store.record(core2)
	if len(store.lemmas) != 2 {
		t.Fatalf("store holds %d lemmas, want 2", len(store.lemmas))
	}
	caseFormula := fol.Or(a, b, c, d)
	for i, core := range [][]theoryLit{core1, core2} {
		for _, st := range []*lemmaStore{new(lemmaStore), store} {
			s := New()
			s.Interner = in
			inst := s.newCaseInstance(caseFormula, st)
			for _, l := range core {
				lit := inst.atomLit(l.atom)
				if !l.pos {
					lit = lit.Not()
				}
				inst.sat.AddClause(lit)
			}
			want := sat.Unsat // the replayed core blocks its own literals
			if st != store {
				want = sat.Sat
			}
			if got := inst.sat.Solve(); got != want {
				t.Errorf("core %d with %d stored lemmas: %v, want %v", i+1, len(st.lemmas), got, want)
			}
		}
	}
}

func TestValidity(t *testing.T) {
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	s := New()
	cases := []struct {
		name string
		f    *fol.Term
		want bool
	}{
		{"refl", fol.Eq(x, x), true},
		{"lt-implies-le", fol.Implies(fol.Lt(x, y), fol.Le(x, y)), true},
		{"trans", fol.Implies(fol.And(fol.Lt(x, y), fol.Lt(y, z)), fol.Lt(x, z)), true},
		{"shift", fol.Iff(fol.Gt(fol.Add(x, tin.Int(5)), tin.Int(15)), fol.Gt(x, tin.Int(10))), true},
		{"not-valid", fol.Le(x, y), false},
		{"trichotomy", fol.Or(fol.Lt(x, y), fol.Eq(x, y), fol.Lt(y, x)), true},
		{"scale", fol.Iff(fol.Le(fol.Mul(tin.Int(2), x), tin.Int(10)), fol.Le(x, tin.Int(5))), true},
		{"neg-flip", fol.Iff(fol.Le(fol.Neg(x), tin.Int(0)), fol.Ge(x, tin.Int(0))), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := s.Valid(c.f); got != c.want {
				t.Errorf("Valid(%v) = %v, want %v", c.f, got, c.want)
			}
		})
	}
}

func TestPaperExample1Predicates(t *testing.T) {
	// §2 Example 1: DEPT_ID > 10 vs DEPT_ID + 5 > 15 are equivalent
	// predicates; their Iff is valid.
	v3 := tin.NumVar("v3")
	p1 := fol.Gt(v3, tin.Int(10))
	p2 := fol.Gt(fol.Add(v3, tin.Int(5)), tin.Int(15))
	s := New()
	if !s.Valid(fol.Iff(p1, p2)) {
		t.Error("DEPT_ID>10 should be equivalent to DEPT_ID+5>15")
	}
	// §3.2: DEPT_ID+5=15 vs DEPT_ID=10.
	q1 := fol.Eq(fol.Add(v3, tin.Int(5)), tin.Int(15))
	q2 := fol.Eq(v3, tin.Int(10))
	if !s.Valid(fol.Iff(q1, q2)) {
		t.Error("DEPT_ID+5=15 should be equivalent to DEPT_ID=10")
	}
}

func TestUninterpretedFunctions(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	s := New()
	// Congruence: x=y → f(x)=f(y) is valid.
	if !s.Valid(fol.Implies(fol.Eq(x, y), fol.Eq(fx, fy))) {
		t.Error("congruence should be valid")
	}
	// The converse is not valid.
	if s.Valid(fol.Implies(fol.Eq(fx, fy), fol.Eq(x, y))) {
		t.Error("inverse congruence should not be valid")
	}
	// f(x)=x+1 ∧ x=y ∧ f(y)>x+2 is unsat.
	f := fol.And(
		fol.Eq(fx, fol.Add(x, tin.Int(1))),
		fol.Eq(x, y),
		fol.Gt(fy, fol.Add(x, tin.Int(2))),
	)
	checkSat(t, f, Unsat)
}

func TestArithToEUFPropagation(t *testing.T) {
	// x <= y ∧ y <= x (arith-implied x=y) ∧ f(x) ≠ f(y) is unsat; requires
	// equality propagation from simplex into congruence closure.
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	f := fol.And(
		fol.Le(x, y),
		fol.Le(y, x),
		fol.Not(fol.Eq(fx, fy)),
	)
	checkSat(t, f, Unsat)
}

func TestEUFToArithPropagation(t *testing.T) {
	// f(x)=3 ∧ f(y)=5 ∧ x=y is unsat; congruence merges f(x),f(y), then the
	// constants conflict.
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	f := fol.And(
		fol.Eq(fx, tin.Int(3)),
		fol.Eq(fy, tin.Int(5)),
		fol.Eq(x, y),
	)
	checkSat(t, f, Unsat)
}

func TestOffsetCongruence(t *testing.T) {
	// x = y+1 ∧ f(x) ≠ f(y+1) is unsat: needs arithmetic to identify x with
	// the term y+1 and propagate into the congruence closure.
	x, y := tin.NumVar("x"), tin.NumVar("y")
	y1 := fol.Add(y, tin.Int(1))
	f := fol.And(
		fol.Eq(x, y1),
		fol.Not(fol.Eq(tin.App("f", fol.SortNum, x), tin.App("f", fol.SortNum, y1))),
	)
	checkSat(t, f, Unsat)
}

func TestBooleanApps(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	px := tin.App("p", fol.SortBool, x)
	py := tin.App("p", fol.SortBool, y)
	// p(x) ∧ ¬p(y) ∧ x=y is unsat.
	checkSat(t, fol.And(px, fol.Not(py), fol.Eq(x, y)), Unsat)
	// p(x) ∧ ¬p(y) is sat.
	checkSat(t, fol.And(px, fol.Not(py)), Sat)
}

func TestNumericIteLifting(t *testing.T) {
	x := tin.NumVar("x")
	p := tin.BoolVar("p")
	ite := fol.Ite(p, tin.Int(1), tin.Int(2))
	// ite(p,1,2) >= 1 is valid.
	s := New()
	if !s.Valid(fol.Ge(ite, tin.Int(1))) {
		t.Error("ite(p,1,2) >= 1 should be valid")
	}
	// ite(p,1,2) = 3 is unsat.
	checkSat(t, fol.Eq(ite, tin.Int(3)), Unsat)
	// ite(x>0, x, -x) >= 0 is valid (absolute value).
	abs := fol.Ite(fol.Gt(x, tin.Int(0)), x, fol.Neg(x))
	if !s.Valid(fol.Ge(abs, tin.Int(0))) {
		t.Error("|x| >= 0 should be valid")
	}
}

func TestNonlinearSoundness(t *testing.T) {
	// Non-linear products are uninterpreted: x*y = y*x must still be valid
	// (canonical ordering makes both sides identical), and congruence
	// applies.
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	s := New()
	if !s.Valid(fol.Eq(fol.Mul(x, y), fol.Mul(y, x))) {
		t.Error("x*y = y*x should be valid via canonicalization")
	}
	if !s.Valid(fol.Implies(fol.Eq(x, z), fol.Eq(fol.Mul(x, y), fol.Mul(z, y)))) {
		t.Error("x=z → x*y=z*y should be valid via congruence")
	}
	// x*x = 2 is sat in the uninterpreted abstraction (even though it is
	// unsat over the rationals); SPES tolerates this direction.
	checkSat(t, fol.Eq(fol.Mul(x, x), tin.Int(2)), Sat)
}

func TestIffAndDeepNesting(t *testing.T) {
	p, q, r := tin.BoolVar("p"), tin.BoolVar("q"), tin.BoolVar("r")
	s := New()
	// (p <=> q) ∧ (q <=> r) → (p <=> r)
	if !s.Valid(fol.Implies(fol.And(fol.Iff(p, q), fol.Iff(q, r)), fol.Iff(p, r))) {
		t.Error("iff transitivity should be valid")
	}
	// De Morgan.
	if !s.Valid(fol.Iff(fol.Not(fol.And(p, q)), fol.Or(fol.Not(p), fol.Not(q)))) {
		t.Error("de morgan should be valid")
	}
}

// TestDifferentialBruteForce cross-checks the solver against exhaustive
// evaluation of random formulas over small integer domains. A brute-force
// SAT result must never be answered Unsat by the solver (the converse can
// differ: the solver works over rationals).
func TestDifferentialBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	gen := newSolverTermGen(r)
	for iter := 0; iter < 250; iter++ {
		f := gen.boolTerm(3)
		s := New()
		got := s.CheckSat(f)
		if got == Unknown {
			continue
		}
		bruteSat := bruteForceOverInts(t, f, 5) // domain {-2..2}
		if bruteSat && got == Unsat {
			t.Fatalf("iter %d: solver says unsat but %v has an integer model", iter, f)
		}
		// If the solver says Unsat, validity of the negation must hold over
		// the domain as well — checked by the assertion above. If it says
		// Sat we cannot cross-check cheaply (rational witnesses), so only
		// the soundness direction is verified.
	}
}

func bruteForceOverInts(t *testing.T, f *fol.Term, domain int) bool {
	t.Helper()
	vars := fol.Vars(f)
	assign := make(map[string]fol.Value, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			v, err := fol.Eval(f, fol.Interp{Vars: assign})
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			return v.Bool
		}
		vr := vars[i]
		if vr.Sort == fol.SortBool {
			for _, b := range []bool{false, true} {
				assign[vr.Name] = fol.BoolValue(b)
				if rec(i + 1) {
					return true
				}
			}
		} else {
			for d := 0; d < domain; d++ {
				assign[vr.Name] = fol.NumValue(big.NewRat(int64(d-domain/2), 1))
				if rec(i + 1) {
					return true
				}
			}
		}
		delete(assign, vr.Name)
		return false
	}
	return rec(0)
}

// solverTermGen builds random linear formulas (no uninterpreted functions,
// so brute force agrees with the theory).
type solverTermGen struct{ r *rand.Rand }

func newSolverTermGen(r *rand.Rand) *solverTermGen { return &solverTermGen{r} }

func (g *solverTermGen) numTerm(depth int) *fol.Term {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return tin.NumVar([]string{"x", "y", "z"}[g.r.Intn(3)])
		}
		return tin.Int(int64(g.r.Intn(5) - 2))
	}
	a, b := g.numTerm(depth-1), g.numTerm(depth-1)
	switch g.r.Intn(3) {
	case 0:
		return fol.Add(a, b)
	case 1:
		return fol.Sub(a, b)
	default:
		return fol.Mul(tin.Int(int64(g.r.Intn(3)+1)), a)
	}
}

func (g *solverTermGen) boolTerm(depth int) *fol.Term {
	if depth == 0 || g.r.Intn(4) == 0 {
		a, b := g.numTerm(2), g.numTerm(2)
		switch g.r.Intn(3) {
		case 0:
			return fol.Eq(a, b)
		case 1:
			return fol.Le(a, b)
		default:
			return fol.Lt(a, b)
		}
	}
	switch g.r.Intn(4) {
	case 0:
		return fol.And(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 1:
		return fol.Or(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 2:
		return fol.Not(g.boolTerm(depth - 1))
	default:
		return fol.Iff(g.boolTerm(depth-1), g.boolTerm(depth-1))
	}
}

// TestRationalCompletenessOnLinear checks both directions on pure linear
// conjunctions, where rational and integer satisfiability coincide for the
// generated shapes often enough to be a useful smoke signal; we only assert
// agreement when brute force over a wide domain and the solver both commit.
func TestValidImpliesBruteValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gen := newSolverTermGen(r)
	s := New()
	for iter := 0; iter < 120; iter++ {
		f := gen.boolTerm(2)
		if s.Valid(f) {
			// Every integer assignment must satisfy f.
			if bruteForceOverInts(t, fol.Not(f), 7) {
				t.Fatalf("iter %d: Valid(%v) but integer counterexample exists", iter, f)
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	x := tin.NumVar("x")
	s.CheckSat(fol.Lt(x, tin.Int(0)))
	s.CheckSat(fol.And(fol.Lt(x, tin.Int(0)), fol.Gt(x, tin.Int(0))))
	if s.Stats.Queries != 2 {
		t.Errorf("Queries = %d, want 2", s.Stats.Queries)
	}
	if s.Stats.ModelRounds == 0 {
		t.Error("ModelRounds should be positive")
	}
}
