package smt

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"spes/internal/fol"
)

// TestSimplexWitnessProperty: on random linear systems, a feasible verdict
// must come with a witness that satisfies every asserted bound, and the
// verdict must be monotone (adding bounds never turns infeasible into
// feasible).
func TestSimplexWitnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for iter := 0; iter < 400; iter++ {
		nVars := 2 + r.Intn(4)
		sx := newSimplex()
		vars := make([]int, nVars)
		for i := range vars {
			vars[i] = sx.newVar()
		}
		type boundRec struct {
			x     int
			row   map[int]rational
			isLow bool
			b     delta
		}
		var bounds []boundRec
		ok := true
		nCons := 1 + r.Intn(6)
		for c := 0; c < nCons && ok; c++ {
			// Random linear combination of 1-3 variables.
			row := map[int]rational{}
			for k := 0; k < 1+r.Intn(3); k++ {
				row[vars[r.Intn(nVars)]] = rat(int64(r.Intn(7)-3), 1)
			}
			nonZero := false
			for _, v := range row {
				if v.sign() != 0 {
					nonZero = true
				}
			}
			if !nonZero {
				continue
			}
			x := sx.defineSlack(entries(row))
			b := dInt(int64(r.Intn(21) - 10))
			if r.Intn(2) == 0 {
				ok = sx.assertLower(x, b, -1)
				bounds = append(bounds, boundRec{x, row, true, b})
			} else {
				ok = sx.assertUpper(x, b, -1)
				bounds = append(bounds, boundRec{x, row, false, b})
			}
		}
		feasible := ok && sx.check()
		if !feasible {
			continue
		}
		// The witness must satisfy every bound.
		for _, br := range bounds {
			val := sx.value(br.x)
			if br.isLow && val.cmp(br.b) < 0 {
				t.Fatalf("iter %d: witness violates lower bound: %v < %v", iter, val, br.b)
			}
			if !br.isLow && val.cmp(br.b) > 0 {
				t.Fatalf("iter %d: witness violates upper bound: %v > %v", iter, val, br.b)
			}
			// And the slack must equal its defining row.
			want := dInt(0)
			for v, c := range br.row {
				want = want.add(sx.value(v).scale(c))
			}
			if want.cmp(val) != 0 {
				t.Fatalf("iter %d: slack value %v != row value %v", iter, val, want)
			}
		}
	}
}

// entries lists a coefficient map as simplex row entries.
func entries(m map[int]rational) []entry {
	var row []entry
	for x, c := range m {
		row = append(row, entry{x, c})
	}
	return row
}

// TestSimplexLargeMagnitudes: random systems with coefficients and bounds
// up to ±2^62, so pivots overflow int64 and promote to big.Rat. A feasible
// verdict's witness must satisfy every bound in exact arithmetic, and an
// infeasible verdict's explanation must name bounds that are infeasible on
// their own.
func TestSimplexLargeMagnitudes(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	draw := func() int64 {
		v := r.Int63n([]int64{4, 1 << 20, 1 << 40, 1 << 62}[r.Intn(4)] + 1)
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	// A constraint bounds Σ row (the variable itself when row has one
	// entry with coefficient 1) from below or above.
	type con struct {
		row   map[int]rational
		isLow bool
		b     delta
	}
	// build asserts cons (tagged by index) on a fresh simplex over nVars
	// variables and returns it with each constraint's bounded variable.
	build := func(nVars int, cons []con) (sx *simplex, at []int, ok bool) {
		sx = newSimplex()
		for i := 0; i < nVars; i++ {
			sx.newVar()
		}
		ok = true
		for tag, c := range cons {
			x := -1
			for v, co := range c.row {
				if len(c.row) == 1 && co.cmp(one) == 0 {
					x = v
				}
			}
			if x < 0 {
				x = sx.defineSlack(entries(c.row))
			}
			at = append(at, x)
			if c.isLow {
				ok = sx.assertLower(x, c.b, tag) && ok
			} else {
				ok = sx.assertUpper(x, c.b, tag) && ok
			}
		}
		return sx, at, ok
	}
	exact := func(d delta) (*big.Rat, *big.Rat) { return d.R.asBig(), d.D.asBig() }
	promoted, infeasible := 0, 0
	for iter := 0; iter < 400; iter++ {
		nVars := 2 + r.Intn(3)
		var cons []con
		for c, nCons := 0, 2+r.Intn(6); c < nCons; c++ {
			row := map[int]rational{}
			if r.Intn(3) == 0 {
				row[r.Intn(nVars)] = one
			} else {
				for k := 0; k < 2+r.Intn(2); k++ {
					if co := draw(); co != 0 {
						row[r.Intn(nVars)] = ratInt(co)
					}
				}
			}
			if len(row) == 0 {
				continue
			}
			b := dInt(draw())
			if r.Intn(3) == 0 {
				b = dStrict(b.R, int64(2*r.Intn(2)-1))
			}
			cons = append(cons, con{row, r.Intn(2) == 0, b})
		}
		sx, at, ok := build(nVars, cons)
		if !ok || !sx.check() {
			infeasible++
			var sub []con
			for _, tag := range sx.conflictWhy {
				if tag < 0 || tag >= len(cons) {
					t.Fatalf("iter %d: explanation %v names no constraint", iter, sx.conflictWhy)
				}
				sub = append(sub, cons[tag])
			}
			if sx2, _, ok2 := build(nVars, sub); ok2 && sx2.check() {
				t.Fatalf("iter %d: explanation %v is satisfiable on its own", iter, sx.conflictWhy)
			}
		} else {
			for i, c := range cons {
				// Σ c·value in big.Rat arithmetic, on both components.
				wantR, wantD := new(big.Rat), new(big.Rat)
				for v, co := range c.row {
					vr, vd := exact(sx.value(v))
					wantR.Add(wantR, new(big.Rat).Mul(vr, co.asBig()))
					wantD.Add(wantD, new(big.Rat).Mul(vd, co.asBig()))
				}
				gotR, gotD := exact(sx.value(at[i]))
				if gotR.Cmp(wantR) != 0 || gotD.Cmp(wantD) != 0 {
					t.Fatalf("iter %d: constraint %d's variable is %v, its row sums to %s+%sδ", iter, i, sx.value(at[i]), wantR.RatString(), wantD.RatString())
				}
				bR, bD := exact(c.b)
				cmp := wantR.Cmp(bR)
				if cmp == 0 {
					cmp = wantD.Cmp(bD)
				}
				if c.isLow && cmp < 0 || !c.isLow && cmp > 0 {
					t.Fatalf("iter %d: witness violates constraint %d: %v vs bound %v", iter, i, sx.value(at[i]), c.b)
				}
			}
		}
		if holdsBig(sx) {
			promoted++
		}
	}
	t.Logf("%d of 400 systems infeasible; %d held a tableau value as a big.Rat", infeasible, promoted)
	if promoted == 0 {
		t.Fatal("no run held a tableau value as a big.Rat: the promotion path never ran")
	}
	if infeasible == 0 || infeasible == 400 {
		t.Fatalf("%d of 400 systems infeasible: the test needs both verdicts", infeasible)
	}
}

// holdsBig reports whether any tableau coefficient or assignment is held
// as a big.Rat.
func holdsBig(sx *simplex) bool {
	for b, row := range sx.rows {
		for _, e := range row {
			if e.c.big != nil {
				return true
			}
		}
		if sx.beta[b].R.big != nil || sx.beta[b].D.big != nil {
			return true
		}
	}
	return false
}

// TestNNFEquivalence: nnf must preserve semantics on random formulas.
func TestNNFEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := newSolverTermGen(rr)
		f := g.boolTerm(3)
		nf := nnf(f, false)
		// Compare under several random assignments.
		for i := 0; i < 8; i++ {
			vars := map[string]fol.Value{}
			for _, v := range fol.Vars(f) {
				if v.Sort == fol.SortBool {
					vars[v.Name] = fol.BoolValue(rr.Intn(2) == 0)
				} else {
					vars[v.Name] = fol.NumValue(big.NewRat(int64(rr.Intn(9)-4), 1))
				}
			}
			// nnf may drop variables (folding); bind the union.
			for _, v := range fol.Vars(nf) {
				if _, ok := vars[v.Name]; !ok {
					vars[v.Name] = fol.NumValue(big.NewRat(0, 1))
				}
			}
			a, err1 := fol.Eval(f, fol.Interp{Vars: vars})
			b, err2 := fol.Eval(nf, fol.Interp{Vars: vars})
			if err1 != nil || err2 != nil || a.Bool != b.Bool {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSplitCasesCoverDisjunction: the case split must preserve
// satisfiability — each case implies the original, and the original implies
// the disjunction of the cases.
func TestSplitCasesCoverDisjunction(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	f := fol.And(
		fol.Or(fol.Eq(x, tin.Int(1)), fol.Eq(x, tin.Int(2))),
		fol.Or(fol.Eq(y, tin.Int(3)), fol.Eq(y, tin.Int(4))),
		fol.Lt(x, y))
	cases := splitCases(f, 64)
	if len(cases) != 4 {
		t.Fatalf("got %d cases, want 4", len(cases))
	}
	s := New()
	// Original sat iff some case sat; here all four are sat.
	for _, c := range cases {
		if s.CheckSat(c) != Sat {
			t.Errorf("case %v should be sat", c)
		}
	}
	// A limit smaller than the expansion leaves disjunctions in place.
	cases = splitCases(f, 2)
	if len(cases) > 2 {
		t.Errorf("limit violated: %d cases", len(cases))
	}
}

// TestSolverAgreesWithAndWithoutSplitting: randomized check that the
// case-split path gives the same verdicts as a non-splitting solve would
// (the splitting is an internal optimization, not a semantics change).
func TestSolverAgreesWithAndWithoutSplitting(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	gen := newSolverTermGen(r)
	_ = gen
	for iter := 0; iter < 150; iter++ {
		f := gen.boolTerm(3)
		s1 := New()
		got := s1.CheckSat(f)
		if got == Unknown {
			continue
		}
		// Force the non-splitting path by checking each case directly: the
		// original must be Sat iff some case is Sat.
		cases := splitCases(nnf(f, false), 64)
		any := false
		for _, c := range cases {
			s2 := New()
			s2.Interner = tin
			if s2.checkOne(s2.liftIte(c)) == Sat {
				any = true
				break
			}
		}
		if any != (got == Sat) {
			t.Fatalf("iter %d: splitting changed the verdict for %v", iter, f)
		}
	}
}

// TestTheoryCheckComponents: variable-disjoint inconsistencies are found no
// matter which component they hide in.
func TestTheoryCheckComponents(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	p, q := tin.NumVar("p"), tin.NumVar("q")
	// Component {x,y} consistent; component {p,q} inconsistent.
	f := fol.And(
		fol.Lt(x, y),
		fol.Lt(p, q),
		fol.Lt(q, p))
	s := New()
	if s.CheckSat(f) != Unsat {
		t.Error("inconsistency in the second component must be detected")
	}
}

// TestConflictExplanationsSound: simplex explanations must identify a
// genuinely inconsistent subset (verified by re-checking just the explained
// literals).
func TestConflictExplanationsSound(t *testing.T) {
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	lits := []theoryLit{
		{atom: fol.Lt(x, y), pos: true},
		{atom: fol.Lt(y, z), pos: true},
		{atom: fol.Lt(z, x), pos: true},            // cycle: inconsistent
		{atom: fol.Le(x, tin.Int(100)), pos: true}, // irrelevant
		{atom: fol.Le(y, tin.Int(100)), pos: true}, // irrelevant
	}
	ok, certain, expl := theoryCheckExplain(newEUF(), lits, 50, newTheoryCache(tin))
	if ok || !certain {
		t.Fatalf("cycle should be inconsistent (ok=%v certain=%v)", ok, certain)
	}
	if expl == nil {
		t.Skip("no explanation produced (acceptable; minimization falls back)")
	}
	sub := make([]theoryLit, 0, len(expl))
	for _, i := range expl {
		sub = append(sub, lits[i])
	}
	subOK, subCertain := theoryCheck(newEUF(), sub, 50, newTheoryCache(tin))
	if subOK || !subCertain {
		t.Errorf("explanation %v is not an inconsistent subset", expl)
	}
}

// TestDeepIteNesting exercises the ITE lifting on nested conditionals.
func TestDeepIteNesting(t *testing.T) {
	x := tin.NumVar("x")
	// clamp(x) = min(max(x, 0), 10), built from nested ITEs.
	clamped := fol.Ite(fol.Lt(x, tin.Int(0)), tin.Int(0),
		fol.Ite(fol.Gt(x, tin.Int(10)), tin.Int(10), x))
	s := New()
	if !s.Valid(fol.And(fol.Ge(clamped, tin.Int(0)), fol.Le(clamped, tin.Int(10)))) {
		t.Error("clamp bounds should be valid")
	}
	if s.Valid(fol.Eq(clamped, x)) {
		t.Error("clamp is not the identity")
	}
	if !s.Valid(fol.Implies(fol.And(fol.Ge(x, tin.Int(0)), fol.Le(x, tin.Int(10))), fol.Eq(clamped, x))) {
		t.Error("clamp is the identity on [0,10]")
	}
}

// TestLargeConjunction exercises scaling on a pure conjunctive formula.
func TestLargeConjunction(t *testing.T) {
	vars := make([]*fol.Term, 40)
	conj := make([]*fol.Term, 0, 41)
	for i := range vars {
		vars[i] = tin.NumVar(varName("v", i))
		if i > 0 {
			conj = append(conj, fol.Lt(vars[i-1], vars[i]))
		}
	}
	s := New()
	if s.CheckSat(fol.And(conj...)) != Sat {
		t.Error("chain should be satisfiable")
	}
	conj = append(conj, fol.Lt(vars[len(vars)-1], vars[0]))
	if s.CheckSat(fol.And(conj...)) != Unsat {
		t.Error("cyclic chain should be unsatisfiable")
	}
}

func varName(p string, i int) string {
	return p + string(rune('a'+i/10)) + string(rune('0'+i%10))
}
