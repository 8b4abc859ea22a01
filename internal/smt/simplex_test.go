package smt

import (
	"math/big"
	"reflect"
	"testing"
)

func rat(a, b int64) rational { return ratOfBig(big.NewRat(a, b)) }

func TestSimplexFeasibleBox(t *testing.T) {
	s := newSimplex()
	x := s.newVar()
	y := s.newVar()
	if !s.assertLower(x, dInt(0), -1) || !s.assertUpper(x, dInt(10), -1) {
		t.Fatal("bounds rejected")
	}
	if !s.assertLower(y, dInt(-5), -1) || !s.assertUpper(y, dInt(5), -1) {
		t.Fatal("bounds rejected")
	}
	if !s.check() {
		t.Fatal("box should be feasible")
	}
}

func TestSimplexBoundConflict(t *testing.T) {
	s := newSimplex()
	x := s.newVar()
	s.assertLower(x, dInt(3), -1)
	if s.assertUpper(x, dInt(2), -1) {
		t.Fatal("conflicting bounds not detected on assert")
	}
	if s.check() {
		t.Fatal("check should fail")
	}
}

func TestSimplexRowInfeasible(t *testing.T) {
	// x + y >= 10, x <= 3, y <= 3 is infeasible.
	s := newSimplex()
	x := s.newVar()
	y := s.newVar()
	sl := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(1, 1)}})
	s.assertLower(sl, dInt(10), -1)
	s.assertUpper(x, dInt(3), -1)
	s.assertUpper(y, dInt(3), -1)
	if s.check() {
		t.Fatal("should be infeasible")
	}
}

func TestSimplexRowFeasibleWitness(t *testing.T) {
	// x + 2y <= 8, x >= 1, y >= 2 is feasible (e.g., x=1, y=2).
	s := newSimplex()
	x := s.newVar()
	y := s.newVar()
	sl := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(2, 1)}})
	s.assertUpper(sl, dInt(8), -1)
	s.assertLower(x, dInt(1), -1)
	s.assertLower(y, dInt(2), -1)
	if !s.check() {
		t.Fatal("should be feasible")
	}
	// The witness must satisfy every constraint.
	vx, vy := s.value(x), s.value(y)
	sum := vx.add(vy.scale(rat(2, 1)))
	if sum.cmp(dInt(8)) > 0 {
		t.Errorf("witness violates x+2y<=8: x=%v y=%v", vx, vy)
	}
	if vx.cmp(dInt(1)) < 0 || vy.cmp(dInt(2)) < 0 {
		t.Errorf("witness violates lower bounds: x=%v y=%v", vx, vy)
	}
}

func TestSimplexStrictBounds(t *testing.T) {
	// x < 5 and x > 4 is feasible over rationals.
	s := newSimplex()
	x := s.newVar()
	s.assertUpper(x, dStrict(rat(5, 1), -1), -1)
	s.assertLower(x, dStrict(rat(4, 1), 1), -1)
	if !s.check() {
		t.Fatal("4 < x < 5 should be feasible over rationals")
	}
	// x < 5 and x > 5 is infeasible.
	s2 := newSimplex()
	y := s2.newVar()
	ok := s2.assertUpper(y, dStrict(rat(5, 1), -1), -1)
	ok = s2.assertLower(y, dStrict(rat(5, 1), 1), -1) && ok
	if ok && s2.check() {
		t.Fatal("x<5 ∧ x>5 should be infeasible")
	}
	// x <= 5 and x >= 5 forces x = 5.
	s3 := newSimplex()
	z := s3.newVar()
	s3.assertUpper(z, dInt(5), -1)
	s3.assertLower(z, dInt(5), -1)
	if !s3.check() {
		t.Fatal("x=5 should be feasible")
	}
	if s3.value(z).cmp(dInt(5)) != 0 {
		t.Errorf("z = %v, want 5", s3.value(z))
	}
}

func TestSimplexStrictVsWeakConflict(t *testing.T) {
	// x < 5 ∧ x >= 5 infeasible; caught only via delta ordering.
	s := newSimplex()
	x := s.newVar()
	ok := s.assertUpper(x, dStrict(rat(5, 1), -1), -1)
	ok = s.assertLower(x, dInt(5), -1) && ok
	if ok && s.check() {
		t.Fatal("x<5 ∧ x>=5 should be infeasible")
	}
}

func TestSimplexChainedEqualities(t *testing.T) {
	// x = y, y = z, x >= 1, z <= 0 is infeasible.
	s := newSimplex()
	x, y, z := s.newVar(), s.newVar(), s.newVar()
	d1 := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(-1, 1)}})
	s.assertLower(d1, dInt(0), -1)
	s.assertUpper(d1, dInt(0), -1)
	d2 := s.defineSlack([]entry{{y, rat(1, 1)}, {z, rat(-1, 1)}})
	s.assertLower(d2, dInt(0), -1)
	s.assertUpper(d2, dInt(0), -1)
	s.assertLower(x, dInt(1), -1)
	s.assertUpper(z, dInt(0), -1)
	if s.check() {
		t.Fatal("should be infeasible")
	}
}

func TestSimplexProbeZero(t *testing.T) {
	// With x = y asserted, x - y = 0 is entailed; with only x <= y it is not.
	s := newSimplex()
	x, y := s.newVar(), s.newVar()
	d := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(-1, 1)}})
	s.assertLower(d, dInt(0), -1)
	s.assertUpper(d, dInt(0), -1)
	if !s.check() {
		t.Fatal("feasible expected")
	}
	if !s.probeZero([]entry{{x, rat(1, 1)}, {y, rat(-1, 1)}}, rational{}) {
		t.Error("x=y should be entailed")
	}

	s2 := newSimplex()
	a, b := s2.newVar(), s2.newVar()
	d2 := s2.defineSlack([]entry{{a, rat(1, 1)}, {b, rat(-1, 1)}})
	s2.assertUpper(d2, dInt(0), -1) // a <= b only
	if !s2.check() {
		t.Fatal("feasible expected")
	}
	if s2.probeZero([]entry{{a, rat(1, 1)}, {b, rat(-1, 1)}}, rational{}) {
		t.Error("a=b should not be entailed by a<=b")
	}
}

func TestSimplexProbeZeroSandwich(t *testing.T) {
	// x <= y ∧ y <= x entails x - y = 0 even without an equality row.
	s := newSimplex()
	x, y := s.newVar(), s.newVar()
	d1 := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(-1, 1)}})
	s.assertUpper(d1, dInt(0), -1)
	d2 := s.defineSlack([]entry{{y, rat(1, 1)}, {x, rat(-1, 1)}})
	s.assertUpper(d2, dInt(0), -1)
	if !s.check() {
		t.Fatal("feasible expected")
	}
	if !s.probeZero([]entry{{x, rat(1, 1)}, {y, rat(-1, 1)}}, rational{}) {
		t.Error("x=y should be entailed by the sandwich")
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A system requiring several pivots: classic cycling-prone setup, which
	// Bland's rule must terminate on.
	s := newSimplex()
	x1, x2, x3 := s.newVar(), s.newVar(), s.newVar()
	r1 := s.defineSlack([]entry{{x1, rat(1, 1)}, {x2, rat(1, 1)}, {x3, rat(1, 1)}})
	r2 := s.defineSlack([]entry{{x1, rat(1, 1)}, {x2, rat(-1, 1)}})
	r3 := s.defineSlack([]entry{{x2, rat(1, 1)}, {x3, rat(-1, 1)}})
	s.assertLower(r1, dInt(1), -1)
	s.assertUpper(r1, dInt(1), -1)
	s.assertLower(r2, dInt(0), -1)
	s.assertUpper(r2, dInt(0), -1)
	s.assertLower(r3, dInt(0), -1)
	s.assertUpper(r3, dInt(0), -1)
	if !s.check() {
		t.Fatal("x1=x2=x3=1/3 should be found")
	}
	third := delta{R: rat(1, 3)}
	for _, v := range []int{x1, x2, x3} {
		if s.value(v).cmp(third) != 0 {
			t.Errorf("var %d = %v, want 1/3", v, s.value(v))
		}
	}
}

func TestDeltaArithmetic(t *testing.T) {
	a := dStrict(rat(1, 1), -1) // 1 - δ
	b := dInt(1)
	if a.cmp(b) >= 0 {
		t.Error("1-δ should be < 1")
	}
	c := a.add(dStrict(rat(0, 1), 1)) // 1 - δ + δ = 1
	if c.cmp(b) != 0 {
		t.Errorf("1-δ+δ = %v, want 1", c)
	}
	d := a.scale(rat(-2, 1)) // -2 + 2δ
	if d.R.cmp(rat(-2, 1)) != 0 || d.D.cmp(rat(2, 1)) != 0 {
		t.Errorf("scale: got %v", d)
	}
	if got := a.sub(b); got.R.sign() != 0 || got.D.cmp(rat(-1, 1)) != 0 {
		t.Errorf("sub: got %v", got)
	}
}

// TestSimplexExplanationDeterministic pins that a stuck row explains its
// conflict in the same order every time: the order carries into core
// minimization, and from there into blocking clauses and the lemmas the
// durable store writes.
func TestSimplexExplanationDeterministic(t *testing.T) {
	explain := func() []int {
		// x0 + ... + x5 >= 100 with every xi <= 3 is infeasible; the
		// explanation is the slack's lower bound plus all six upper bounds.
		s := newSimplex()
		var coeffs []entry
		for i := 0; i < 6; i++ {
			x := s.newVar()
			coeffs = append(coeffs, entry{x, rat(1, 1)})
			s.assertUpper(x, dInt(3), 10+i)
		}
		sl := s.defineSlack(coeffs)
		s.assertLower(sl, dInt(100), 1)
		if s.check() {
			t.Fatal("should be infeasible")
		}
		return s.conflictWhy
	}
	want := explain()
	if len(want) != 7 {
		t.Fatalf("explanation %v, want the slack bound and six upper bounds", want)
	}
	for i := 0; i < 50; i++ {
		if got := explain(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuild %d explained the conflict as %v, the first build as %v", i+1, got, want)
		}
	}
}

// TestSimplexCheckAllocFree pins the allocation-free kernel: once a tableau
// with small coefficients is built and its rows have grown to their working
// size, a check that pivots allocates nothing.
func TestSimplexCheckAllocFree(t *testing.T) {
	s := newSimplex()
	x, y, z := s.newVar(), s.newVar(), s.newVar()
	s1 := s.defineSlack([]entry{{x, rat(1, 1)}, {y, rat(2, 1)}, {z, rat(-1, 1)}})
	s2 := s.defineSlack([]entry{{x, rat(3, 1)}, {y, rat(-1, 1)}})
	s.defineSlack([]entry{{y, rat(1, 2)}, {z, rat(1, 1)}})
	for _, v := range []int{x, y, z} {
		s.assertLower(v, dInt(-10), -1)
		s.assertUpper(v, dInt(10), -1)
	}
	s.assertLower(s2, dInt(-4), -1)
	s.assertUpper(s2, dInt(4), -1)
	// Each run moves s1's window to the other side of its current value:
	// 3 ≤ s1 ≤ 5, then -5 ≤ s1 < -3. Bounds may only change on a basic
	// variable, so s1 is pivoted back into the basis first.
	high := false
	run := func() {
		high = !high
		lo, hi := dInt(-5), dStrict(ratInt(-3), -1)
		if high {
			lo, hi = dInt(3), dInt(5)
		}
		if !s.isBasic[s1] {
			s.pivotIn(s1)
		}
		s.lower[s1] = bound{val: lo, why: -1, set: true}
		s.upper[s1] = bound{val: hi, why: -1, set: true}
		if s.findViolating() == -1 {
			t.Fatal("no basic variable is out of bounds, so the check would not pivot")
		}
		if !s.check() {
			t.Fatal("the window is feasible")
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("check allocated %v times per run, want 0", allocs)
	}
}
