package smt

import (
	"testing"

	"spes/internal/fol"
)

func TestEUFTransitivity(t *testing.T) {
	e := newEUF()
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	e.assertEq(x, y)
	e.assertEq(y, z)
	if !e.equal(x, z) {
		t.Error("x = z should follow from x=y, y=z")
	}
	if e.conflict {
		t.Error("no conflict expected")
	}
}

func TestEUFCongruence(t *testing.T) {
	e := newEUF()
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	e.node(fx)
	e.node(fy)
	if e.equal(fx, fy) {
		t.Fatal("f(x) and f(y) should start distinct")
	}
	e.assertEq(x, y)
	if !e.equal(fx, fy) {
		t.Error("congruence should merge f(x) and f(y)")
	}
}

func TestEUFNestedCongruence(t *testing.T) {
	e := newEUF()
	x, y := tin.NumVar("x"), tin.NumVar("y")
	ffx := tin.App("f", fol.SortNum, tin.App("f", fol.SortNum, x))
	ffy := tin.App("f", fol.SortNum, tin.App("f", fol.SortNum, y))
	e.node(ffx)
	e.node(ffy)
	e.assertEq(x, y)
	if !e.equal(ffx, ffy) {
		t.Error("congruence should propagate through nesting")
	}
}

func TestEUFDiseqConflict(t *testing.T) {
	e := newEUF()
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	e.assertDiseq(x, z)
	e.assertEq(x, y)
	if e.conflict {
		t.Fatal("no conflict yet")
	}
	e.assertEq(y, z)
	if !e.conflict {
		t.Error("x=y, y=z, x≠z should conflict")
	}
}

func TestEUFCongruenceDiseqConflict(t *testing.T) {
	// f(x) ≠ f(y) ∧ x = y is inconsistent.
	e := newEUF()
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	e.assertDiseq(fx, fy)
	e.assertEq(x, y)
	if !e.conflict {
		t.Error("f(x)≠f(y) ∧ x=y should conflict")
	}
}

func TestEUFConstantConflict(t *testing.T) {
	e := newEUF()
	x := tin.NumVar("x")
	e.assertEq(x, tin.Int(1))
	if e.conflict {
		t.Fatal("no conflict yet")
	}
	e.assertEq(x, tin.Int(2))
	if !e.conflict {
		t.Error("x=1 ∧ x=2 should conflict")
	}
}

func TestEUFBoolConstants(t *testing.T) {
	// p(x) = true ∧ p(y) = false ∧ x = y conflicts.
	e := newEUF()
	x, y := tin.NumVar("x"), tin.NumVar("y")
	px := tin.App("p", fol.SortBool, x)
	py := tin.App("p", fol.SortBool, y)
	e.assertEq(px, fol.True())
	e.assertEq(py, fol.False())
	if e.conflict {
		t.Fatal("no conflict yet")
	}
	e.assertEq(x, y)
	if !e.conflict {
		t.Error("p(x) ∧ ¬p(y) ∧ x=y should conflict")
	}
}

func TestEUFArithHeadsAreFunctions(t *testing.T) {
	// x = y should merge x+1 and y+1 (the + head is uninterpreted here but
	// congruent).
	e := newEUF()
	x, y := tin.NumVar("x"), tin.NumVar("y")
	x1 := fol.Add(x, tin.Int(1))
	y1 := fol.Add(y, tin.Int(1))
	e.node(x1)
	e.node(y1)
	e.assertEq(x, y)
	if !e.equal(x1, y1) {
		t.Error("x=y should merge x+1 and y+1 by congruence")
	}
}

func TestEUFArgPairs(t *testing.T) {
	e := newEUF()
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	e.node(tin.App("f", fol.SortNum, x))
	e.node(tin.App("f", fol.SortNum, y))
	e.node(tin.App("g", fol.SortNum, z))
	pairs := e.argPairs()
	if len(pairs) != 1 {
		t.Fatalf("got %d candidate pairs, want 1 (x,y): %v", len(pairs), pairs)
	}
	t1, t2 := e.term(pairs[0][0]), e.term(pairs[0][1])
	names := map[string]bool{t1.Name: true, t2.Name: true}
	if !names["x"] || !names["y"] {
		t.Errorf("candidate pair should be {x,y}, got {%v,%v}", t1, t2)
	}
	// After merging, no candidates remain.
	e.assertEq(x, y)
	if got := e.argPairs(); len(got) != 0 {
		t.Errorf("after merge, got %d pairs, want 0", len(got))
	}
}
