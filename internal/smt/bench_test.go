package smt

import (
	"math/big"
	"testing"

	"spes/internal/fol"
)

// Component microbenchmarks for the solver stack (EXPERIMENTS.md's
// "solver-component microbenchmarks").

func BenchmarkSimplexChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sx := newSimplex()
		const n = 20
		vars := make([]int, n)
		for k := range vars {
			vars[k] = sx.newVar()
		}
		for k := 1; k < n; k++ {
			d := sx.defineSlack(map[int]*big.Rat{
				vars[k]:   big.NewRat(1, 1),
				vars[k-1]: big.NewRat(-1, 1),
			})
			sx.assertLower(d, dInt(1), -1) // x[k] >= x[k-1] + 1
		}
		sx.assertUpper(vars[n-1], dInt(100), -1)
		sx.assertLower(vars[0], dInt(0), -1)
		if !sx.check() {
			b.Fatal("chain should be feasible")
		}
	}
}

func BenchmarkCongruenceClosure(b *testing.B) {
	x := make([]*fol.Term, 30)
	f := make([]*fol.Term, 30)
	for i := range x {
		x[i] = tin.NumVar(varName("x", i))
		f[i] = tin.App("f", fol.SortNum, x[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEUF()
		for k := range f {
			e.node(f[k])
		}
		// Chain of equalities merges everything; congruence follows.
		for k := 1; k < len(x); k++ {
			e.assertEq(x[k-1], x[k])
		}
		if !e.equal(f[0], f[len(f)-1]) || e.conflict {
			b.Fatal("congruence chain broken")
		}
	}
}

func BenchmarkValidityLinear(b *testing.B) {
	x, y, z := tin.NumVar("x"), tin.NumVar("y"), tin.NumVar("z")
	obligation := fol.Implies(
		fol.And(fol.Lt(x, y), fol.Lt(y, z), fol.Ge(x, tin.Int(0))),
		fol.Gt(z, tin.Int(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if !s.Valid(obligation) {
			b.Fatal("should be valid")
		}
	}
}

func BenchmarkValidityWithUF(b *testing.B) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	obligation := fol.Implies(fol.And(fol.Le(x, y), fol.Le(y, x)), fol.Eq(fx, fy))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if !s.Valid(obligation) {
			b.Fatal("should be valid")
		}
	}
}

func BenchmarkDisjunctiveObligation(b *testing.B) {
	// The union-shaped formulas the case splitter targets.
	mk := func(tag string) *fol.Term {
		u := tin.NumVar("u" + tag)
		a := tin.NumVar("a" + tag)
		c := tin.NumVar("c" + tag)
		return fol.Or(
			fol.And(fol.Eq(u, a), fol.Gt(a, tin.Int(0))),
			fol.And(fol.Eq(u, c), fol.Le(c, tin.Int(0))))
	}
	u1, u2 := tin.NumVar("u1"), tin.NumVar("u2")
	obligation := fol.Implies(
		fol.And(mk("1"), mk("2"), fol.Eq(tin.NumVar("a1"), tin.NumVar("a2")),
			fol.Eq(tin.NumVar("c1"), tin.NumVar("c2")),
			fol.Eq(u1, tin.NumVar("u1")), fol.Eq(u2, tin.NumVar("u2"))),
		fol.True())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if !s.Valid(obligation) {
			b.Fatal("trivially valid")
		}
	}
}
