package smt

import (
	"math/rand"
	"testing"

	"spes/internal/fol"
)

// sessionOneShot checks prefix ∧ suffix with a fresh solver, the reference
// for the incremental result.
func sessionOneShot(prefix, suffix *fol.Term) Result {
	return New().CheckSat(fol.And(prefix, suffix))
}

func TestSessionBasic(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	s := New()
	se := s.NewSession()
	se.Push(fol.And(fol.Le(x, y), fol.Le(y, x))) // x = y

	if got := se.CheckSatUnder(fol.Lt(x, y)); got != Unsat {
		t.Errorf("x<y under x=y: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Eq(x, y)); got != Sat {
		t.Errorf("x=y under x=y: %v, want sat", got)
	}
	if got := se.CheckSatUnder(fol.Not(fol.Eq(x, y))); got != Unsat {
		t.Errorf("x≠y under x=y: %v, want unsat", got)
	}
	if s.Stats.Sessions != 1 || s.Stats.SuffixChecks != 3 || s.Stats.PrefixReuse != 2 {
		t.Errorf("stats = %+v, want 1 session, 3 suffix checks, 2 reuses", s.Stats)
	}
}

func TestSessionSuffixIsolation(t *testing.T) {
	// An unsatisfiable suffix must not poison later suffixes: the guard is
	// retired, so the next check sees only the prefix again.
	x := tin.NumVar("x")
	s := New()
	se := s.NewSession()
	se.Push(fol.Le(tin.Int(0), x))

	if got := se.CheckSatUnder(fol.Lt(x, tin.Int(0))); got != Unsat {
		t.Fatalf("x<0 under 0≤x: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Lt(x, tin.Int(1))); got != Sat {
		t.Fatalf("x<1 under 0≤x after an unsat suffix: %v, want sat", got)
	}
	if got := se.CheckSatUnder(fol.Lt(x, tin.Int(0))); got != Unsat {
		t.Fatalf("x<0 re-checked: %v, want unsat", got)
	}
}

func TestSessionUnsatPrefix(t *testing.T) {
	x := tin.NumVar("x")
	s := New()
	se := s.NewSession()
	se.Push(fol.And(fol.Lt(x, tin.Int(0)), fol.Lt(tin.Int(0), x)))
	if got := se.CheckSatUnder(fol.True()); got != Unsat {
		t.Errorf("⊤ under ⊥ prefix: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Eq(x, x)); got != Unsat {
		t.Errorf("x=x under ⊥ prefix: %v, want unsat", got)
	}
}

func TestSessionTruePrefix(t *testing.T) {
	// The empty prefix is the VeriVec hot case: table-scan sub-QPSRs have
	// COND = ASSIGN = ⊤, so every candidate obligation shares one session.
	x, y := tin.NumVar("x"), tin.NumVar("y")
	s := New()
	se := s.NewSession()
	se.Push(fol.True())
	if got := se.CheckSatUnder(fol.And(fol.Lt(x, y), fol.Lt(y, x))); got != Unsat {
		t.Errorf("contradiction under ⊤: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Lt(x, y)); got != Sat {
		t.Errorf("x<y under ⊤: %v, want sat", got)
	}
}

func TestSessionIteSharing(t *testing.T) {
	// An ITE appearing in the prefix and again in suffixes must share one
	// lifted variable and keep its defining constraints in force for every
	// later check.
	x, y := tin.NumVar("x"), tin.NumVar("y")
	ite := fol.Ite(fol.Le(x, y), x, y) // min(x, y)
	s := New()
	se := s.NewSession()
	se.Push(fol.Eq(ite, tin.Int(5)))
	if got := se.CheckSatUnder(fol.Lt(x, tin.Int(5))); got != Unsat {
		t.Errorf("x < 5 with min(x,y)=5: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Eq(ite, tin.Int(5))); got != Sat {
		t.Errorf("re-asserting min(x,y)=5: %v, want sat", got)
	}
	if got := se.CheckSatUnder(fol.Not(fol.Eq(ite, tin.Int(5)))); got != Unsat {
		t.Errorf("min(x,y)≠5 under min(x,y)=5: %v, want unsat", got)
	}
}

func TestSessionEUFSuffixes(t *testing.T) {
	x, y := tin.NumVar("x"), tin.NumVar("y")
	fx := tin.App("f", fol.SortNum, x)
	fy := tin.App("f", fol.SortNum, y)
	s := New()
	se := s.NewSession()
	se.Push(fol.And(fol.Le(x, y), fol.Le(y, x))) // x = y

	if got := se.CheckSatUnder(fol.Not(fol.Eq(fx, fy))); got != Unsat {
		t.Errorf("f(x)≠f(y) under x=y: %v, want unsat", got)
	}
	if got := se.CheckSatUnder(fol.Eq(fx, fy)); got != Sat {
		t.Errorf("f(x)=f(y) under x=y: %v, want sat", got)
	}
	// Re-check the unsat suffix: congruence state from the Sat check must
	// have been rolled back, not frozen in.
	if got := se.CheckSatUnder(fol.Not(fol.Eq(fx, fy))); got != Unsat {
		t.Errorf("f(x)≠f(y) re-checked: %v, want unsat", got)
	}
}

// TestSessionAgainstOneShot fuzzes session verdicts against fresh one-shot
// solves of prefix ∧ suffix over random solver terms.
func TestSessionAgainstOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(1207))
	gen := newSolverTermGen(r)
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		prefix := gen.boolTerm(2)
		s := New()
		se := s.NewSession()
		se.Push(prefix)
		for k := 0; k < 4; k++ {
			suffix := gen.boolTerm(2)
			got := se.CheckSatUnder(suffix)
			want := sessionOneShot(prefix, suffix)
			if got == Unknown || want == Unknown {
				continue
			}
			if got != want {
				t.Fatalf("iter %d suffix %d: session %v, one-shot %v\nprefix: %v\nsuffix: %v",
					iter, k, got, want, prefix, suffix)
			}
		}
	}
}
