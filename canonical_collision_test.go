package spes

import (
	"context"
	"testing"

	"spes/internal/corpus"
	"spes/internal/engine"
	"spes/internal/plan"
)

// collisionPairs differ only where an unescaped canonical form collapsed
// them: a string constant holding quotes and spaces against two
// constants, and a quoted function name holding a space and "$1" against
// a two-argument call. Neither pair is equivalent.
var collisionPairs = []BatchPair{
	{
		ID:   "quoted-string",
		SQL1: "SELECT E.ENAME FROM EMP E WHERE E.ENAME = LOWER('A', 'B')",
		SQL2: "SELECT E.ENAME FROM EMP E WHERE E.ENAME = LOWER('A'' ''B')",
	},
	{
		ID:   "quoted-name",
		SQL1: `SELECT E.ENAME FROM EMP E WHERE E.ENAME = "F $1"(E.ENAME)`,
		SQL2: "SELECT E.ENAME FROM EMP E WHERE E.ENAME = F(E.ENAME, E.ENAME)",
	},
}

// TestCanonicalCollisionVerdicts is the regression test for plan keys that
// were not injective: every memo layer confirms a hit by the canonical
// key, so two different plans sharing one key shared one verdict. The
// persistent engine and VerifyBatch answered "equivalent" for these
// pairs while the uncached paths answered "not-proved". Now each pair's
// plans render differently, and every path agrees with the uncached one.
func TestCanonicalCollisionVerdicts(t *testing.T) {
	cat := corpus.Catalog()
	uncached, _ := VerifyBatch(cat, collisionPairs, BatchOptions{DisableCaching: true})
	cached, _ := VerifyBatch(cat, collisionPairs, BatchOptions{})
	eng := engine.NewEngine(cat, engine.Options{})
	for i, p := range collisionPairs {
		q1, err1 := BuildPlan(cat, p.SQL1)
		q2, err2 := BuildPlan(cat, p.SQL2)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: build: %v, %v", p.ID, err1, err2)
		}
		if plan.Key(q1) == plan.Key(q2) {
			t.Errorf("%s: different plans share the canonical key %s", p.ID, plan.Key(q1))
		}
		want := uncached[i].Verdict
		if want == Equivalent {
			t.Fatalf("%s: the uncached batch proved a non-equivalent pair", p.ID)
		}
		if got := cached[i].Verdict; got != want {
			t.Errorf("%s: VerifyBatch = %v, with DisableCaching %v", p.ID, got, want)
		}
		if got := Verdict(eng.VerifyPair(context.Background(), p).Verdict); got != want {
			t.Errorf("%s: Engine.VerifyPair = %v, with DisableCaching %v", p.ID, got, want)
		}
		res, err := VerifyWithOptions(cat, p.SQL1, p.SQL2, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if res.Verdict != want {
			t.Errorf("%s: VerifyWithOptions = %v, with DisableCaching %v", p.ID, res.Verdict, want)
		}
	}
}
