package verify

import (
	"math/rand"
	"testing"

	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/plan"
)

// Differential verdict parity: a verdict must not depend on the interner a
// Verifier builds in, because interning only merges structurally identical
// terms. For every pair this harness builds, a Verifier on a fresh private
// interner and one on an interner shared across the whole run — the
// engine's production setup, whose DAG is warm with earlier pairs' terms
// and whose IDs those terms have shifted — must return identical Outcomes:
// both the Cardinal and the Full bit. The pairs reuse the random_test
// generators (the same qdesc distribution, preserving rewrites, and
// breaking perturbations as TestRandomizedSoundness) so the comparison
// covers proved, cardinal-only, and unproved verdicts alike.

// checkBothInterners verifies one plan pair on a fresh interner and on
// shared, and fails the test if the Outcomes differ.
func checkBothInterners(t *testing.T, shared *fol.Interner, label, sql1, sql2 string) {
	t.Helper()
	b := plan.NewBuilder(testCatalog(t))
	q1, err := b.BuildSQL(sql1)
	if err != nil {
		t.Fatalf("build %q: %v", sql1, err)
	}
	q2, err := b.BuildSQL(sql2)
	if err != nil {
		t.Fatalf("build %q: %v", sql2, err)
	}
	nz := normalize.New(normalize.Options{})
	q1, q2 = nz.Normalize(q1), nz.Normalize(q2)

	fresh := NewWithConfig(Config{})
	warm := NewWithConfig(Config{Interner: shared})
	if fresh.in == shared || warm.in != shared {
		t.Fatal("Config.Interner does not select the Verifier's interner")
	}
	got := fresh.Check(q1, q2)
	want := warm.Check(q1, q2)
	if got != want {
		t.Fatalf("%s: verdict divergence between a fresh and a shared interner\nsql1: %s\nsql2: %s\nfresh:  %+v\nshared: %+v",
			label, sql1, sql2, got, want)
	}
}

// TestDifferentialVerdictParity drives the randomized soundness
// distribution through both interners: self-pairs (always proved),
// preserving rewrites (usually proved), and breaking perturbations
// (usually not proved).
func TestDifferentialVerdictParity(t *testing.T) {
	r := rand.New(rand.NewSource(20220701))
	iterations := 60
	if testing.Short() {
		iterations = 15
	}
	shared := fol.NewInterner()
	for i := 0; i < iterations; i++ {
		q := randQuery(r)
		sql := q.sql()
		checkBothInterners(t, shared, "self", sql, sql)
		checkBothInterners(t, shared, "rewrite", sql, preservingRewrite(q, r))
		checkBothInterners(t, shared, "perturbed", sql, breakingPerturbation(q, r))
	}
}

// TestDifferentialVerdictParityCrossPairs pairs unrelated random queries,
// exercising the not-proved and coincidentally-equivalent regions of the
// verdict space on both interners.
func TestDifferentialVerdictParityCrossPairs(t *testing.T) {
	r := rand.New(rand.NewSource(314159))
	iterations := 40
	if testing.Short() {
		iterations = 10
	}
	shared := fol.NewInterner()
	for i := 0; i < iterations; i++ {
		a := randQuery(r)
		b := randQuery(r)
		checkBothInterners(t, shared, "cross", a.sql(), b.sql())
	}
}
