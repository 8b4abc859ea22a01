package spes

import (
	"math/rand"
	"testing"

	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/refute"
	"spes/internal/verify"
)

// TestPipelineFuzzDifferential replays the whole-pipeline fuzz
// distribution (same generator and seed as TestPipelineFuzz) through a
// Verifier on a fresh private interner and one on an interner shared
// across the whole run — the engine's production setup, with a DAG warm
// from earlier pairs and IDs shifted by them. Which interner a term lives
// in is a representation detail only, so the Outcomes must match exactly
// on every pair — including the unproved ones, where divergence would hint
// that term IDs perturbed the solver's search rather than its answers.
func TestPipelineFuzzDifferential(t *testing.T) {
	cat, err := ParseCatalog(fuzzDDL)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(314159))
	g := &fuzzGen{r: r}
	iterations := 60
	if testing.Short() {
		iterations = 15
	}
	nz := normalize.New(normalize.Options{})
	shared := fol.NewInterner()
	for iter := 0; iter < iterations; iter++ {
		sql1 := g.query(2)
		sql2 := g.query(2)
		q1, err := BuildPlan(cat, sql1)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := BuildPlan(cat, sql2)
		if err != nil {
			t.Fatal(err)
		}
		n1, n2 := nz.Normalize(q1), nz.Normalize(q2)

		fresh := verify.NewWithConfig(verify.Config{}).Check(n1, n2)
		warm := verify.NewWithConfig(verify.Config{Interner: shared}).Check(n1, n2)
		if fresh != warm {
			t.Fatalf("verdict divergence between a fresh and a shared interner\n%s\n%s\nfresh:  %+v\nshared: %+v",
				sql1, sql2, fresh, warm)
		}

		// Self-pairs must be proved on the shared interner, not merely agree.
		self := verify.NewWithConfig(verify.Config{Interner: shared}).Check(n1, n1)
		if !self.Full {
			t.Fatalf("shared interner failed to prove self-equivalence: %s", sql1)
		}
	}
}

// TestRefutationDifferential is the acceptance check for the three-valued
// verdict pipeline, run over the whole-pipeline fuzz distribution with the
// refutation pass armed:
//
//   - every Refuted verdict must carry a witness, and the witness must
//     replay — executing both plans over it through internal/exec must
//     reproduce the recorded, differing output bags;
//   - no Equivalent verdict may be refutable: the same bounded search that
//     backs Refuted must come up empty on every proved pair. The symbolic
//     prover and the concrete executor audit each other — a hit here is a
//     soundness bug in one of them.
func TestRefutationDifferential(t *testing.T) {
	cat, err := ParseCatalog(fuzzDDL)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(271828))
	g := &fuzzGen{r: r}
	iterations := 50
	if testing.Short() {
		iterations = 12
	}
	var refuted, equivalent int
	for iter := 0; iter < iterations; iter++ {
		sql1, sql2 := g.query(2), g.query(2)
		q1, err := BuildPlan(cat, sql1)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := BuildPlan(cat, sql2)
		if err != nil {
			t.Fatal(err)
		}
		res := VerifyPlans(q1, q2, Options{RefuteBudget: 32})
		switch res.Verdict {
		case Refuted:
			refuted++
			if res.Witness == nil {
				t.Fatalf("Refuted without a witness\n%s\n%s", sql1, sql2)
			}
			// Replay against the raw plans: the witness was found on the
			// normalized pair, so this also re-checks that normalization
			// preserved semantics on this concrete database.
			if err := res.Witness.Replay(q1, q2); err != nil {
				t.Fatalf("witness does not replay: %v\n%s\n%s\n%s", err, sql1, sql2, res.Witness)
			}
		case Equivalent:
			if res.Witness != nil {
				t.Fatalf("Equivalent verdict carries a witness\n%s\n%s", sql1, sql2)
			}
		}
		// Random pairs are almost never equivalent, so the cross-check arm
		// gets its guaranteed-provable pair from each query against itself:
		// proved Equivalent, then handed to the same bounded search that
		// backs Refuted, which must come up empty.
		self := VerifyPlans(q1, q1, Options{RefuteBudget: 32})
		if self.Verdict != Equivalent {
			t.Fatalf("self-pair not proved: %s\n%s", self.Verdict, sql1)
		}
		equivalent++
		nz := normalize.New(normalize.Options{})
		if w, _ := refute.Search(nz.Normalize(q1), nz.Normalize(q1), refute.Options{Budget: 32}); w != nil {
			t.Fatalf("SOUNDNESS VIOLATION: proved equivalent but refutable\n%s\n%s", sql1, w)
		}
	}
	// The fuzz distribution must actually exercise both interesting arms.
	if refuted == 0 {
		t.Error("sanity: fuzz run refuted nothing; the refutation arm was not exercised")
	}
	if equivalent == 0 {
		t.Error("sanity: fuzz run proved nothing; the cross-check arm was not exercised")
	}
}
