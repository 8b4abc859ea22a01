package engine

import (
	"bytes"
	"context"
	"testing"

	"spes/internal/corpus"
	"spes/internal/store"
)

// refutablePairs is a small batch mixing refutable, provable, and
// unprovable pairs against the corpus catalog.
func refutablePairs() []Pair {
	return []Pair{
		{ID: "neq-boundary", SQL1: "SELECT SALARY FROM EMP WHERE SALARY > 10", SQL2: "SELECT SALARY FROM EMP WHERE SALARY >= 10"},
		{ID: "neq-distinct", SQL1: "SELECT LOCATION FROM EMP", SQL2: "SELECT DISTINCT LOCATION FROM EMP"},
		{ID: "eq", SQL1: "SELECT SALARY FROM EMP WHERE SALARY > 10", SQL2: "SELECT SALARY FROM EMP WHERE 10 < SALARY"},
	}
}

// TestBatchRefutation pins the engine-level three-valued contract: with a
// budget, inequivalent pairs come back Refuted with replayable witnesses,
// the Refuted stat counts them, and proved pairs carry no witness.
func TestBatchRefutation(t *testing.T) {
	cat := corpus.Catalog()
	results, stats := VerifyBatch(cat, refutablePairs(), Options{Workers: 2, RefuteBudget: 64})
	if stats.Refuted != 2 {
		t.Fatalf("stats.Refuted = %d, want 2 (%+v)", stats.Refuted, stats)
	}
	eng := NewEngine(cat, Options{})
	for _, r := range results {
		switch r.ID {
		case "neq-boundary", "neq-distinct":
			if r.Verdict != Refuted || r.Witness == nil {
				t.Fatalf("pair %s: want Refuted with witness, got %v (witness %v)", r.ID, r.Verdict, r.Witness)
			}
		case "eq":
			if r.Verdict != Equivalent || r.Witness != nil {
				t.Fatalf("pair %s: want Equivalent without witness, got %v", r.ID, r.Verdict)
			}
		}
	}
	for _, p := range refutablePairs()[:2] {
		q1, err1 := eng.BuildSQL(p.SQL1)
		q2, err2 := eng.BuildSQL(p.SQL2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, r := range results {
			if r.ID == p.ID {
				if err := r.Witness.Replay(q1, q2); err != nil {
					t.Fatalf("pair %s: witness does not replay: %v", p.ID, err)
				}
			}
		}
	}
}

// TestWitnessWarmRestart pins witness durability: a cold engine refutes and
// persists witnesses; after a simulated restart (store closed, reopened,
// crash-recovery scan run) a warm engine answers the same pairs with
// byte-identical witnesses served from the store — confirmed by replay, and
// visible as WitnessHits instead of fresh search rounds. A pair whose
// search exhausts its budget is answered warm from its exhausted-search
// record, also without a round.
func TestWitnessWarmRestart(t *testing.T) {
	cat := corpus.Catalog()
	// datagen draws integers from [0, 16), so no generated database
	// separates SALARY > 100 from SALARY > 200.
	pairs := append(refutablePairs(), Pair{ID: "exhausted",
		SQL1: "SELECT EMP_ID FROM EMP WHERE SALARY > 100", SQL2: "SELECT EMP_ID FROM EMP WHERE SALARY > 200"})
	dir := t.TempDir()

	st1, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(cat, Options{Workers: 2, Store: st1, RefuteBudget: 64})
	coldRes, coldStats := cold.VerifyBatch(context.Background(), pairs, 2)
	if coldStats.Refuted != 2 {
		t.Fatalf("cold run refuted %d pairs, want 2", coldStats.Refuted)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewEngine(cat, Options{Workers: 2, Store: st2, RefuteBudget: 64})
	warmRes, warmStats := warm.VerifyBatch(context.Background(), pairs, 2)
	if warmStats.Refuted != 2 {
		t.Fatalf("warm run refuted %d pairs, want 2", warmStats.Refuted)
	}
	if coldStats.RefuteExhaustedHits != 0 || warmStats.RefuteExhaustedHits != 1 {
		t.Errorf("exhausted hits: cold %d, warm %d; want 0 and 1", coldStats.RefuteExhaustedHits, warmStats.RefuteExhaustedHits)
	}
	var witnessHits, warmRounds int
	for i := range pairs {
		if coldRes[i].Verdict != warmRes[i].Verdict {
			t.Errorf("pair %s: verdict %v cold, %v after warm restart", pairs[i].ID, coldRes[i].Verdict, warmRes[i].Verdict)
		}
		witnessHits += warmRes[i].Stats.WitnessHits
		warmRounds += warmRes[i].Stats.RefuteRounds
		if coldRes[i].Witness == nil {
			continue
		}
		cw, err1 := coldRes[i].Witness.Encode()
		ww, err2 := warmRes[i].Witness.Encode()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(cw, ww) {
			t.Errorf("pair %s: witness changed across restart\ncold: %s\nwarm: %s", pairs[i].ID, cw, ww)
		}
	}
	if witnessHits == 0 {
		t.Errorf("warm restart served no witness from the store: %+v", warmStats)
	}
	if warmRounds != 0 {
		t.Errorf("warm restart searched %d rounds, want 0", warmRounds)
	}
}
