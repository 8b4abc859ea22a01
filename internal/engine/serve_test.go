package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"spes/internal/corpus"
)

// eqPair is a FilterMerge rewrite the prover handles quickly.
var eqPair = Pair{
	ID:   "eq",
	SQL1: "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
	SQL2: "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5",
}

func TestEngineCrossRequestCacheReuse(t *testing.T) {
	e := NewEngine(corpus.Catalog(), Options{})
	r1 := e.VerifyPair(context.Background(), eqPair)
	if r1.Verdict != Equivalent {
		t.Fatalf("first verification: got %v, want equivalent", r1.Verdict)
	}
	if r1.Stats.ObligationMiss == 0 {
		t.Fatalf("first verification should miss a cold cache at least once: %+v", r1.Stats)
	}
	r2 := e.VerifyPair(context.Background(), eqPair)
	if r2.Verdict != Equivalent {
		t.Fatalf("second verification: got %v, want equivalent", r2.Verdict)
	}
	if r2.Stats.ObligationMiss != 0 {
		t.Errorf("second verification of the same pair should answer every obligation from the persistent cache: %+v", r2.Stats)
	}
	if r2.Stats.ObligationHits == 0 {
		t.Errorf("second verification missed the persistent obligation cache: %+v", r2.Stats)
	}
	st := e.Stats()
	if st.Pairs != 2 || st.Equivalent != 2 {
		t.Errorf("engine stats = %+v, want 2 pairs / 2 equivalent", st)
	}
	if st.NormHits == 0 {
		t.Errorf("second verification should hit the normalization memo: %+v", st)
	}
}

func TestEngineCancelledContextNeverProves(t *testing.T) {
	e := NewEngine(corpus.Catalog(), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := e.VerifyPair(ctx, eqPair)
	if r.Verdict == Equivalent {
		t.Fatalf("cancelled verification returned Equivalent")
	}
	if !r.Cancelled {
		t.Errorf("result not marked cancelled: %+v", r)
	}
	st := e.Stats()
	if st.Cancelled != 1 {
		t.Errorf("engine stats cancelled = %d, want 1", st.Cancelled)
	}
}

func TestVerifyBatchContextCancelledMidBatch(t *testing.T) {
	pairs := make([]Pair, 16)
	for i := range pairs {
		pairs[i] = Pair{ID: eqPair.ID, SQL1: eqPair.SQL1, SQL2: eqPair.SQL2}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := VerifyBatchContext(ctx, corpus.Catalog(), pairs, Options{Workers: 4})
	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	for i, r := range results {
		if r.Verdict == Equivalent {
			t.Errorf("pair %d: cancelled batch produced Equivalent", i)
		}
	}
	if stats.Cancelled == 0 {
		t.Errorf("stats.Cancelled = 0, want > 0: %+v", stats)
	}
}

// TestSnapshotConsistentUnderLoad hammers Stats() from many goroutines
// while a batch runs; the race detector proves there are no torn reads,
// and the final snapshot must agree with the batch's aggregate.
func TestSnapshotConsistentUnderLoad(t *testing.T) {
	e := NewEngine(corpus.Catalog(), Options{})
	pairs := make([]Pair, 48)
	for i := range pairs {
		pairs[i] = corpusPair(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.Stats()
				if st.Equivalent+st.NotProved+st.Unsupported+st.Refuted != st.Pairs {
					t.Errorf("torn snapshot: %+v", st)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	results, stats := e.VerifyBatch(context.Background(), pairs, 8)
	close(stop)
	wg.Wait()

	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	if stats.Pairs != int64(len(pairs)) {
		t.Errorf("stats.Pairs = %d, want %d", stats.Pairs, len(pairs))
	}
	st := e.Stats()
	if st.Pairs != int64(len(pairs)) {
		t.Errorf("engine lifetime pairs = %d, want %d", st.Pairs, len(pairs))
	}
	if st.Equivalent != stats.Equivalent || st.NotProved != stats.NotProved || st.Refuted != stats.Refuted {
		t.Errorf("snapshot %+v disagrees with batch stats %+v", st, stats)
	}
}

// corpusPair cycles through a few quick Calcite pairs so batches exercise
// dedupe and distinct verdicts at once.
func corpusPair(i int) Pair {
	all := corpus.CalcitePairs()
	p := all[i%24] // the USPJ prefix verifies fast
	return Pair{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2}
}

// TestEngineBatchSharesPersistentCaches proves a batch overlay warms the
// engine: a batch touching one pair leaves the obligation cache hot for a
// later single verification.
func TestEngineBatchSharesPersistentCaches(t *testing.T) {
	e := NewEngine(corpus.Catalog(), Options{})
	if _, stats := e.VerifyBatch(context.Background(), []Pair{eqPair}, 1); stats.Equivalent != 1 {
		t.Fatalf("batch stats: %+v", stats)
	}
	r := e.VerifyPair(context.Background(), eqPair)
	if r.Stats.ObligationHits == 0 {
		t.Errorf("single verification after batch missed the shared cache: %+v", r.Stats)
	}
	if st := e.Stats(); st.Pairs != 2 {
		t.Errorf("lifetime pairs = %d, want 2 (batch + single)", st.Pairs)
	}
}
