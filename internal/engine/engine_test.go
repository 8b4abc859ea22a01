package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spes/internal/corpus"
)

func calcitePairs() []Pair {
	var out []Pair
	for _, p := range corpus.CalcitePairs() {
		out = append(out, Pair{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2})
	}
	return out
}

func verdictCounts(results []Result) map[Verdict]int {
	m := map[Verdict]int{}
	for _, r := range results {
		m[r.Verdict]++
	}
	return m
}

// TestDeterminismAcrossWorkerCounts pins the engine's central guarantee:
// the same batch returns identical per-pair verdicts at any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()

	base, baseStats := VerifyBatch(cat, pairs, Options{Workers: 1})
	if baseStats.Pairs != int64(len(pairs)) {
		t.Fatalf("stats.Pairs = %d, want %d", baseStats.Pairs, len(pairs))
	}
	if baseStats.Equivalent == 0 {
		t.Fatal("sanity: expected some equivalent pairs in the Calcite corpus")
	}

	par, parStats := VerifyBatch(cat, pairs, Options{Workers: 8})
	if parStats.Workers != 8 {
		t.Fatalf("stats.Workers = %d, want 8", parStats.Workers)
	}
	for i := range pairs {
		if base[i].Verdict != par[i].Verdict {
			t.Errorf("pair %s: verdict %v with 1 worker, %v with 8",
				pairs[i].ID, base[i].Verdict, par[i].Verdict)
		}
		if base[i].Cardinal != par[i].Cardinal {
			t.Errorf("pair %s: cardinal %v with 1 worker, %v with 8",
				pairs[i].ID, base[i].Cardinal, par[i].Cardinal)
		}
	}
}

// TestDeterminismCachingOnOff pins that the memo layers never change a
// verdict: caching on and off produce identical per-pair verdicts.
func TestDeterminismCachingOnOff(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()

	cached, cachedStats := VerifyBatch(cat, pairs, Options{Workers: 4})
	uncached, uncachedStats := VerifyBatch(cat, pairs, Options{Workers: 4, DisableCaching: true})

	for i := range pairs {
		if cached[i].Verdict != uncached[i].Verdict {
			t.Errorf("pair %s: verdict %v cached, %v uncached",
				pairs[i].ID, cached[i].Verdict, uncached[i].Verdict)
		}
	}
	cc, uc := verdictCounts(cached), verdictCounts(uncached)
	if fmt.Sprint(cc) != fmt.Sprint(uc) {
		t.Errorf("verdict counts differ: cached %v, uncached %v", cc, uc)
	}
	if uncachedStats.Deduped != 0 || uncachedStats.NormHits != 0 || uncachedStats.ObligationHits != 0 {
		t.Errorf("caching disabled but memo counters nonzero: %+v", uncachedStats)
	}
	_ = cachedStats
}

// TestWorkerOwnsVerifier enforces verify.Verifier's concurrency contract:
// every verified (non-deduped, successfully built) pair gets a fresh
// Verifier on its worker.
func TestWorkerOwnsVerifier(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()

	s := NewShared(Options{Workers: 8})
	results := make([]Result, len(pairs))
	var mu sync.Mutex
	seen := map[*Worker]bool{}
	s.ForEach(cat, len(pairs), func(w *Worker, i int) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
		results[i] = w.VerifyPair(pairs[i])
	})

	total := 0
	for w := range seen {
		total += w.VerifiersBuilt()
	}
	verified := 0
	for _, r := range results {
		if !r.Deduped && r.Stats.VeriCardCalls > 0 {
			verified++
		}
	}
	if total != verified {
		t.Errorf("verifiers built = %d, verified pairs = %d; each verified pair must get a fresh Verifier", total, verified)
	}
	if verified == 0 {
		t.Fatal("sanity: no pairs verified")
	}
}

// TestTimeout pins the degrade-to-NotProved semantics of the per-pair
// deadline: an expired deadline yields NotProved with TimedOut set and
// reason "timeout", never a wrong Equivalent.
func TestTimeout(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()

	results, stats := VerifyBatch(cat, pairs, Options{Workers: 2, Timeout: time.Nanosecond})
	if stats.Timeouts == 0 {
		t.Fatal("1ns deadline should time out at least one solver round")
	}
	for i, r := range results {
		if !r.TimedOut {
			continue
		}
		if r.Verdict == Equivalent {
			// A pair may legitimately prove Equivalent before the deadline
			// check fires only if no obligation hit the deadline — but
			// TimedOut means one did, and a timed-out validity check returns
			// Unknown, which can never prove equivalence.
			t.Errorf("pair %s: TimedOut yet Equivalent", pairs[i].ID)
		}
		if r.Verdict == NotProved && r.Reason != "timeout" {
			t.Errorf("pair %s: timed-out NotProved reason = %q, want \"timeout\"", pairs[i].ID, r.Reason)
		}
	}
}

// TestDedupeSharesVerdict checks that structurally identical pairs verify
// once and share the verdict.
func TestDedupeSharesVerdict(t *testing.T) {
	cat := corpus.Catalog()
	one := calcitePairs()[:6]
	var pairs []Pair
	for rep := 0; rep < 3; rep++ {
		for _, p := range one {
			pairs = append(pairs, Pair{ID: fmt.Sprintf("%s#%d", p.ID, rep), SQL1: p.SQL1, SQL2: p.SQL2})
		}
	}

	results, stats := VerifyBatch(cat, pairs, Options{Workers: 4})
	if stats.Deduped == 0 {
		t.Fatal("tripled batch should dedupe repeats")
	}
	for i, r := range results {
		orig := results[i%len(one)]
		if r.Verdict != orig.Verdict {
			t.Errorf("pair %s: verdict %v differs from its first occurrence %v", r.ID, r.Verdict, orig.Verdict)
		}
	}
	// Deduped results carry no per-pair solver stats.
	for _, r := range results {
		if r.Deduped && r.Stats.SolverQueries != 0 {
			t.Errorf("pair %s: deduped result reports solver work", r.ID)
		}
	}
}

// TestUnsupportedAndBuildErrors checks the verdict mapping for unbuildable
// queries.
func TestUnsupportedAndBuildErrors(t *testing.T) {
	cat := corpus.Catalog()
	pairs := []Pair{
		{ID: "bad-syntax", SQL1: "SELEC nope", SQL2: "SELECT EMP_ID FROM EMP"},
		{ID: "ok", SQL1: "SELECT EMP_ID FROM EMP", SQL2: "SELECT EMP_ID FROM EMP"},
	}
	results, stats := VerifyBatch(cat, pairs, Options{Workers: 2})
	if results[0].Verdict == Equivalent {
		t.Errorf("unbuildable pair must not be Equivalent, got %v (%s)", results[0].Verdict, results[0].Reason)
	}
	if results[0].Reason == "" {
		t.Error("unbuildable pair should carry a reason")
	}
	if results[1].Verdict != Equivalent {
		t.Errorf("identical query pair: got %v, want Equivalent", results[1].Verdict)
	}
	if stats.Pairs != 2 {
		t.Errorf("stats.Pairs = %d, want 2", stats.Pairs)
	}
}

// TestObligationCacheDisabledOnly checks CacheSize < 0 disables only the
// obligation cache while keeping normalization memo and dedupe.
func TestObligationCacheDisabledOnly(t *testing.T) {
	cat := corpus.Catalog()
	pairs := calcitePairs()[:10]
	doubled := append(append([]Pair{}, pairs...), pairs...)

	_, stats := VerifyBatch(cat, doubled, Options{Workers: 2, CacheSize: -1})
	if stats.ObligationHits != 0 || stats.ObligationMisses != 0 {
		t.Errorf("obligation cache disabled but counters nonzero: %+v", stats)
	}
	if stats.Deduped == 0 {
		t.Error("dedupe should remain active with CacheSize < 0")
	}
}
