package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"spes/internal/corpus"
	"spes/internal/fault"
)

// waitGoroutines waits for the goroutine count to settle back to the
// baseline, failing with a full stack dump if it never does. The settle
// loop absorbs scheduler lag and the watchdog's abandoned solver
// goroutines finishing their last poll.
func waitGoroutines(t *testing.T, base int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPanicResultShape(t *testing.T) {
	r := PanicResult("p1", "boom")
	if r.Verdict != NotProved || !r.Panicked {
		t.Fatalf("PanicResult = %+v, want NotProved+Panicked", r)
	}
	if !strings.HasPrefix(r.Reason, "internal_error: boom") {
		t.Errorf("reason = %q", r.Reason)
	}
	if r.Stack == "" || len(r.Stack) > maxStackBytes {
		t.Errorf("stack length = %d", len(r.Stack))
	}
	if nilP := PanicResult("", nil); !strings.Contains(nilP.Reason, "goroutine exited") {
		t.Errorf("nil panic value reason = %q", nilP.Reason)
	}

	// A dedupe follower shares the degraded verdict but not the panic
	// bookkeeping — the panic happened exactly once, in the leader.
	f := followerResult(r, "p2", time.Now())
	if f.Panicked || f.Stack != "" || f.WatchdogAbort {
		t.Errorf("follower kept panic bookkeeping: %+v", f)
	}
	if !f.Deduped || f.Verdict != NotProved {
		t.Errorf("follower = %+v", f)
	}

	got := protect(func() Result { panic("kaput") })
	if !got.Panicked || got.Verdict != NotProved {
		t.Errorf("protect = %+v", got)
	}
}

// TestBatchWorkerPanicRecovered pins the satellite bugfix: a panic inside
// a batch worker (here: every normalization call) costs that pair its
// verdict, never the process. Pre-fix, the first panic killed the worker
// goroutine and crashed the whole test binary.
func TestBatchWorkerPanicRecovered(t *testing.T) {
	if err := fault.Enable(fault.Config{
		Seed: 1, PerMille: 1000,
		Sites: []fault.Site{fault.Normalize},
		Kinds: []fault.Kind{fault.KindPanic},
	}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	cat := corpus.Catalog()
	pairs := calcitePairs()[:8]
	results, stats := VerifyBatch(cat, pairs, Options{Workers: 4})
	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	for i, r := range results {
		if r.Verdict == Equivalent {
			t.Errorf("pair %d proved Equivalent while every normalization panics: %+v", i, r)
		}
	}
	if stats.Panics == 0 {
		t.Fatal("no recovered panic recorded in batch stats")
	}
}

// TestDedupeLeaderPanicPublishes pins the dedupe leader's publication
// path: a leader whose check panics still hands its verdict to the
// followers waiting on it. Six copies of one pair on four workers, with
// every SPJ verification panicking: exactly one copy verifies (and
// panics), the other five share its degraded NotProved verdict, and none
// is stranded on a channel that never closes.
func TestDedupeLeaderPanicPublishes(t *testing.T) {
	if err := fault.Enable(fault.Config{
		Seed: 4, PerMille: 1000,
		Sites: []fault.Site{fault.VeriSPJ},
		Kinds: []fault.Kind{fault.KindPanic},
	}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	var pairs []Pair
	for i := 0; i < 6; i++ {
		pairs = append(pairs, Pair{
			ID:   fmt.Sprintf("hot%d", i),
			SQL1: "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
			SQL2: "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5",
		})
	}
	done := make(chan []Result, 1)
	go func() {
		results, _ := VerifyBatch(corpus.Catalog(), pairs, Options{Workers: 4})
		done <- results
	}()
	var results []Result
	select {
	case results = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never returned: a follower is stranded on its panicked leader")
	}
	panicked, deduped := 0, 0
	for _, r := range results {
		if r.Verdict == Equivalent {
			t.Errorf("pair %s proved Equivalent while every SPJ check panics: %+v", r.ID, r)
		}
		if r.Panicked {
			panicked++
		}
		if r.Deduped {
			deduped++
		}
	}
	if panicked != 1 || deduped != 5 {
		t.Errorf("panicked = %d, deduped = %d; want 1 leader panic shared by 5 followers", panicked, deduped)
	}
}

// TestWorkerSpawnPanicRecovered pins the other half of the worker-pool
// guard: a panic during worker construction (before any pair runs) is
// recovered per index, the slot degrades to the zero value (NotProved),
// and the batch still returns a result for every pair.
func TestWorkerSpawnPanicRecovered(t *testing.T) {
	if err := fault.Enable(fault.Config{
		Seed: 2, PerMille: 1000,
		Sites: []fault.Site{fault.WorkerSpawn},
		Kinds: []fault.Kind{fault.KindPanic},
	}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	cat := corpus.Catalog()
	pairs := calcitePairs()[:6]
	results, stats := VerifyBatch(cat, pairs, Options{Workers: 3})
	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	for i, r := range results {
		if r.Verdict == Equivalent {
			t.Errorf("pair %d proved Equivalent though no worker ever spawned: %+v", i, r)
		}
	}
	if stats.Panics != int64(len(pairs)) {
		t.Errorf("stats.Panics = %d, want %d (every index hit the spawn fault)", stats.Panics, len(pairs))
	}
}

// TestWatchdogAbortsStuckVerification injects a long sleep into the SMT
// model-round loop — between the solver's poll points, exactly the spot
// deadlines cannot reach — and asserts the watchdog hands the pair back
// as NotProved/watchdog_abort long before the sleep ends, and that the
// abandoned solver goroutine drains instead of leaking.
func TestWatchdogAbortsStuckVerification(t *testing.T) {
	before := runtime.NumGoroutine()
	if err := fault.Enable(fault.Config{
		Seed: 3, PerMille: 1000, Delay: 400 * time.Millisecond,
		Sites: []fault.Site{fault.SMTModelRound},
		Kinds: []fault.Kind{fault.KindDelay},
	}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	cat := corpus.Catalog()
	pairs := []Pair{{
		ID:   "stuck",
		SQL1: "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
		SQL2: "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5",
	}}
	start := time.Now()
	results, stats := VerifyBatch(cat, pairs, Options{
		Workers:              1,
		Timeout:              15 * time.Millisecond,
		WatchdogGrace:        25 * time.Millisecond,
		DisableNormalization: true, // keep the only solver work inside veriSPJ
	})
	elapsed := time.Since(start)

	r := results[0]
	if !r.WatchdogAbort || r.Verdict != NotProved || r.Reason != "watchdog_abort" {
		t.Fatalf("result = %+v, want NotProved/watchdog_abort", r)
	}
	if stats.WatchdogAborts != 1 {
		t.Errorf("stats.WatchdogAborts = %d, want 1", stats.WatchdogAborts)
	}
	// The pair must come back at deadline+grace, not after the injected
	// sleep: generous bound to absorb CI scheduling noise, but well under
	// the 400ms the solver is stuck for.
	if elapsed >= 350*time.Millisecond {
		t.Errorf("batch took %v; the watchdog should abandon the wait at ~40ms", elapsed)
	}
	// The abandoned goroutine finishes its sleep, sees the cancelled
	// context at the next poll, and exits.
	waitGoroutines(t, before, 3*time.Second)
}

// TestWatchdogLeavesFastPairsAlone pins that arming the watchdog does not
// perturb healthy verifications: with a roomy deadline the usual verdict
// comes back with no abort flags.
func TestWatchdogLeavesFastPairsAlone(t *testing.T) {
	cat := corpus.Catalog()
	pairs := []Pair{{
		ID:   "fast",
		SQL1: "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
		SQL2: "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5",
	}}
	results, stats := VerifyBatch(cat, pairs, Options{Workers: 1, Timeout: 30 * time.Second})
	r := results[0]
	if r.Verdict != Equivalent || r.WatchdogAbort || r.Panicked {
		t.Fatalf("result = %+v, want a clean Equivalent", r)
	}
	if stats.WatchdogAborts != 0 || stats.Panics != 0 {
		t.Errorf("stats = %+v, want no aborts or panics", stats)
	}
}
