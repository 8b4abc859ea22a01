package cluster

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"spes/internal/fault"
	"spes/internal/server"
)

// settleGoroutines waits for the goroutine count to return to base —
// proving no forward, prober, or client-cancellation goroutine was
// stranded.
func settleGoroutines(t *testing.T, base int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		http.DefaultClient.CloseIdleConnections()
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

// kill hard-stops a shard: the listener closes (no new connections) and
// every live connection is severed — the closest httptest gets to a
// SIGKILL'd process.
func (sh *testShard) kill() {
	sh.ts.Listener.Close()
	sh.ts.CloseClientConnections()
}

// TestChaosShardKillMidBatch is the cluster half of the chaos contract:
// a shard dies — hard, mid-batch, connections severed — and the batch
// still completes with verdicts byte-identical to a single-node run,
// because the router fails the dead shard's pairs over to the ring
// successor and re-verification is deterministic. Run under -race in CI.
func TestChaosShardKillMidBatch(t *testing.T) {
	base := runtime.NumGoroutine()

	single := newTestShard(t, "solo", server.Config{})
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := NewRouter(Config{
		Shards:        []Shard{{ID: "a", URL: a.ts.URL}, {ID: "b", URL: b.ts.URL}},
		ProbeInterval: -1,
		RetryAfterCap: 20 * time.Millisecond,
	})
	h := rt.Handler()

	req := clusterBatch(24)
	ref := decode[server.BatchResponse](t, postJSON(t, single.srv.Handler(), "/v1/verify/batch", req))

	// Round 1: kill b while the batch is in flight. With GOMAXPROCS=1 the
	// kill may land before, during, or after b's sub-batch — every
	// interleaving must end in a complete, correct batch.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(2 * time.Millisecond)
		b.kill()
	}()
	w := postJSON(t, h, "/v1/verify/batch", req)
	<-killDone
	if w.Code != 200 {
		t.Fatalf("batch during shard kill: %d %s", w.Code, w.Body.String())
	}
	checkParity(t, ref, decode[server.BatchResponse](t, w), false)

	// Round 2: b is definitely dead now. This batch must fail over and
	// still match single-node exactly.
	w = postJSON(t, h, "/v1/verify/batch", req)
	if w.Code != 200 {
		t.Fatalf("batch after shard kill: %d %s", w.Code, w.Body.String())
	}
	got := decode[server.BatchResponse](t, w)
	checkParity(t, ref, got, false)
	for i, r := range got.Results {
		if r.Shard != "a" {
			t.Fatalf("result %d on %q after b died", i, r.Shard)
		}
	}
	if rt.failovers.Sum() == 0 {
		t.Fatal("no failover recorded across a shard kill")
	}
	if rt.unplacedT.Value() != 0 {
		t.Fatalf("%d pairs degraded with a live shard available", rt.unplacedT.Value())
	}

	// Wind down and prove nothing was stranded: no forward goroutine
	// waiting on the dead shard, no client-cancellation callback, no
	// prober.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	settleGoroutines(t, base+3, 5*time.Second) // +3: the t.Cleanup-owned shard stacks are still up
}

// TestChaosRouterForwardSite arms the router-forward fault site — panics,
// delays, and cancels injected into the forwarding path itself — under
// concurrent batches, with probes running between rounds so spuriously
// down-marked shards rejoin. The soundness contract under forward chaos:
// the router may LOSE verdicts (degrade to not-proved when the ring looks
// empty) but may never CHANGE one — every non-degraded verdict must equal
// the single-node verdict, and the protocol stays 200/503.
func TestChaosRouterForwardSite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos run")
	}
	base := runtime.NumGoroutine()
	single := newTestShard(t, "solo", server.Config{})
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := NewRouter(Config{
		Shards:        []Shard{{ID: "a", URL: a.ts.URL}, {ID: "b", URL: b.ts.URL}},
		ProbeInterval: -1,
		RetryAfterCap: 20 * time.Millisecond,
	})
	h := rt.Handler()

	req := clusterBatch(16)
	ref := decode[server.BatchResponse](t, postJSON(t, single.srv.Handler(), "/v1/verify/batch", req))

	var fired uint64
	for seed := uint64(1); seed <= 4; seed++ {
		if err := fault.Enable(fault.Config{
			Seed:     seed,
			PerMille: 250,
			Delay:    time.Millisecond,
			Sites:    []fault.Site{fault.RouterForward},
		}); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			w := postJSON(t, h, "/v1/verify/batch", req)
			switch {
			case w.Code == 200:
				checkParity(t, ref, decode[server.BatchResponse](t, w), true)
			case w.Code == http.StatusServiceUnavailable:
				// Injected failures downed every shard from the router's
				// point of view: refusing the batch is the honest answer.
			default:
				t.Fatalf("seed %d round %d: status %d: %s — forward faults must never corrupt the protocol",
					seed, round, w.Code, w.Body.String())
			}
			// The prober heals the spurious deaths: both shards are in fact
			// alive the whole time.
			rt.ProbeNow(context.Background())
		}
		fired += fault.Fired(fault.RouterForward)
		fault.Disable()
	}
	if fired == 0 {
		t.Fatal("router-forward site never fired; the chaos run was a no-op")
	}
	if rt.ringSnapshot().Size() != 2 {
		t.Fatalf("ring size %d after final probe; live shards must be restored", rt.ringSnapshot().Size())
	}

	// Single-verify path under the same faults: answers relay a real shard
	// verdict or refuse with 503 — never invent.
	if err := fault.Enable(fault.Config{
		Seed: 9, PerMille: 250, Sites: []fault.Site{fault.RouterForward},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w := postJSON(t, h, "/v1/verify", server.VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
		switch w.Code {
		case 200:
			resp := decode[server.VerifyResponse](t, w)
			if resp.Verdict != "equivalent" {
				t.Fatalf("verify %d: verdict %q under forward faults; relayed answers must be the shard's", i, resp.Verdict)
			}
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("verify %d: status %d: %s", i, w.Code, w.Body.String())
		}
		rt.ProbeNow(context.Background())
	}
	fault.Disable()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	settleGoroutines(t, base+3, 5*time.Second)
}

// checkParity asserts the routed batch matches the single-node reference:
// same length, request order preserved, and verdicts identical — except,
// when degradedOK, a verdict may weaken to the explicit
// cluster_unavailable degradation (never strengthen, never change to a
// different definite answer).
func checkParity(t *testing.T, ref, got server.BatchResponse, degradedOK bool) {
	t.Helper()
	if len(got.Results) != len(ref.Results) {
		t.Fatalf("routed batch returned %d results, single-node %d", len(got.Results), len(ref.Results))
	}
	for i := range got.Results {
		g, r := got.Results[i], ref.Results[i]
		if g.ID != r.ID {
			t.Fatalf("result %d: ID %q out of order (want %q)", i, g.ID, r.ID)
		}
		if g.Verdict == r.Verdict {
			continue
		}
		if degradedOK && g.Verdict == "not-proved" && g.Reason != "" {
			continue // honest degradation: verdict lost, not changed
		}
		t.Fatalf("result %d (%s): cluster verdict %q != single-node %q (reason %q)",
			i, g.ID, g.Verdict, r.Verdict, g.Reason)
	}
}
