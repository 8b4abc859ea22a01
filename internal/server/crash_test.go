package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"spes/internal/engine"
	"spes/internal/plan"
)

// settleGoroutines waits for the goroutine count to settle back to the
// baseline, failing with a full stack dump if it never does.
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

// TestCoalescerLeaderPanicDoesNotStrandWaiters is the regression test for
// the leader-path bug: completion (remove + close(done)) ran inline after
// fn, so a panicking leader leaked its flight and every waiter blocked
// forever on a channel nothing would ever close. On pre-fix code this
// test fails at the "waiter stranded" timeout below.
func TestCoalescerLeaderPanicDoesNotStrandWaiters(t *testing.T) {
	c := newCoalescer()
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	leaderRes := make(chan engine.Result, 1)
	go func() {
		defer func() { recover() }() // pre-fix code lets the panic escape do; keep the test alive to report the real failure
		res, _, _ := c.do(context.Background(), "q1", "q2", func() engine.Result {
			close(leaderIn)
			<-release
			panic("leader boom")
		})
		leaderRes <- res
	}()
	<-leaderIn

	// A follower joins the in-flight pair before the leader dies.
	folRes := make(chan engine.Result, 1)
	go func() {
		res, _, err := c.do(context.Background(), "q1", "q2", func() engine.Result {
			return engine.Result{Verdict: engine.NotProved, Reason: "follower retried"}
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		folRes <- res
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.waiters.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	select {
	case res := <-folRes:
		// The retry signal sent the follower back around the loop; it took
		// the lead itself rather than inheriting the panic verdict.
		if res.Reason != "follower retried" {
			t.Errorf("follower result = %+v, want its own retried verdict", res)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("waiter stranded by a panicking leader: flight leaked, done never closed")
	}
	select {
	case res := <-leaderRes:
		if !res.Panicked || res.Verdict != engine.NotProved {
			t.Errorf("leader result = %+v, want recovered NotProved/internal_error", res)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("leader's do never returned")
	}
	if c.inFlight() != 0 {
		t.Errorf("coalescer retained %d flights after the panic", c.inFlight())
	}
}

// TestCoalescerCancelledWaiterNoLeak pins that a follower abandoning its
// wait (client hang-up) leaves no goroutine behind and does not disturb
// the leader's flight.
func TestCoalescerCancelledWaiterNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	c := newCoalescer()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do(context.Background(), "q1", "q2", func() engine.Result {
			close(leaderIn)
			<-release
			return engine.Result{Verdict: engine.Equivalent}
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "q1", "q2", func() engine.Result { return engine.Result{} })
		errCh <- err
	}()
	for c.waiters.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if c.inFlight() != 0 {
		t.Errorf("flights retained: %d", c.inFlight())
	}
	settleGoroutines(t, base, 3*time.Second)
}

// TestCoalescerKeyIsInjective pins that flights are keyed by the two SQL
// strings, not by their concatenation. The lexer skips a -- comment to
// the end of the line, NUL bytes included, so both pairs below build:
// the first to (EMP, EMP), the second to (EMP, DEPT). Joined with a NUL
// they are the same string, and a joined key would hand the second pair
// the first pair's verdict.
func TestCoalescerKeyIsInjective(t *testing.T) {
	c := newCoalescer()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.do(context.Background(), "SELECT * FROM EMP --\x00SELECT * FROM DEPT --", "SELECT * FROM EMP", func() engine.Result {
			close(leaderIn)
			<-release
			return engine.Result{Verdict: engine.Equivalent}
		})
	}()
	<-leaderIn
	defer func() {
		close(release)
		<-done
	}()

	// The context is already cancelled. It governs only a follower's wait,
	// so a leader runs fn regardless, while a follower returns at once
	// instead of hanging on the blocked leader.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res, coalesced, err := c.do(ctx, "SELECT * FROM EMP --", "SELECT * FROM DEPT --\x00SELECT * FROM EMP", func() engine.Result {
		ran = true
		return engine.Result{Verdict: engine.NotProved}
	})
	if err != nil || coalesced || !ran || res.Verdict != engine.NotProved {
		t.Fatalf("distinct pair joined another flight: coalesced=%v ran=%v verdict=%v err=%v", coalesced, ran, res.Verdict, err)
	}
}

// TestVerifyPanicDegradesToVerdict drives a panic through the real
// request path (handler → coalescer → verify hook) and asserts the
// client gets a sound degraded verdict, not a dropped connection — and
// that the panic shows up in /metrics.
func TestVerifyPanicDegradesToVerdict(t *testing.T) {
	s := newTestServer(t, Config{})
	s.verifyPlans = func(ctx context.Context, id string, q1, q2 plan.Node) engine.Result {
		panic("verification exploded")
	}
	h := s.Handler()

	w := postJSON(t, h, "/v1/verify", VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	if w.Code != 200 {
		t.Fatalf("status = %d, want 200 (the request degraded, the server survived); body %s", w.Code, w.Body.String())
	}
	resp := decode[VerifyResponse](t, w)
	if resp.Verdict != "not-proved" || !resp.Panicked {
		t.Fatalf("response = %+v, want not-proved with panicked set", resp)
	}
	if !strings.Contains(resp.Reason, "internal_error") {
		t.Errorf("reason = %q", resp.Reason)
	}
	if s.coal.inFlight() != 0 {
		t.Errorf("coalescer retained %d flights", s.coal.inFlight())
	}

	m := doReq(h, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body := m.Body.String(); !strings.Contains(body, "spes_panics_recovered_total 1") {
		t.Errorf("metrics missing spes_panics_recovered_total 1:\n%s", grepMetric(body, "spes_panics"))
	}
}

// TestHandlerPanicReturns500 exercises the last-resort recovery in
// instrument: a panic escaping the handler itself (above the coalescer)
// answers 500 and is counted, with the wire status and reqTotal agreeing.
func TestHandlerPanicReturns500(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.instrument("test", func(w http.ResponseWriter, r *http.Request) {
		panic("handler boom")
	})

	w := doReq(h, httptest.NewRequest(http.MethodPost, "/v1/test", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if resp := decode[ErrorResponse](t, w); resp.Error.Code != "internal_error" {
		t.Errorf("error code = %q", resp.Error.Code)
	}
	if got := s.reqTotal.With("test", "500").Load(); got != 1 {
		t.Errorf(`reqTotal{test,500} = %d, want 1`, got)
	}
	if got := s.srvPanics.Load(); got != 1 {
		t.Errorf("srvPanics = %d, want 1", got)
	}
	// /v1/stats reports the same panics count /metrics does.
	stats := decode[StatsResponse](t, doReq(s.Handler(), httptest.NewRequest(http.MethodGet, "/v1/stats", nil)))
	if stats.Engine.Panics != 1 {
		t.Errorf("/v1/stats panics = %d, want 1 (handler panics fold into the snapshot)", stats.Engine.Panics)
	}
	if got := s.latency.Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1 (panicked requests must still be measured)", got)
	}
}

// TestQueuedCancelCounts503 pins the metrics/wire alignment fix: a client
// that gives up while queued is shed with HTTP 503, and reqTotal must say
// 503 too — the old code recorded a "499" series that matched nothing on
// the wire.
func TestQueuedCancelCounts503(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4})
	gate := newGateHook()
	s.verifyPlans = gate.fn
	h := s.Handler()

	body, err := json.Marshal(VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	if err != nil {
		t.Fatal(err)
	}
	go doReq(h, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body)))
	<-gate.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // queued acquire sees a dead context immediately
	r := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader("{}")).WithContext(ctx)
	w := doReq(h, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if got := s.reqTotal.With("verify", "503").Load(); got != 1 {
		t.Errorf(`reqTotal{verify,503} = %d, want 1 (wire and metrics must agree)`, got)
	}
	if got := s.rejected.With("cancelled").Load(); got != 1 {
		t.Errorf(`rejected{cancelled} = %d, want 1`, got)
	}
	close(gate.release)
}

// TestRetryAfterNeverZero pins the Retry-After guard: a zero or sub-second
// RetryAfter config must render as at least 1 — "Retry-After: 0" tells
// clients to hammer an overloaded server.
func TestRetryAfterNeverZero(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, d := range []time.Duration{0, -time.Second, time.Millisecond, time.Second, 2500 * time.Millisecond} {
		s.cfg.RetryAfter = d
		if got := s.retryAfterSecs(); got < 1 {
			t.Errorf("retryAfterSecs(%v) = %d, want >= 1", d, got)
		}
	}
	s.cfg.RetryAfter = 2500 * time.Millisecond
	if got := s.retryAfterSecs(); got != 3 {
		t.Errorf("retryAfterSecs(2.5s) = %d, want 3 (round up)", got)
	}
}

// TestDrainNoGoroutineLeak serves real connections, drains, and asserts
// the server's goroutines (listener, per-connection handlers, limiter
// waiters) are all gone afterwards.
func TestDrainNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, Config{MaxInFlight: 4})
	addr := startServer(t, s)

	for i := 0; i < 4; i++ {
		resp, err := http.Post(addr+"/v1/verify", "application/json",
			strings.NewReader(`{"sql1": `+jsonStr(eqSQL1)+`, "sql2": `+jsonStr(eqSQL2)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	settleGoroutines(t, base, 5*time.Second)
}

// grepMetric returns the lines of a metrics body mentioning substr, for
// compact failure messages.
func grepMetric(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
