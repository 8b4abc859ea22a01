package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"spes/internal/corpus"
	"spes/internal/fault"
)

// startReplica builds a server tailing the given origins and registers its
// shutdown. The fast interval keeps catch-up waits short in tests.
func startReplica(t *testing.T, dir string, origins ...ReplicaOrigin) *Server {
	t.Helper()
	s := newTestServer(t, Config{
		ShardID:           "replica-b",
		StorePath:         dir,
		ReplicateFrom:     origins,
		ReplicateInterval: 5 * time.Millisecond,
		RefuteBudget:      64,
	})
	t.Cleanup(func() { s.stopReplicators() })
	return s
}

// waitCaughtUp polls until every origin reports caught_up with a nonzero
// position, or the deadline passes.
func waitCaughtUp(t *testing.T, s *Server, deadline time.Duration) []ReplicationOriginJSON {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		snap := s.ReplicationSnapshot()
		ok := len(snap) > 0
		for _, o := range snap {
			if !o.CaughtUp || o.Position == 0 {
				ok = false
			}
		}
		if ok {
			return snap
		}
		if time.Now().After(end) {
			t.Fatalf("replication never caught up: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationWarmsReplica is the tentpole's end-to-end path: verdicts
// and witnesses proved on an origin shard stream into a tailing replica,
// and the replica then answers the same pairs from its store — warm on
// first contact, byte-identical verdicts.
func TestReplicationWarmsReplica(t *testing.T) {
	origin := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir(), RefuteBudget: 64})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()

	neqSQL1 := "SELECT SALARY FROM EMP WHERE SALARY > 5"
	neqSQL2 := "SELECT SALARY FROM EMP WHERE SALARY >= 5"
	wEq := postJSON(t, origin.Handler(), "/v1/verify", VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	wNeq := postJSON(t, origin.Handler(), "/v1/verify", VerifyRequest{SQL1: neqSQL1, SQL2: neqSQL2})
	if v := decode[VerifyResponse](t, wEq).Verdict; v != "equivalent" {
		t.Fatalf("origin eq verdict = %q", v)
	}
	if v := decode[VerifyResponse](t, wNeq).Verdict; v != "refuted" {
		t.Fatalf("origin neq verdict = %q", v)
	}
	origin.Store().Flush()
	originRecords := origin.Store().Snapshot().Records
	if originRecords == 0 {
		t.Fatal("sanity: origin proved pairs but its store is empty")
	}

	replica := startReplica(t, t.TempDir(), ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	snap := waitCaughtUp(t, replica, 5*time.Second)
	if snap[0].Records == 0 {
		t.Fatalf("caught up without applying any records: %+v", snap[0])
	}
	if got := replica.Store().Snapshot().Records; got < originRecords {
		t.Fatalf("replica store has %d records, origin %d", got, originRecords)
	}

	// The warm test proper: the replica's engine has never seen these
	// pairs, so its obligation cache is cold — the verdicts must come off
	// the replicated store.
	wEq2 := postJSON(t, replica.Handler(), "/v1/verify", VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	if v := decode[VerifyResponse](t, wEq2).Verdict; v != "equivalent" {
		t.Fatalf("replica eq verdict = %q", v)
	}
	if hits := replica.Engine().Stats().StoreHits; hits == 0 {
		t.Fatalf("replica proved the pair cold (store hits = 0); replication did not warm it")
	}
	wNeq2 := postJSON(t, replica.Handler(), "/v1/verify", VerifyRequest{SQL1: neqSQL1, SQL2: neqSQL2})
	resp := decode[VerifyResponse](t, wNeq2)
	if resp.Verdict != "refuted" || resp.Witness == nil {
		t.Fatalf("replica neq verdict = %q (witness %v), want refuted with witness", resp.Verdict, resp.Witness != nil)
	}
	if wh := replica.Engine().Stats().WitnessHits; wh == 0 {
		t.Fatalf("replica refuted without serving the replicated witness (witness hits = 0)")
	}

	// Re-polling a caught-up origin must not re-apply anything.
	before := replica.ReplicationSnapshot()[0].Chunks
	time.Sleep(30 * time.Millisecond)
	after := replica.ReplicationSnapshot()[0]
	if after.Chunks != before || !after.CaughtUp {
		t.Errorf("caught-up tailer kept fetching: chunks %d -> %d", before, after.Chunks)
	}
}

// TestReplicationResumesFromPersistedPosition pins the resumability
// contract: a restarted replica continues from its persisted tail position
// and streams only the origin's delta, not the whole log again.
func TestReplicationResumesFromPersistedPosition(t *testing.T) {
	origin := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir()})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()
	for i := 0; i < 50; i++ {
		origin.Store().AppendVerdict(fmt.Sprintf("resume-key-%04d", i), true)
	}
	origin.Store().Flush()

	dir := t.TempDir()
	replica := startReplica(t, dir, ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	first := waitCaughtUp(t, replica, 5*time.Second)[0]
	replica.stopReplicators()
	if err := replica.Store().Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 25; i++ {
		origin.Store().AppendVerdict(fmt.Sprintf("resume-delta-%04d", i), true)
	}
	origin.Store().Flush()
	_, originSize := origin.Store().Segments()

	replica2 := startReplica(t, dir, ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	second := waitCaughtUp(t, replica2, 5*time.Second)[0]
	if second.Position != originSize {
		t.Fatalf("resumed position = %d, origin size %d", second.Position, originSize)
	}
	// The restarted tailer's lifetime byte counter is exactly the delta: a
	// full re-stream would count the whole log.
	if want := originSize - first.Position; second.Bytes != want {
		t.Fatalf("restarted tailer streamed %d bytes, want the %d-byte delta (full log %d)",
			second.Bytes, want, originSize)
	}
	if _, ok := replica2.Store().LookupVerdict("resume-delta-0000"); !ok {
		t.Fatal("delta record missing after resumed tail")
	}
}

// TestReplicationByteParity pins the strongest form of the warm-failover
// contract: a replica that has fully drained an origin and taken no
// traffic of its own holds the origin's store byte for byte — every
// record kind, every payload, in origin order. Anything weaker would let
// a "fully replicated" successor serve a subtly different warm set.
func TestReplicationByteParity(t *testing.T) {
	origin := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir()})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			origin.Store().AppendVerdict(fmt.Sprintf("parity-v-%04d", i), i%2 == 0)
		case 1:
			origin.Store().AppendWitness(fmt.Sprintf("parity-w-%04d", i), []byte(fmt.Sprintf("witness-bytes-%d", i)))
		}
	}
	origin.Store().Flush()

	replica := startReplica(t, t.TempDir(), ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	waitCaughtUp(t, replica, 5*time.Second)
	replica.Store().Flush()

	ob, err := os.ReadFile(origin.Store().Path())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(replica.Store().Path())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh replica applies records in origin order, so parity here is
	// literal: same bytes, same offsets. (A replica with its own writes
	// interleaved would hold the same records modulo order.)
	if !bytes.Equal(ob, rb) {
		t.Fatalf("replica log diverges from origin: origin %d bytes, replica %d bytes", len(ob), len(rb))
	}
	if n := replica.ReplicationSnapshot()[0].Duplicates; n != 0 {
		t.Errorf("clean full tail counted %d duplicates", n)
	}
}

// TestReplicationDigestMismatchRefused pins the admission check: an origin
// verifying under a different integrity-constraint set is refused — its
// verdict space is incompatible — and the refusal is counted, not silent.
func TestReplicationDigestMismatchRefused(t *testing.T) {
	origin := newTestServer(t, Config{
		Catalog:   corpus.ConstraintCatalog(),
		ShardID:   "origin-a",
		StorePath: t.TempDir(),
	})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()
	origin.Store().AppendVerdict("mismatch-key", true)
	origin.Store().Flush()

	replica := startReplica(t, t.TempDir(), ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	end := time.Now().Add(5 * time.Second)
	for replica.ReplicationSnapshot()[0].DigestMismatch == 0 {
		if time.Now().After(end) {
			t.Fatalf("mismatch never counted: %+v", replica.ReplicationSnapshot()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := replica.ReplicationSnapshot()[0]
	if snap.Records != 0 || snap.Position != 0 {
		t.Fatalf("mismatched origin's records were applied: %+v", snap)
	}
	if _, ok := replica.Store().LookupVerdict("mismatch-key"); ok {
		t.Fatal("record from a digest-mismatched origin landed in the replica store")
	}
}

// TestReplicationChaos arms the store-replicate fault site (plus the
// store-append site the replicated writes pass through) against a live
// tailer: faults may stall the tail or drop chunks, but every record that
// lands is one the origin durably wrote — lose-never-fabricate — and once
// the faults stop the tail catches all the way up.
func TestReplicationChaos(t *testing.T) {
	origin := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir()})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()
	n := 400
	for i := 0; i < n; i++ {
		origin.Store().AppendVerdict(fmt.Sprintf("chaos-key-%04d", i), i%2 == 0)
		if i%128 == 0 {
			origin.Store().Flush()
		}
	}
	origin.Store().Flush()

	if err := fault.Enable(fault.Config{
		Seed:     11,
		PerMille: 400,
		Sites:    []fault.Site{fault.StoreReplicate, fault.StoreAppend},
	}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	// A small chunk size turns catch-up into many fault windows.
	replica := newTestServer(t, Config{
		ShardID:             "replica-b",
		StorePath:           t.TempDir(),
		ReplicateFrom:       []ReplicaOrigin{{ID: "origin-a", URL: ts.URL}},
		ReplicateInterval:   2 * time.Millisecond,
		ReplicateChunkBytes: 512,
	})
	t.Cleanup(replica.stopReplicators)

	// Keep the origin growing while the tailer fights the faults, until a
	// panic or cancel actually drops a chunk (delays alone don't prove the
	// recovery path).
	end := time.Now().Add(10 * time.Second)
	for fault.Fired(fault.StoreReplicate) == 0 || replica.ReplicationSnapshot()[0].Errors == 0 {
		if time.Now().After(end) {
			t.Fatalf("store-replicate site never dropped a chunk under chaos (fired %d, %+v)",
				fault.Fired(fault.StoreReplicate), replica.ReplicationSnapshot()[0])
		}
		for i := 0; i < 20; i++ {
			origin.Store().AppendVerdict(fmt.Sprintf("chaos-key-%04d", n), n%2 == 0)
			n++
		}
		origin.Store().Flush()
		time.Sleep(5 * time.Millisecond)
	}
	fault.Disable()

	waitCaughtUp(t, replica, 10*time.Second)
	// Dropped appends (store-append faults inside applied chunks) are lost,
	// not poisoned: everything present must agree with the origin, and
	// nothing may exist that the origin never wrote.
	missing := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("chaos-key-%04d", i)
		valid, ok := replica.Store().LookupVerdict(key)
		if !ok {
			missing++
			continue
		}
		if valid != (i%2 == 0) {
			t.Fatalf("FABRICATION under chaos: key %s replicated as %v, origin wrote %v", key, valid, i%2 == 0)
		}
	}
	if missing == n {
		t.Fatal("chaos lost every record; the tailer never recovered")
	}
	if _, ok := replica.Store().LookupVerdict("chaos-key-nope"); ok {
		t.Fatal("replica invented a record the origin never wrote")
	}
	if replica.ReplicationSnapshot()[0].Errors == 0 {
		t.Error("chaos run counted no replication errors")
	}
}

// TestReplicationMetricLabelParity extends the label-parity contract to
// the replication series: every spes_replication_* series is registered,
// and each one carries exactly the same origin-label children — a series
// whose label set drifts from its siblings breaks dashboard joins.
func TestReplicationMetricLabelParity(t *testing.T) {
	origin := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir()})
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()
	origin.Store().AppendVerdict("parity-key", true)
	origin.Store().Flush()

	replica := startReplica(t, t.TempDir(), ReplicaOrigin{ID: "origin-a", URL: ts.URL})
	waitCaughtUp(t, replica, 5*time.Second)

	body := doReq(replica.Handler(), httptest.NewRequest(http.MethodGet, "/metrics", nil)).Body.String()
	series := []string{
		"spes_replication_segments_total",
		"spes_replication_records_total",
		"spes_replication_bytes_total",
		"spes_replication_duplicates_total",
		"spes_replication_errors_total",
		"spes_replication_corrupt_chunks_total",
		"spes_replication_digest_mismatch_total",
		"spes_replication_lag_bytes",
		"spes_replication_position_bytes",
	}
	labels := func(name string) map[string]bool {
		out := map[string]bool{}
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, name+"{") {
				continue
			}
			rest := strings.TrimPrefix(line, name+"{")
			if i := strings.Index(rest, "}"); i >= 0 {
				out[rest[:i]] = true
			}
		}
		return out
	}
	want := map[string]bool{`origin="origin-a"`: true}
	for _, name := range series {
		if !strings.Contains(body, "# TYPE "+name) {
			t.Errorf("series %s not registered:\n%s", name, grepMetric(body, "spes_replication"))
			continue
		}
		got := labels(name)
		if len(got) != len(want) {
			t.Errorf("series %s children = %v, want %v", name, got, want)
			continue
		}
		for l := range want {
			if !got[l] {
				t.Errorf("series %s missing child {%s}: has %v", name, l, got)
			}
		}
	}
	// And the values must agree with /v1/stats — same atomics, no skew.
	if !strings.Contains(body, `spes_replication_lag_bytes{origin="origin-a"} 0`) {
		t.Errorf("caught-up replica reports nonzero lag:\n%s", grepMetric(body, "spes_replication_lag_bytes"))
	}
}

// TestSegmentEndpoints pins the origin-side HTTP surface the tailer
// speaks: metadata shape, record-aligned data chunks, the size header, and
// range errors.
func TestSegmentEndpoints(t *testing.T) {
	s := newTestServer(t, Config{ShardID: "origin-a", StorePath: t.TempDir()})
	h := s.Handler()
	for i := 0; i < 20; i++ {
		s.Store().AppendVerdict(fmt.Sprintf("seg-key-%02d", i), true)
	}
	s.Store().Flush()

	w := doReq(h, httptest.NewRequest(http.MethodGet, "/v1/store/segments", nil))
	if w.Code != 200 {
		t.Fatalf("segments = %d: %s", w.Code, w.Body.String())
	}
	meta := decode[SegmentsResponse](t, w)
	if meta.Size == 0 || meta.Shard != "origin-a" || meta.SegmentTarget == 0 {
		t.Fatalf("bad metadata: %+v", meta)
	}

	w = doReq(h, httptest.NewRequest(http.MethodGet, "/v1/store/segments/data?from=0", nil))
	if w.Code != 200 {
		t.Fatalf("data = %d: %s", w.Code, w.Body.String())
	}
	if int64(w.Body.Len()) != meta.Size {
		t.Fatalf("data returned %d bytes, log is %d", w.Body.Len(), meta.Size)
	}
	if got := w.Header().Get("X-Spes-Store-Size"); got != fmt.Sprint(meta.Size) {
		t.Fatalf("X-Spes-Store-Size = %q, want %d", got, meta.Size)
	}

	for _, bad := range []string{"/v1/store/segments/data?from=-1", "/v1/store/segments/data?from=zzz", "/v1/store/segments/data?from=0&max=0"} {
		if w := doReq(h, httptest.NewRequest(http.MethodGet, bad, nil)); w.Code != 400 {
			t.Errorf("%s = %d, want 400", bad, w.Code)
		}
	}
	past := fmt.Sprintf("/v1/store/segments/data?from=%d", meta.Size+999)
	if w := doReq(h, httptest.NewRequest(http.MethodGet, past, nil)); w.Code != 422 {
		t.Errorf("past-end read = %d, want 422", w.Code)
	}

	// A server without a store says so rather than 404ing confusingly.
	bare := newTestServer(t, Config{})
	if w := doReq(bare.Handler(), httptest.NewRequest(http.MethodGet, "/v1/store/segments", nil)); w.Code != 404 {
		t.Errorf("storeless segments = %d, want 404", w.Code)
	}
}
