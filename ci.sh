#!/bin/sh
# Repo verification gate: vet, build, and the full test suite under the
# race detector (the engine's determinism and worker-ownership tests run
# with 8 concurrent workers, so -race exercises the batch engine's
# sharing for real), every benchmark run once, bounded fuzzes of the
# simplex's rational arithmetic, of the canonical plan encoding and of the
# store's log scan, then
# end-to-end smoke tests: spes-serve boot/verify/drain, chaos under
# -faults, warm restart through the durable store, a 2-shard spes-router
# cluster surviving a shard kill via failover, a refutation stage proving
# buggy rewrites come back "refuted" with byte-identical counterexample
# witnesses standalone and routed, and a replication stage where a
# SIGKILLed shard's verdicts survive on a tailing peer that answers them
# warm from its replicated store; then perfbench's vet and tests, and a
# verdict gate: one-second calcite-cold, production-routed and
# restart-warm benchmark runs must each reproduce a pinned verdict digest.
set -eux

# Term-construction lint: fol.Term values must be built through the fol
# package's constructors, which hash-cons every term into its owning
# interner, never as raw composite literals — a raw literal would be a
# node no interner owns, with no ID and no canonical key, and would break
# every ID-keyed map downstream.
if grep -rn '&fol\.Term{' --include='*.go' --exclude-dir=fol .; then
    echo "ci: raw &fol.Term{...} composite literal outside internal/fol" >&2
    exit 1
fi

# Solver-construction lint: inside internal/verify, a bare solver must
# only ever be built in verify.go (the Verifier's constructor wires the
# interner, deadline and context into it); any other non-test file
# calling smt.New() would mint a solver without them.
if grep -rn 'smt\.New()' internal/verify --include='*.go' \
    --exclude='*_test.go' | grep -v '^internal/verify/verify\.go:'; then
    echo "ci: smt.New() outside verify.go in internal/verify" >&2
    exit 1
fi

# Formatting gate: every tracked Go file is gofmt-clean. Only tracked
# files are listed, so the git-ignored .bench_build/ (the benchmark's
# build cache and binaries) is never checked.
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "ci: gofmt needed: $unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# Run every benchmark once: -run '^$' skips the tests (they ran above), and
# -benchtime 1x executes each benchmark body a single time, so a benchmark
# that no longer works fails here instead of only when someone measures.
go test -run '^$' -bench . -benchtime 1x ./...

# Fuzz the simplex's exact rationals against math/big for a bounded time.
go test -run '^$' -fuzz '^FuzzRatArith$' -fuzztime 10s ./internal/smt/

# Fuzz the canonical plan encoding for a bounded time: two decoded plan or
# expression trees must encode alike exactly when they are structurally
# equal, so no two plans can share a memo key.
go test -run '^$' -fuzz '^FuzzCanonicalForm$' -fuzztime 10s ./internal/plan/

# Fuzz the durable store's log scan for a bounded time: on arbitrary bytes,
# Open must never panic and must accept exactly the records the reference
# per-record pread scan accepts, answering each accepted key as it does.
go test -run '^$' -fuzz '^FuzzStoreOpen$' -fuzztime 10s ./internal/store/

# The differential verdict-parity suite (a Verifier on a fresh private
# interner vs one on an interner shared across the run, as in the engine)
# and the model-round abort test (cancelled solver checks may cost proofs,
# never mint them) are part of the -race run above; run them by name as
# well so a test-filtering change can never silently drop them.
go test -race -run 'TestDifferentialVerdictParity|TestPipelineFuzzDifferential|TestModelRoundAbortDegradesSoundly' ./internal/verify/ .

# Memory-lifecycle parity: forced interner rotation (including concurrent
# with in-flight workers) and a warm restart through the durable store must
# both return verdicts identical to the unbounded cold run, and a cold
# run's verdict and witness records must match their pinned digest, so a
# store warmed by one version stays warm for the next. Also part of the
# -race run above; pinned by name for the same reason.
go test -race -run 'TestForcedRotationParity|TestRotationConcurrentWithWorkers|TestWarmRestartParity|TestStoreVerdictWitnessRecordsPinned' ./internal/engine/
go test -race -run 'TestFaultTornAppend|TestChecksumCorruptionLosesNeverFabricates|TestCloseRacesAppendsAndFlush' ./internal/store/

# Refutation soundness: every Refuted witness must replay, no Equivalent
# may be refutable by the same bounded search, and witnesses must survive
# a warm restart byte-identical. Also part of the -race run above; pinned
# by name for the same reason.
go test -race -run 'TestRefutationDifferential' .
go test -race -run 'TestBatchRefutation|TestWitnessWarmRestart' ./internal/engine/
go test -race -run 'TestWitnessRoundTrip' ./internal/store/

# The optcheck example gates itself: it exits nonzero unless both
# deliberately buggy rewrite rules are refuted with a counterexample and
# no sound rule is.
go run ./examples/optcheck >"/dev/null"

# --- spes-serve smoke test -------------------------------------------------
tmp=$(mktemp -d)
trap 'kill ${SERVE_PID:-} ${SHARD_A_PID:-} ${SHARD_B_PID:-} ${ROUTER_PID:-} 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/spes-serve" ./cmd/spes-serve
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 >"$tmp/serve.log" 2>&1 &
SERVE_PID=$!

# The first log line is "spes-serve: listening on 127.0.0.1:PORT".
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/serve.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
curl -sf "http://$ADDR/healthz" | grep -q '"status": "ok"'

# A FilterMerge rewrite the prover must prove equivalent.
curl -sf -X POST "http://$ADDR/v1/verify" -d '{
  "sql1": "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
  "sql2": "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5"
}' >"$tmp/verify.json"
grep -q '"verdict": "equivalent"' "$tmp/verify.json"

# Bad SQL must be a structured 400, never a verdict.
code=$(curl -s -o "$tmp/bad.json" -w '%{http_code}' -X POST "http://$ADDR/v1/verify" \
    -d '{"sql1": "SELEC 1", "sql2": "SELECT SALARY FROM EMP"}')
[ "$code" = 400 ]
grep -q '"code": "bad_query"' "$tmp/bad.json"

# /metrics must expose nonzero request and verdict series.
curl -sf "http://$ADDR/metrics" >"$tmp/metrics.txt"
grep -q 'spes_requests_total{endpoint="verify",code="200"} 1' "$tmp/metrics.txt"
grep -q 'spes_verdicts_total{verdict="equivalent"} 1' "$tmp/metrics.txt"
grep -q 'spes_engine_pairs_total 1' "$tmp/metrics.txt"

# SIGINT must drain gracefully (exit 0, drain banner in the log).
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/serve.log"

# --- chaos smoke test ------------------------------------------------------
# Boot the server with deterministic faults armed at every site and hammer
# it: the process must survive every injected panic/delay/cancel, answer
# only protocol-clean statuses, report recovered panics on /metrics, and
# still drain on SIGINT. (The in-depth chaos suite — soundness
# re-execution, goroutine-leak checks — runs in `go test -race` above as
# TestChaosAllSites; this stage proves the -faults flag end to end.)
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 \
    -faults "seed=7,rate=200,delay=1ms" >"$tmp/chaos.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/chaos.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
grep -q 'FAULT INJECTION ARMED' "$tmp/chaos.log"

i=0
while [ $i -lt 40 ]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/verify" -d '{
      "sql1": "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
      "sql2": "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5"
    }')
    case "$code" in
        200|500|503) ;;
        *) echo "chaos smoke: unexpected status $code"; exit 1 ;;
    esac
    i=$((i + 1))
done
kill -0 $SERVE_PID   # still alive after 40 fault-riddled requests

curl -sf "http://$ADDR/metrics" >"$tmp/chaos-metrics.txt"
grep -q 'spes_panics_recovered_total' "$tmp/chaos-metrics.txt"
grep -q 'spes_watchdog_aborts_total' "$tmp/chaos-metrics.txt"
! grep -q '^spes_panics_recovered_total 0$' "$tmp/chaos-metrics.txt"

kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/chaos.log"

# --- warm-restart smoke test -----------------------------------------------
# Durable warm state end to end: boot with a store directory, verify a
# batch, drain (flushing the write-behind queue), then restart on the SAME
# directory and re-verify the same batch. The restarted process must load
# the log (records reported at boot), answer obligations from it
# (spes_store_hits_total > 0 — its own caches are cold, so hits can only
# come from disk), and return the identical verdict sequence.
cat >"$tmp/batch.json" <<'EOF'
{"pairs": [
  {"id": "p1",
   "sql1": "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5",
   "sql2": "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5"},
  {"id": "p2",
   "sql1": "SELECT EMP_ID, SALARY FROM EMP WHERE SALARY > 100",
   "sql2": "SELECT EMP_ID, SALARY FROM EMP WHERE 100 < SALARY"},
  {"id": "p3",
   "sql1": "SELECT EMP_ID FROM EMP WHERE DEPT_ID < 2",
   "sql2": "SELECT EMP_ID FROM EMP WHERE DEPT_ID < 3"}
]}
EOF

"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -store-dir "$tmp/store" \
    -term-highwater 4096 >"$tmp/warm1.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/warm1.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
curl -sf -X POST "http://$ADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/warm1.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/warm1.json" >"$tmp/verdicts1.txt"
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/warm1.log"
[ -s "$tmp/store/spes-verdicts.log" ]   # the drain flushed verdicts to disk

"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -store-dir "$tmp/store" \
    -term-highwater 4096 >"$tmp/warm2.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/warm2.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
grep -q 'durable store' "$tmp/warm2.log"
curl -sf -X POST "http://$ADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/warm2.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/warm2.json" >"$tmp/verdicts2.txt"
diff "$tmp/verdicts1.txt" "$tmp/verdicts2.txt"   # restart must not change one verdict

curl -sf "http://$ADDR/metrics" >"$tmp/warm-metrics.txt"
grep -q 'spes_store_records' "$tmp/warm-metrics.txt"
grep -q 'spes_store_hits_total' "$tmp/warm-metrics.txt"
! grep -q '^spes_store_hits_total 0$' "$tmp/warm-metrics.txt"

kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/warm2.log"

# --- cluster smoke test ----------------------------------------------------
# Two shards behind spes-router, end to end: a routed batch must return
# verdicts identical to a single shard verifying everything itself; then
# one shard is SIGTERMed and the next batch must complete via failover —
# still verdict-identical, with the router's failover counter > 0 and no
# result attributed to the dead shard.
go build -o "$tmp/spes-router" ./cmd/spes-router

"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id a >"$tmp/shard-a.log" 2>&1 &
SHARD_A_PID=$!
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id b >"$tmp/shard-b.log" 2>&1 &
SHARD_B_PID=$!
for i in $(seq 1 50); do
    ADDR_A=$(sed -n 's/^spes-serve: listening on //p' "$tmp/shard-a.log" | head -1)
    ADDR_B=$(sed -n 's/^spes-serve: listening on //p' "$tmp/shard-b.log" | head -1)
    [ -n "$ADDR_A" ] && [ -n "$ADDR_B" ] && break
    sleep 0.1
done
[ -n "$ADDR_A" ] && [ -n "$ADDR_B" ]
grep -q 'spes-serve: shard-id a' "$tmp/shard-a.log"

# Reference verdicts: one shard verifying the whole batch directly.
curl -sf -X POST "http://$ADDR_A/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/cluster-ref.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/cluster-ref.json" >"$tmp/cluster-ref-verdicts.txt"

# A long probe interval pins the failure-discovery path: the router will
# learn of the kill below from the failing forward itself, not a probe.
"$tmp/spes-router" -addr 127.0.0.1:0 -probe-interval 1h \
    -retry-after-cap 200ms \
    -shards "a=http://$ADDR_A,b=http://$ADDR_B" >"$tmp/router.log" 2>&1 &
ROUTER_PID=$!
for i in $(seq 1 50); do
    RADDR=$(sed -n 's/^spes-router: listening on //p' "$tmp/router.log" | head -1)
    [ -n "$RADDR" ] && break
    sleep 0.1
done
[ -n "$RADDR" ]
curl -sf "http://$RADDR/healthz" | grep -q '"ring_size": 2'

# Routed batch with both shards up: verdict-identical to single-node.
curl -sf -X POST "http://$RADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/routed1.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/routed1.json" >"$tmp/routed1-verdicts.txt"
diff "$tmp/cluster-ref-verdicts.txt" "$tmp/routed1-verdicts.txt"

# Kill shard b. The router still has it in the ring (the next probe is an
# hour away), so the following batch hits the dead shard, fails over to a,
# and must still match the single-node verdicts exactly.
kill -TERM $SHARD_B_PID
wait $SHARD_B_PID
grep -q 'spes-serve: drained' "$tmp/shard-b.log"
curl -sf -X POST "http://$RADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/routed2.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/routed2.json" >"$tmp/routed2-verdicts.txt"
diff "$tmp/cluster-ref-verdicts.txt" "$tmp/routed2-verdicts.txt"
! grep -q '"shard": "b"' "$tmp/routed2.json"   # nothing attributed to the dead shard

curl -sf "http://$RADDR/metrics" >"$tmp/router-metrics.txt"
grep -q 'spes_router_forwards_total' "$tmp/router-metrics.txt"
grep -q 'spes_router_failover_events_total' "$tmp/router-metrics.txt"
! grep -q '^spes_router_failover_events_total 0$' "$tmp/router-metrics.txt"
curl -sf "http://$RADDR/healthz" | grep -q '"ring_size": 1'
curl -sf "http://$RADDR/v1/cluster/stats" | grep -q '"shards_reporting": 1'

# Both remaining processes must drain clean.
kill -TERM $ROUTER_PID
wait $ROUTER_PID
grep -q 'spes-router: drained' "$tmp/router.log"
kill -INT $SHARD_A_PID
wait $SHARD_A_PID
grep -q 'spes-serve: drained' "$tmp/shard-a.log"

# --- refutation smoke test -------------------------------------------------
# The optcheck buggy pairs end to end: a refutation-armed spes-serve must
# answer "refuted" with a counterexample witness for both, count them on
# the refuted verdict metric, and a 2-shard cluster behind spes-router
# must return byte-identical witnesses — the search is seeded from the
# pair fingerprint, so placement must not change the counterexample.
cat >"$tmp/buggy-batch.json" <<'EOF'
{"pairs": [
  {"id": "b1",
   "sql1": "SELECT EMP_ID FROM EMP WHERE NOT (SALARY > 10)",
   "sql2": "SELECT EMP_ID FROM EMP WHERE SALARY < 10"},
  {"id": "b2",
   "sql1": "SELECT DEPT_ID FROM EMP UNION ALL SELECT DEPT_ID FROM EMP",
   "sql2": "SELECT DEPT_ID FROM EMP UNION SELECT DEPT_ID FROM EMP"}
]}
EOF

# Batch responses are indented JSON and routed results carry extra fields
# (shard provenance), so witness identity is compared on extracted
# compacted witness objects, not raw bodies.
cat >"$tmp/extract_witness.go" <<'EOF'
// extract_witness prints "id verdict compact-witness" per batch result,
// failing if a refuted result is missing its witness.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
)

func main() {
	var resp struct {
		Results []struct {
			ID      string          `json:"id"`
			Verdict string          `json:"verdict"`
			Witness json.RawMessage `json:"witness"`
		} `json:"results"`
	}
	if err := json.NewDecoder(os.Stdin).Decode(&resp); err != nil {
		log.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.Verdict == "refuted" && len(r.Witness) == 0 {
			log.Fatalf("result %s: refuted without a witness", r.ID)
		}
		var compact bytes.Buffer
		if len(r.Witness) > 0 {
			if err := json.Compact(&compact, r.Witness); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s %s %s\n", r.ID, r.Verdict, compact.String())
	}
}
EOF
go build -o "$tmp/extract-witness" "$tmp/extract_witness.go"

"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -refute-budget 300 \
    >"$tmp/refute.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/refute.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
curl -sf -X POST "http://$ADDR/v1/verify/batch" -d @"$tmp/buggy-batch.json" >"$tmp/refute1.json"
"$tmp/extract-witness" <"$tmp/refute1.json" >"$tmp/refute-standalone.txt"
grep -q '^b1 refuted {' "$tmp/refute-standalone.txt"
grep -q '^b2 refuted {' "$tmp/refute-standalone.txt"

# The refuted verdict metric must count both pairs.
curl -sf "http://$ADDR/metrics" >"$tmp/refute-metrics.txt"
grep -q 'spes_verdicts_total{verdict="refuted"} 2' "$tmp/refute-metrics.txt"
grep -q 'spes_engine_refuted_total 2' "$tmp/refute-metrics.txt"
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/refute.log"

# Same batch through a 2-shard cluster: witnesses must be byte-identical.
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id ra \
    -refute-budget 300 >"$tmp/refute-a.log" 2>&1 &
SHARD_A_PID=$!
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id rb \
    -refute-budget 300 >"$tmp/refute-b.log" 2>&1 &
SHARD_B_PID=$!
for i in $(seq 1 50); do
    ADDR_A=$(sed -n 's/^spes-serve: listening on //p' "$tmp/refute-a.log" | head -1)
    ADDR_B=$(sed -n 's/^spes-serve: listening on //p' "$tmp/refute-b.log" | head -1)
    [ -n "$ADDR_A" ] && [ -n "$ADDR_B" ] && break
    sleep 0.1
done
[ -n "$ADDR_A" ] && [ -n "$ADDR_B" ]
"$tmp/spes-router" -addr 127.0.0.1:0 \
    -shards "ra=http://$ADDR_A,rb=http://$ADDR_B" >"$tmp/refute-router.log" 2>&1 &
ROUTER_PID=$!
for i in $(seq 1 50); do
    RADDR=$(sed -n 's/^spes-router: listening on //p' "$tmp/refute-router.log" | head -1)
    [ -n "$RADDR" ] && break
    sleep 0.1
done
[ -n "$RADDR" ]
curl -sf -X POST "http://$RADDR/v1/verify/batch" -d @"$tmp/buggy-batch.json" >"$tmp/refute2.json"
"$tmp/extract-witness" <"$tmp/refute2.json" >"$tmp/refute-routed.txt"
diff "$tmp/refute-standalone.txt" "$tmp/refute-routed.txt"   # placement must not change a witness

# The cluster-level stats aggregation must see both refutations.
curl -sf "http://$RADDR/v1/cluster/stats" | grep -q '"refuted": 2'

kill -TERM $ROUTER_PID
wait $ROUTER_PID
grep -q 'spes-router: drained' "$tmp/refute-router.log"
kill -INT $SHARD_A_PID
wait $SHARD_A_PID
grep -q 'spes-serve: drained' "$tmp/refute-a.log"
kill -INT $SHARD_B_PID
wait $SHARD_B_PID
grep -q 'spes-serve: drained' "$tmp/refute-b.log"

# --- constraint-aware smoke test -------------------------------------------
# The constraint suites by name under -race (also part of the full run
# above; pinned so a test-filtering change can never silently drop them):
# the constraint-dependent tier proves only with its constraints declared,
# axiom-site chaos degrades to not-proved, digests namespace one shared
# store, zero constraints stay byte-identical, and refutation witnesses
# over constrained catalogs replay and satisfy every declared constraint.
go test -race -run 'TestConstraintPairsProveOnlyWithConstraints|TestConstraintDDLDigestParity' ./internal/corpus/
go test -race -run 'TestConstraintAxiomsPanicDegrades|TestConstraintAxiomsCancelSound|TestConstraintStoreCrossContamination|TestEmptyConstraintSetParity' ./internal/engine/
go test -race -run 'TestSearchWitnessSatisfiesConstraints|TestReplayRejectsConstraintViolatingWitness' ./internal/refute/

# PK/FK join elimination end to end, twice against ONE store directory.
# With the FOREIGN KEY declared the parent side of the join is provably
# redundant and the pair verifies equivalent; restarted on the SAME store
# with the constraint-free schema the pair must come back not-proved with
# ZERO store hits — every stored verdict is keyed under the constraint
# digest, so nothing can leak across; restarted constrained again, the
# pair must answer equivalent warm from the store.
cat >"$tmp/constrained.sql" <<'EOF'
CREATE TABLE EMP (
  EMP_ID INT PRIMARY KEY,
  ENAME VARCHAR,
  SALARY INT,
  DEPT_ID INT NOT NULL REFERENCES DEPT (DEPT_ID)
);
CREATE TABLE DEPT (
  DEPT_ID INT PRIMARY KEY,
  DEPT_NAME VARCHAR
);
EOF
cat >"$tmp/unconstrained.sql" <<'EOF'
CREATE TABLE EMP (
  EMP_ID INT PRIMARY KEY,
  ENAME VARCHAR,
  SALARY INT,
  DEPT_ID INT
);
CREATE TABLE DEPT (
  DEPT_ID INT PRIMARY KEY,
  DEPT_NAME VARCHAR
);
EOF
cat >"$tmp/joinelim.json" <<'EOF'
{
  "sql1": "SELECT EMP.EMP_ID, EMP.SALARY FROM EMP JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
  "sql2": "SELECT EMP_ID, SALARY FROM EMP"
}
EOF

"$tmp/spes-serve" -schema "$tmp/constrained.sql" -addr 127.0.0.1:0 \
    -store-dir "$tmp/cstore" >"$tmp/con1.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/con1.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
grep -q 'spes-serve: constraint digest' "$tmp/con1.log"
curl -sf -X POST "http://$ADDR/v1/verify" -d @"$tmp/joinelim.json" >"$tmp/con1.json"
grep -q '"verdict": "equivalent"' "$tmp/con1.json"
grep -q '"constraint_digest"' "$tmp/con1.json"   # clients can key their own caches
CON_DIGEST=$(sed -n 's/.*"constraint_digest": "\([0-9a-f]*\)".*/\1/p' "$tmp/con1.json" | head -1)
[ -n "$CON_DIGEST" ]
curl -sf "http://$ADDR/v1/stats" | grep -q "\"constraint_digest\": \"$CON_DIGEST\""
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/con1.log"
[ -s "$tmp/cstore/spes-verdicts.log" ]

"$tmp/spes-serve" -schema "$tmp/unconstrained.sql" -addr 127.0.0.1:0 \
    -store-dir "$tmp/cstore" >"$tmp/con2.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/con2.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
curl -sf -X POST "http://$ADDR/v1/verify" -d @"$tmp/joinelim.json" >"$tmp/con2.json"
grep -q '"verdict": "not-proved"' "$tmp/con2.json"
! grep -q "\"constraint_digest\": \"$CON_DIGEST\"" "$tmp/con2.json"
curl -sf "http://$ADDR/metrics" >"$tmp/con2-metrics.txt"
grep -q '^spes_store_hits_total 0$' "$tmp/con2-metrics.txt"   # no cross-digest leak
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/con2.log"

"$tmp/spes-serve" -schema "$tmp/constrained.sql" -addr 127.0.0.1:0 \
    -store-dir "$tmp/cstore" >"$tmp/con3.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^spes-serve: listening on //p' "$tmp/con3.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
curl -sf -X POST "http://$ADDR/v1/verify" -d @"$tmp/joinelim.json" >"$tmp/con3.json"
grep -q '"verdict": "equivalent"' "$tmp/con3.json"
curl -sf "http://$ADDR/metrics" >"$tmp/con3-metrics.txt"
! grep -q '^spes_store_hits_total 0$' "$tmp/con3-metrics.txt"   # warm under the matching digest
kill -INT $SERVE_PID
wait $SERVE_PID
grep -q 'spes-serve: drained' "$tmp/con3.log"

# --- replication smoke test ------------------------------------------------
# Warm failover end to end: shard wb (the future victim) boots first with a
# store; shard wa boots tailing wb via -replicate-from. Verdicts proved on
# wb stream into wa's store. Then wb is SIGKILLed — no drain, no flush
# beyond what the tailer already copied — and the same batch re-routed
# through the router must come back verdict-identical, with the survivor
# answering the orphaned pairs from its replicated store (store hits > 0)
# rather than re-proving them cold.
"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id wb \
    -store-dir "$tmp/repl-b" >"$tmp/repl-b.log" 2>&1 &
SHARD_B_PID=$!
for i in $(seq 1 50); do
    ADDR_B=$(sed -n 's/^spes-serve: listening on //p' "$tmp/repl-b.log" | head -1)
    [ -n "$ADDR_B" ] && break
    sleep 0.1
done
[ -n "$ADDR_B" ]

"$tmp/spes-serve" -corpus calcite -addr 127.0.0.1:0 -shard-id wa \
    -store-dir "$tmp/repl-a" -replicate-from "wb=http://$ADDR_B" \
    -replicate-interval 20ms >"$tmp/repl-a.log" 2>&1 &
SHARD_A_PID=$!
for i in $(seq 1 50); do
    ADDR_A=$(sed -n 's/^spes-serve: listening on //p' "$tmp/repl-a.log" | head -1)
    [ -n "$ADDR_A" ] && break
    sleep 0.1
done
[ -n "$ADDR_A" ]
grep -q 'replicating from wb' "$tmp/repl-a.log"

# Prove the whole batch on the victim so its store holds every verdict the
# survivor will need, then wait for the tailer to drain it: the survivor's
# replication position must reach the victim's exact durable size.
curl -sf -X POST "http://$ADDR_B/v1/verify/batch" -d @"$tmp/batch.json" >/dev/null
for i in $(seq 1 100); do
    B_SIZE=$(curl -sf "http://$ADDR_B/v1/store/segments" | sed -n 's/.*"size": \([0-9]*\).*/\1/p' | head -1)
    A_POS=$(curl -sf "http://$ADDR_A/metrics" | sed -n 's/^spes_replication_position_bytes{origin="wb"} //p')
    [ -n "$B_SIZE" ] && [ "$B_SIZE" != 0 ] && [ "$A_POS" = "$B_SIZE" ] && break
    sleep 0.1
done
[ "$A_POS" = "$B_SIZE" ]
curl -sf "http://$ADDR_A/metrics" | grep -q 'spes_replication_records_total{origin="wb"} [1-9]'

"$tmp/spes-router" -addr 127.0.0.1:0 -probe-interval 1h \
    -retry-after-cap 200ms \
    -shards "wa=http://$ADDR_A,wb=http://$ADDR_B" >"$tmp/repl-router.log" 2>&1 &
ROUTER_PID=$!
for i in $(seq 1 50); do
    RADDR=$(sed -n 's/^spes-router: listening on //p' "$tmp/repl-router.log" | head -1)
    [ -n "$RADDR" ] && break
    sleep 0.1
done
[ -n "$RADDR" ]
# The router publishes the ring's failover assignment for operators to
# wire -replicate-from against.
curl -sf "http://$RADDR/healthz" | grep -q '"failover_to"'

# Reference verdicts with both shards up.
curl -sf -X POST "http://$RADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/repl1.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/repl1.json" >"$tmp/repl1-verdicts.txt"
grep -q '"shard": "wb"' "$tmp/repl1.json"   # the victim owned part of the batch

# SIGKILL the victim: no drain banner, no graceful anything.
kill -9 $SHARD_B_PID
wait $SHARD_B_PID || true
! grep -q 'spes-serve: drained' "$tmp/repl-b.log"

# Re-batch through the router: discovery of the death comes from the
# failing forward itself (the next probe is an hour away). Verdicts must
# be identical, and the survivor must have answered the orphaned pairs
# from its replicated store.
curl -sf -X POST "http://$RADDR/v1/verify/batch" -d @"$tmp/batch.json" >"$tmp/repl2.json"
grep -o '"verdict": "[a-z-]*"' "$tmp/repl2.json" >"$tmp/repl2-verdicts.txt"
diff "$tmp/repl1-verdicts.txt" "$tmp/repl2-verdicts.txt"
! grep -q '"shard": "wb"' "$tmp/repl2.json"

curl -sf "http://$ADDR_A/metrics" >"$tmp/repl-metrics.txt"
grep -q 'spes_replication_records_total{origin="wb"} [1-9]' "$tmp/repl-metrics.txt"
grep -q 'spes_store_hits_total [1-9]' "$tmp/repl-metrics.txt"
curl -sf "http://$RADDR/metrics" | grep -q 'spes_router_failover_pairs_total{shard="wb"} [1-9]'

kill -TERM $ROUTER_PID
wait $ROUTER_PID
grep -q 'spes-router: drained' "$tmp/repl-router.log"
kill -INT $SHARD_A_PID
wait $SHARD_A_PID
grep -q 'spes-serve: drained' "$tmp/repl-a.log"

# The benchmark is its own module (perfbench/go.mod), so the root ./...
# skips it; vet it and run its tests against the library types it reads.
(cd perfbench && go vet ./... && go test ./...)

# --- verdict gate ----------------------------------------------------------
# One second each of the benchmark's calcite-cold workload, of
# production-routed (the only workload that runs through the router and
# the server's coalescer) and of restart-warm (the only workload that runs
# engines over a reopened store) must each reproduce a pinned verdict
# digest. perfbench checks every
# verdict against its reference executor and exits nonzero on any CHECK
# FAILED; the digest pins the verdicts themselves, so any verdict change
# fails here until the value is updated on purpose (and the update
# recorded in CHANGES.md). Only verdicts are gated, never time: the host's
# speed varies too much.
verdict_gate() {
    if ! bash perfbench/run.sh --workload "$1" --seconds 1 --trace 0 >"$tmp/verdict-gate-$1.txt" ||
        ! grep -q "verdict digest $2" "$tmp/verdict-gate-$1.txt"; then
        cat "$tmp/verdict-gate-$1.txt"
        echo "ci: $1 verdict digest is not $2" >&2
        exit 1
    fi
}
verdict_gate calcite-cold 6ef731772b83670f
verdict_gate production-routed 6bf43fd0ef53d906
verdict_gate restart-warm 3a07881e3819c92c
