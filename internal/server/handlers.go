package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/store"
	"spes/internal/verify"
)

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	ID   string `json:"id,omitempty"`
	SQL1 string `json:"sql1"`
	SQL2 string `json:"sql2"`
	// TimeoutMS tightens (never extends) the server's verification
	// timeout for this request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// VerifyResponse is the body of a successful POST /v1/verify.
type VerifyResponse struct {
	ID string `json:"id,omitempty"`
	// Shard is the -shard-id of the process that verified this pair
	// (empty on a standalone server). A router-merged batch carries a mix
	// of shard values — the per-pair provenance of a clustered verdict.
	Shard string `json:"shard,omitempty"`
	// ConstraintDigest identifies the integrity-constraint set of the
	// catalog this verdict was decided under (empty for a constraint-free
	// catalog); the same pair can be equivalent under one constraint set
	// and not-proved under another, so clients caching verdicts must key
	// on it.
	ConstraintDigest string  `json:"constraint_digest,omitempty"`
	Verdict          string  `json:"verdict"`
	Cardinal         bool    `json:"cardinal"`
	Reason           string  `json:"reason,omitempty"`
	TimedOut         bool    `json:"timed_out,omitempty"`
	Cancelled        bool    `json:"cancelled,omitempty"`
	Coalesced        bool    `json:"coalesced,omitempty"`
	Deduped          bool    `json:"deduped,omitempty"`
	Panicked         bool    `json:"panicked,omitempty"`
	Aborted          bool    `json:"watchdog_abort,omitempty"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	// Witness backs a "refuted" verdict: the counterexample database and
	// the two differing output bags. Deterministic per pair, so routed and
	// standalone answers serialize identically. Absent otherwise.
	Witness *refute.Witness `json:"witness,omitempty"`
	Stats   *StatsJSON      `json:"stats,omitempty"`
}

// StatsJSON is a verify response's per-pair work record.
type StatsJSON = verify.Stats

// BatchRequest is the body of POST /v1/verify/batch.
type BatchRequest struct {
	Pairs []BatchPairJSON `json:"pairs"`
	// TimeoutMS bounds the whole batch (tightens the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers overrides the server's batch fan-out (capped by it).
	Workers int `json:"workers,omitempty"`
}

// BatchPairJSON is one pair of a batch request.
type BatchPairJSON struct {
	ID   string `json:"id,omitempty"`
	SQL1 string `json:"sql1"`
	SQL2 string `json:"sql2"`
}

// BatchResponse is the body of a successful POST /v1/verify/batch.
type BatchResponse struct {
	Results []VerifyResponse `json:"results"`
	Stats   BatchStatsJSON   `json:"stats"`
}

// BatchStatsJSON summarizes a batch request: the batch's engine counters
// plus its pool size, wall time and throughput.
type BatchStatsJSON struct {
	engine.StatsSnapshot
	Workers     int     `json:"workers"`
	WallMS      float64 `json:"wall_ms"`
	PairsPerSec float64 `json:"pairs_per_sec"`
}

// StatsResponse is the body of GET /v1/stats: the engine's lifetime
// snapshot plus shard identity — what the cluster router aggregates into
// /v1/cluster/stats.
type StatsResponse struct {
	Shard string `json:"shard,omitempty"`
	// ConstraintDigest identifies the catalog's integrity-constraint set
	// (empty for a constraint-free catalog).
	ConstraintDigest string               `json:"constraint_digest,omitempty"`
	UptimeS          float64              `json:"uptime_s"`
	Draining         bool                 `json:"draining,omitempty"`
	Engine           engine.StatsSnapshot `json:"engine"`
	Store            *store.Stats         `json:"store,omitempty"`
	// Replication, when this shard tails peers, reports each origin's tail
	// position, lag, and apply counters.
	Replication []ReplicationOriginJSON `json:"replication,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a stable machine-readable code plus a human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: message}})
}

// verifyCtx derives the context a verification runs under: bounded by the
// server's lifetime (so drains can abort solving) and by the effective
// timeout — the request's timeout_ms when given and tighter than the
// server ceiling, the ceiling otherwise. Deliberately NOT derived from
// the request context: a coalesced leader's work must survive its own
// client hanging up, because waiters share the result and the obligation
// cache keeps the proof's pieces either way.
func (s *Server) verifyCtx(timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.VerifyTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return context.WithTimeout(s.baseCtx, d)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	if req.SQL1 == "" || req.SQL2 == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "both sql1 and sql2 are required")
		return
	}

	start := time.Now()
	q1, q2, errResp := s.buildPair(req.SQL1, req.SQL2)
	if errResp != nil {
		if errResp.status != 0 {
			writeError(w, errResp.status, errResp.code, errResp.message)
			return
		}
		// Unsupported SQL is a verdict, not a client error: the queries
		// are well-formed, the prover just declines them. The metric label
		// is derived from the Verdict, same as every other outcome — a
		// hand-written string here once let this label drift from the enum.
		s.verdicts.Inc(engine.Unsupported.String())
		writeJSON(w, http.StatusOK, VerifyResponse{
			ID:               req.ID,
			Shard:            s.cfg.ShardID,
			ConstraintDigest: s.eng.ConstraintDigest(),
			Verdict:          engine.Unsupported.String(),
			Reason:           errResp.message,
			ElapsedMS:        msSince(start),
		})
		return
	}

	// Coalescing key: fingerprint bucket, canonical raw-pair key confirm —
	// the same two-step discipline as the engine's memo tables. Namespaced
	// by the constraint digest like every other verdict-bearing key: plan
	// serializations don't mention constraints, verdicts depend on them.
	rawKey := plan.PairKey(q1, q2)
	if d := s.eng.ConstraintDigest(); d != "" {
		rawKey = "c" + d + ":" + rawKey
	}
	fp := plan.HashKey(rawKey)

	res, coalesced, err := s.coal.do(r.Context(), fp, rawKey, func() engine.Result {
		vctx, cancel := s.verifyCtx(req.TimeoutMS)
		defer cancel()
		return s.verifyPlans(vctx, req.ID, q1, q2)
	})
	if err != nil {
		// This waiter's client gave up; the leader (if any) runs on.
		writeError(w, http.StatusServiceUnavailable, "cancelled",
			"request cancelled while awaiting a coalesced verification")
		return
	}
	if coalesced {
		s.coalescedCt.Inc()
	}
	verdict := res.Verdict.String()
	s.verdicts.Inc(verdict)
	writeJSON(w, http.StatusOK, VerifyResponse{
		ID:               req.ID,
		Shard:            s.cfg.ShardID,
		ConstraintDigest: s.eng.ConstraintDigest(),
		Verdict:          verdict,
		Cardinal:         res.Cardinal,
		Reason:           res.Reason,
		TimedOut:         res.TimedOut,
		Cancelled:        res.Cancelled,
		Coalesced:        coalesced,
		Panicked:         res.Panicked,
		Aborted:          res.WatchdogAbort,
		ElapsedMS:        msSince(start),
		Witness:          res.Witness,
		Stats:            &res.Stats,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "pairs must be non-empty")
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatchPairs {
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch of %d pairs exceeds the limit of %d", len(req.Pairs), s.cfg.MaxBatchPairs))
		return
	}
	pairs := make([]engine.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p.SQL1 == "" || p.SQL2 == "" {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("pair %d: both sql1 and sql2 are required", i))
			return
		}
		pairs[i] = engine.Pair{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2}
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.BatchWorkers {
		workers = s.cfg.BatchWorkers
	}

	vctx, cancel := s.verifyCtx(req.TimeoutMS)
	defer cancel()
	results, stats := s.eng.VerifyBatch(vctx, pairs, workers)

	resp := BatchResponse{
		Results: make([]VerifyResponse, len(results)),
		Stats: BatchStatsJSON{
			StatsSnapshot: stats.StatsSnapshot,
			Workers:       stats.Workers,
			WallMS:        ms(stats.Wall),
			PairsPerSec:   stats.PairsPerSec(),
		},
	}
	for i, res := range results {
		verdict := res.Verdict.String()
		s.verdicts.Inc(verdict)
		resp.Results[i] = VerifyResponse{
			ID:               res.ID,
			Shard:            s.cfg.ShardID,
			ConstraintDigest: s.eng.ConstraintDigest(),
			Verdict:          verdict,
			Cardinal:         res.Cardinal,
			Reason:           res.Reason,
			TimedOut:         res.TimedOut,
			Cancelled:        res.Cancelled,
			Deduped:          res.Deduped,
			Panicked:         res.Panicked,
			Aborted:          res.WatchdogAbort,
			ElapsedMS:        ms(res.Elapsed),
			Witness:          res.Witness,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildErr distinguishes a client error (status != 0) from unsupported
// SQL (status == 0: report as a verdict).
type buildErr struct {
	status  int
	code    string
	message string
}

// buildPair lowers both queries, classifying failures: unsupported SQL is
// a verdict (the prover's supported subset is a feature boundary, not a
// client mistake), anything else — parse errors, unknown tables or
// columns — is a 400.
func (s *Server) buildPair(sql1, sql2 string) (q1, q2 plan.Node, be *buildErr) {
	q1, err := s.eng.BuildSQL(sql1)
	if err != nil {
		return nil, nil, classifyBuildErr("sql1", err)
	}
	q2, err = s.eng.BuildSQL(sql2)
	if err != nil {
		return nil, nil, classifyBuildErr("sql2", err)
	}
	return q1, q2, nil
}

func classifyBuildErr(which string, err error) *buildErr {
	if plan.Unsupported(err) {
		return &buildErr{status: 0, message: which + ": " + err.Error()}
	}
	return &buildErr{
		status:  http.StatusBadRequest,
		code:    "bad_query",
		message: which + ": " + err.Error(),
	}
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
