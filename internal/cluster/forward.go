package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"spes/internal/engine"
	"spes/internal/fault"
	"spes/internal/server"
)

// This file is the router's data path: split a batch by routing key (a
// hash of each pair's request text), forward each shard's sub-batch
// concurrently, ride out shard 503s by honoring Retry-After, fail dead
// shards' pairs over to the ring successor, and reassemble verdicts in
// request order.
//
// Failure taxonomy, per forward (forward implements it for both
// endpoints):
//
//   - 200: verdicts placed at the pairs' original indices;
//   - 503: the shard is alive but shedding — wait out its Retry-After
//     (capped) and retry the SAME shard, bounded by MaxShedRetries, then
//     fail over WITHOUT marking the shard down (admission pressure is not
//     death);
//   - any other 5xx (and, for a batch, any non-200): fail over without
//     marking the shard down;
//   - transport error, or a batch body that does not decode: the shard is
//     presumed dead — mark it down (the prober re-adds it when it
//     recovers) and fail over to the ring successors of its pairs;
//   - ring exhausted: the leftover pairs degrade to not-proved with a
//     cluster_unavailable reason. Degraded means degraded: the router can
//     lose verdicts to total shard loss but can never invent one.

// errInjected marks transport failures manufactured by the router-forward
// fault site, so tests can tell them from real ones if they ever need to.
var errInjected = errors.New("cluster: injected forward failure")

// injectForward evaluates the router-forward fault site, converting both
// fault kinds into the transport-failure error path (a panic here must
// behave exactly like a connection dropping mid-forward: recovered,
// failed over, never propagated to the client).
func injectForward() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errInjected, p)
		}
	}()
	if fault.Inject(fault.RouterForward) == fault.Cancel {
		return errInjected
	}
	return nil
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	// Validation mirrors the shards' handleBatch so a client cannot tell a
	// router from a single shard by its 400s.
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "pairs must be non-empty")
		return
	}
	if len(req.Pairs) > rt.cfg.MaxBatchPairs {
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch of %d pairs exceeds the limit of %d", len(req.Pairs), rt.cfg.MaxBatchPairs))
		return
	}
	for i, p := range req.Pairs {
		if p.SQL1 == "" || p.SQL2 == "" {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("pair %d: both sql1 and sql2 are required", i))
			return
		}
	}

	start := time.Now()
	keys := make([]uint64, len(req.Pairs))
	for i, p := range req.Pairs {
		keys[i] = routeKey(p.SQL1, p.SQL2)
	}

	ctx, cancel := rt.requestCtx(r.Context())
	defer cancel()
	results, agg, unplaced := rt.routeBatch(ctx, req, keys)
	if unplaced == len(req.Pairs) {
		// Nothing was verified anywhere: the cluster is unavailable, and
		// saying so beats returning a batch of fabricated-looking
		// degradations.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no_shards",
			"no shard could take the batch; retry later")
		return
	}

	wall := time.Since(start)
	resp := server.BatchResponse{Results: results, Stats: agg}
	resp.Stats.Pairs = int64(len(results))
	resp.Stats.WallMS = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		resp.Stats.PairsPerSec = float64(len(results)) / wall.Seconds()
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestCtx bounds the whole routed request by the router's lifetime and
// a generous multiple of the per-forward timeout, so retry/failover chains
// cannot outlive the client's patience unboundedly.
func (rt *Router) requestCtx(reqCtx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(rt.baseCtx, 4*rt.cfg.ForwardTimeout)
	// Also stop when the client hangs up: unlike a shard's coalesced
	// leader, the router has no waiters to serve — forwarding for a gone
	// client is pure waste. The shards keep their own caches warm either
	// way. AfterFunc registers the cancel without a watcher goroutine.
	stop := context.AfterFunc(reqCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// routeBatch places every pair on a shard (re-routing around failures) and
// returns verdicts in request order, the summed sub-batch stats, and how
// many pairs no live shard could take.
func (rt *Router) routeBatch(ctx context.Context, req server.BatchRequest, keys []uint64) ([]server.VerifyResponse, server.BatchStatsJSON, int) {
	results := make([]server.VerifyResponse, len(req.Pairs))
	placed := make([]bool, len(req.Pairs))
	var agg server.BatchStatsJSON // Pairs, WallMS and PairsPerSec are the caller's
	// Each answering shard's latest engine state: a shard that answers
	// twice (a failover round) counts once.
	shardState := map[string]engine.StatsSnapshot{}

	pending := make([]int, len(req.Pairs))
	for i := range pending {
		pending[i] = i
	}
	// excluded is request-scoped: a shard that shed this batch stays out
	// of THIS request's re-routes but keeps serving everyone else.
	excluded := map[string]bool{}

	// Each iteration excludes at least one shard, so the loop is bounded
	// by the membership size; the explicit hop cap is belt and braces.
	for hop := 0; len(pending) > 0 && hop <= len(rt.cfg.Shards); hop++ {
		ring := rt.ringSnapshot().Without(excluded)
		if ring.Size() == 0 {
			break
		}
		groups := map[string][]int{}
		for _, i := range pending {
			shard := ring.Lookup(keys[i])
			groups[shard] = append(groups[shard], i)
		}
		order := make([]string, 0, len(groups))
		for shard := range groups {
			order = append(order, shard)
		}
		sort.Strings(order)

		type outcome struct {
			shard string
			idx   []int
			resp  *server.BatchResponse
			err   error
		}
		outcomes := make([]outcome, len(order))
		var wg sync.WaitGroup
		for gi, shard := range order {
			idx := groups[shard]
			sub := server.BatchRequest{
				Pairs:     make([]server.BatchPairJSON, len(idx)),
				TimeoutMS: req.TimeoutMS,
				Workers:   req.Workers,
			}
			for k, i := range idx {
				sub.Pairs[k] = req.Pairs[i]
			}
			wg.Add(1)
			go func(gi int, shard string, sub server.BatchRequest, idx []int) {
				defer wg.Done()
				resp, err := rt.forwardBatch(ctx, shard, sub)
				outcomes[gi] = outcome{shard: shard, idx: idx, resp: resp, err: err}
			}(gi, shard, sub, idx)
		}
		wg.Wait()

		pending = pending[:0]
		for _, oc := range outcomes {
			if oc.err == nil && len(oc.resp.Results) != len(oc.idx) {
				oc.err = fmt.Errorf("cluster: shard %s returned %d results for %d pairs", oc.shard, len(oc.resp.Results), len(oc.idx))
			}
			if oc.err != nil {
				// Fail the whole sub-batch over: re-verification on the
				// successor is sound because verdicts are deterministic.
				rt.failovers.Inc(oc.shard)
				rt.failoverPairs.With(oc.shard).Add(int64(len(oc.idx)))
				excluded[oc.shard] = true
				pending = append(pending, oc.idx...)
				continue
			}
			for k, i := range oc.idx {
				results[i] = oc.resp.Results[k]
				placed[i] = true
			}
			work, state := oc.resp.Stats.Split()
			agg.Add(work)
			shardState[oc.shard] = state
			agg.Workers = max(agg.Workers, oc.resp.Stats.Workers)
		}
	}
	for _, state := range shardState {
		agg.Add(state)
	}

	unplaced := 0
	for i := range results {
		if !placed[i] {
			unplaced++
			rt.unplacedT.Inc()
			results[i] = server.VerifyResponse{
				ID:      req.Pairs[i].ID,
				Verdict: engine.NotProved.String(),
				Reason:  "cluster_unavailable: no live shard could verify this pair",
			}
		}
	}
	return results, agg, unplaced
}

// forwardBatch sends one sub-batch to one shard and decodes its answer.
// Anything but a 200 fails over; a 200 whose body does not decode marks
// the shard down.
func (rt *Router) forwardBatch(ctx context.Context, shardID string, sub server.BatchRequest) (*server.BatchResponse, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	status, _, data, err := rt.forward(ctx, shardID, "/v1/verify/batch", body, len(sub.Pairs))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %s: unexpected status %d", shardID, status)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		rt.markDown(shardID, "bad batch response: "+err.Error())
		return nil, fmt.Errorf("cluster: shard %s: decoding batch response: %w", shardID, err)
	}
	return &br, nil
}

// forward is the one forward loop behind both endpoints: it POSTs body to
// one shard, rides out 503s by honoring the shard's Retry-After (capped)
// up to MaxShedRetries times, and returns the shard's definitive answer —
// any status below 500, body read in full. A transport error, or a body
// that cannot be read, marks the shard down; a 503 past the retries or any
// other 5xx is returned as an error without marking it down. Every error
// means the caller fails over.
func (rt *Router) forward(ctx context.Context, shardID, path string, body []byte, pairs int) (int, http.Header, []byte, error) {
	url := rt.shardURL(shardID)
	if url == "" {
		return 0, nil, nil, fmt.Errorf("cluster: unknown shard %q", shardID)
	}
	for retry := 0; ; retry++ {
		rt.forwards.Inc(shardID)
		rt.pairsRouted.With(shardID).Add(int64(pairs))
		resp, err := rt.post(ctx, url+path, body)
		if err != nil {
			rt.markDown(shardID, err.Error())
			return 0, nil, nil, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && retry < rt.cfg.MaxShedRetries {
			wait := retryAfterWait(resp, rt.cfg.RetryAfterCap)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.shedRetries.Inc(shardID)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rt.markDown(shardID, err.Error())
			return 0, nil, nil, err
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			return 0, nil, nil, fmt.Errorf("cluster: shard %s: status %d", shardID, resp.StatusCode)
		}
		return resp.StatusCode, resp.Header, data, nil
	}
}

// post is the single forward primitive: fault site, per-attempt timeout,
// one POST.
func (rt *Router) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	if err := injectForward(); err != nil {
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The attempt context must outlive the response body read; tie its
	// cancellation to the body's lifetime.
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// retryAfterWait reads the shard's Retry-After hint. The actual value is
// honored — the shard computed it, the router respects it — up to cap,
// which exists only so a corrupt or hostile hint cannot wedge a batch.
// With no hint, a short fixed wait keeps the retry from hammering.
func retryAfterWait(resp *http.Response, cap time.Duration) time.Duration {
	d := 50 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			d = time.Duration(n) * time.Second
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

func (rt *Router) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req server.VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return
	}
	if req.SQL1 == "" || req.SQL2 == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "both sql1 and sql2 are required")
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal_error", err.Error())
		return
	}
	ctx, cancel := rt.requestCtx(r.Context())
	defer cancel()

	ring := rt.ringSnapshot()
	// The owner first, then its ring successors: the failover order a
	// mid-request shard death walks.
	for _, shardID := range ring.Successors(routeKey(req.SQL1, req.SQL2), ring.Size()) {
		status, hdr, respBody, err := rt.forward(ctx, shardID, "/v1/verify", body, 1)
		if err != nil {
			rt.failovers.Inc(shardID)
			rt.failoverPairs.With(shardID).Add(1)
			continue
		}
		// Relay the shard's definitive answer byte for byte: the router
		// adds routing, not opinions.
		if ct := hdr.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(status)
		w.Write(respBody)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no_shards",
		"no shard could take the request; retry later")
}
