package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/schema"
	"spes/internal/server"
)

// Shard names one spes-serve backend. The ID is the ring identity: it must
// be stable across shard restarts (a shard that reboots on the same store
// directory under the same ID receives the same key range back).
type Shard struct {
	ID  string
	URL string // base URL, e.g. "http://127.0.0.1:8081"
}

// Config tunes the router. At least one Shard is required; the zero
// value of every other field selects the documented default.
type Config struct {
	// Catalog has no effect: the router routes by request text and never
	// builds a plan. The field remains only because the benchmark's
	// service workload still sets it.
	Catalog *schema.Catalog
	// Shards is the initial membership.
	Shards []Shard
	// VirtualNodes is the per-shard vnode count (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval is how often the background prober re-checks every
	// shard's /healthz (default 2s; < 0 disables the background loop —
	// tests drive ProbeNow themselves).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// ReprobeBase is the starting delay of the re-admission prober: when a
	// shard goes down, the router re-probes just that shard on a jittered
	// exponential backoff so a restarted shard rejoins in ~ReprobeBase
	// instead of waiting out a full ProbeInterval (default 250ms; < 0
	// disables re-admission probing — tests drive ProbeNow themselves).
	ReprobeBase time.Duration
	// ReprobeMax caps the re-admission backoff (default 5s).
	ReprobeMax time.Duration
	// ForwardTimeout bounds one forward attempt to one shard (default
	// 60s); the client's request context can only tighten it.
	ForwardTimeout time.Duration
	// MaxShedRetries is how many 503s the router rides out per shard per
	// sub-batch — honoring Retry-After — before failing over to the ring
	// successor (default 2).
	MaxShedRetries int
	// RetryAfterCap bounds how long one honored Retry-After hint may
	// stall a forward (default 5s): the hint is respected, a pathological
	// value is not allowed to wedge a batch.
	RetryAfterCap time.Duration
	// MaxBatchPairs bounds the pairs accepted in one batch request
	// (default 1024 — the spes-serve default, so any sub-batch the router
	// emits is accepted by any shard).
	MaxBatchPairs int
	// MaxBodyBytes bounds request bodies (default 1 MiB — spes-serve's own
	// default, so the router never admits a batch its shards would reject
	// as oversized when it is forwarded on).
	MaxBodyBytes int64
	// Client overrides the forwarding HTTP client (tests); default is a
	// dedicated client with keep-alives.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ReprobeBase == 0 {
		c.ReprobeBase = 250 * time.Millisecond
	}
	if c.ReprobeMax <= 0 {
		c.ReprobeMax = 5 * time.Second
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 60 * time.Second
	}
	if c.MaxShedRetries <= 0 {
		c.MaxShedRetries = 2
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 5 * time.Second
	}
	if c.MaxBatchPairs <= 0 {
		c.MaxBatchPairs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// shardState is the router's live view of one backend.
type shardState struct {
	Shard
	healthy  bool   // reachable and not draining: in the ring
	draining bool   // reported "draining": out of the ring, never forwarded to
	lastErr  string // last probe/forward failure, for /healthz and stats
}

func (ss *shardState) state() string {
	switch {
	case ss.draining:
		return "draining"
	case ss.healthy:
		return "healthy"
	default:
		return "down"
	}
}

// Router is the stateless routing tier over a ring of spes-serve shards.
// "Stateless" means no verification state: everything the router holds —
// membership, health, counters — is reconstructible by booting a new
// router against the same shard list.
type Router struct {
	cfg    Config
	client *http.Client

	mu     sync.Mutex
	shards map[string]*shardState
	ring   *Ring // over healthy shards; rebuilt on every state change

	// failoverPlan is each shard's ring inheritors at full membership —
	// the pure-function-of-configuration assignment operators wire
	// spes-serve -replicate-from against, published in /healthz. Computed
	// once: configured membership never changes over a router's lifetime.
	failoverPlan map[string][]string

	reg           *server.Registry
	reqTotal      *server.CounterVec // by endpoint and status code
	forwards      *server.CounterVec // sub-batch forwards by shard
	pairsRouted   *server.CounterVec // pairs routed by shard
	shedRetries   *server.CounterVec // 503-and-wait retries by shard
	failovers     *server.CounterVec // sub-batches failed over, by the shard they left
	failoverPairs *server.CounterVec // pairs re-routed off a failed shard, by that shard
	unplacedT     *server.Counter    // pairs no live shard could take (degraded verdicts)
	probeFlips    *server.Counter    // membership changes observed by the prober
	reprobes      *server.Counter    // re-admission probes of down shards

	draining   atomic.Bool
	baseCtx    context.Context
	cancelBase context.CancelFunc
	start      time.Time

	httpSrv     *http.Server
	probeStop   chan struct{}
	probeDone   chan struct{}
	reprobeKick chan struct{} // nudged by markDown; drained by reprobeLoop
	reprobeDone chan struct{}
}

// NewRouter builds a router over the configured shards. All shards start
// in the ring optimistically; the first probe (ProbeNow or the background
// loop) and forward failures correct the view. Misconfiguration panics —
// these are programmer errors, matching server.New.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		panic("cluster: Config.Shards must name at least one shard")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:         cfg,
		client:      client,
		shards:      map[string]*shardState{},
		reg:         server.NewRegistry(),
		baseCtx:     baseCtx,
		cancelBase:  cancel,
		start:       time.Now(),
		probeStop:   make(chan struct{}),
		probeDone:   make(chan struct{}),
		reprobeKick: make(chan struct{}, 1),
		reprobeDone: make(chan struct{}),
	}
	for _, s := range cfg.Shards {
		if s.ID == "" || s.URL == "" {
			panic("cluster: every shard needs an ID and a URL")
		}
		if _, dup := rt.shards[s.ID]; dup {
			panic("cluster: duplicate shard ID " + s.ID)
		}
		rt.shards[s.ID] = &shardState{Shard: s, healthy: true}
	}
	rt.rebuildRingLocked()
	rt.failoverPlan = map[string][]string{}
	full := rt.ring // all shards start healthy, so this IS full membership
	for id := range rt.shards {
		rt.failoverPlan[id] = full.FailoverTargets(id)
	}
	rt.registerMetrics()
	rt.httpSrv = &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if cfg.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.probeDone)
	}
	if cfg.ReprobeBase > 0 {
		go rt.reprobeLoop()
	} else {
		close(rt.reprobeDone)
	}
	return rt
}

func (rt *Router) registerMetrics() {
	r := rt.reg
	rt.reqTotal = r.NewCounterVec("spes_router_requests_total",
		"Router HTTP requests by endpoint and status code.", "endpoint", "code")
	rt.forwards = r.NewCounterVec("spes_router_forwards_total",
		"Sub-batches forwarded, by shard.", "shard")
	rt.pairsRouted = r.NewCounterVec("spes_router_pairs_total",
		"Pairs routed, by shard (counts re-sends after failover too).", "shard")
	rt.shedRetries = r.NewCounterVec("spes_router_shed_retries_total",
		"Forwards retried after a shard 503, honoring its Retry-After.", "shard")
	rt.failovers = r.NewCounterVec("spes_router_failovers_total",
		"Sub-batches failed over to a ring successor, by the shard that failed.", "shard")
	rt.failoverPairs = r.NewCounterVec("spes_router_failover_pairs_total",
		"Pairs re-routed to ring inheritors, by the shard whose failure moved them.", "shard")
	// The cross-shard totals are sums of the per-shard vectors, so they can
	// never disagree with them.
	r.NewIntFunc("spes_router_forward_attempts_total",
		"Total sub-batch forward attempts across all shards.", rt.forwards.Sum)
	r.NewIntFunc("spes_router_shed_retry_attempts_total",
		"Total 503-and-wait retries across all shards.", rt.shedRetries.Sum)
	r.NewIntFunc("spes_router_failover_events_total",
		"Total failover events (a sub-batch moving to a ring successor).", rt.failovers.Sum)
	rt.unplacedT = r.NewCounter("spes_router_unplaced_pairs_total",
		"Pairs no live shard could verify; degraded to not-proved, never fabricated.")
	rt.probeFlips = r.NewCounter("spes_router_membership_changes_total",
		"Shard ring membership changes observed (probe or forward failure).")
	rt.reprobes = r.NewCounter("spes_router_reprobes_total",
		"Re-admission probes of down shards (jittered-backoff loop).")
	r.NewGaugeFunc("spes_router_ring_size",
		"Shards currently in the ring (healthy, not draining).",
		func() float64 { return float64(rt.ringSnapshot().Size()) })
	r.NewGaugeFunc("spes_router_shards_configured",
		"Shards configured, regardless of health.",
		func() float64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return float64(len(rt.shards))
		})
	r.NewGaugeFunc("spes_router_up_seconds",
		"Seconds since the router started.",
		func() float64 { return time.Since(rt.start).Seconds() })
}

// rebuildRingLocked recomputes the ring from healthy members. Callers hold
// rt.mu.
func (rt *Router) rebuildRingLocked() {
	ids := make([]string, 0, len(rt.shards))
	for id, ss := range rt.shards {
		if ss.healthy && !ss.draining {
			ids = append(ids, id)
		}
	}
	rt.ring = NewRing(ids, rt.cfg.VirtualNodes)
}

// ringSnapshot returns the current ring; requests route against the
// snapshot they start with, so a membership change mid-request never
// splits one batch across two views.
func (rt *Router) ringSnapshot() *Ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// shardURL resolves a shard ID to its base URL ("" if unknown).
func (rt *Router) shardURL(id string) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ss, ok := rt.shards[id]; ok {
		return ss.URL
	}
	return ""
}

// markDown records a transport-level forward or probe failure: the shard
// leaves the ring until a probe sees it healthy again. In-flight requests
// to it are not interrupted — if they complete, their verdicts stand.
func (rt *Router) markDown(id, reason string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ss, ok := rt.shards[id]
	if !ok || (!ss.healthy && !ss.draining) {
		if ok {
			ss.lastErr = reason
		}
		return
	}
	ss.healthy, ss.draining, ss.lastErr = false, false, reason
	rt.rebuildRingLocked()
	rt.probeFlips.Inc()
	// Wake the re-admission prober (non-blocking: a pending kick covers
	// every shard that went down since the loop last looked).
	select {
	case rt.reprobeKick <- struct{}{}:
	default:
	}
}

// downShards snapshots the shards currently out of the ring for a reason
// other than draining (a draining shard asked to leave; it comes back via
// the regular probe when it restarts and reports "ok").
func (rt *Router) downShards() []Shard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []Shard
	for _, ss := range rt.shards {
		if !ss.healthy && !ss.draining {
			out = append(out, ss.Shard)
		}
	}
	return out
}

// reprobeLoop re-admits recovered shards: whenever something is down, it
// probes JUST the down shards on a jittered exponential backoff
// (ReprobeBase doubling to ReprobeMax), so a restarted shard rejoins the
// ring in roughly ReprobeBase rather than a full ProbeInterval, while a
// shard that stays dead costs a bounded trickle of probes. The jitter
// (±25%, drawn from the wall clock) keeps a fleet of routers from
// synchronizing their probes into a thundering herd at the reborn shard.
func (rt *Router) reprobeLoop() {
	defer close(rt.reprobeDone)
	for {
		select {
		case <-rt.probeStop:
			return
		case <-rt.reprobeKick:
		}
		backoff := rt.cfg.ReprobeBase
		for {
			down := rt.downShards()
			if len(down) == 0 {
				break
			}
			select {
			case <-rt.probeStop:
				return
			case <-time.After(jitter(backoff)):
			}
			var wg sync.WaitGroup
			for _, sh := range down {
				wg.Add(1)
				go func(sh Shard) {
					defer wg.Done()
					rt.reprobes.Inc()
					healthy, draining, reason := rt.probeOne(rt.baseCtx, sh)
					rt.setProbed(sh.ID, healthy, draining, reason)
				}(sh)
			}
			wg.Wait()
			if backoff *= 2; backoff > rt.cfg.ReprobeMax {
				backoff = rt.cfg.ReprobeMax
			}
		}
	}
}

// jitter spreads d by ±25% using the cheap wall-clock entropy this needs —
// probe scheduling wants decorrelation, not cryptography.
func jitter(d time.Duration) time.Duration {
	n := uint64(time.Now().UnixNano())
	n ^= n >> 33
	n *= 0xff51afd7ed558ccd
	n ^= n >> 33
	span := uint64(d) / 2
	if span == 0 {
		return d
	}
	return d - time.Duration(span/2) + time.Duration(n%span)
}

// setProbed applies one probe result.
func (rt *Router) setProbed(id string, healthy, draining bool, reason string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ss, ok := rt.shards[id]
	if !ok {
		return
	}
	changed := ss.healthy != healthy || ss.draining != draining
	ss.healthy, ss.draining, ss.lastErr = healthy, draining, reason
	if changed {
		rt.rebuildRingLocked()
		rt.probeFlips.Inc()
	}
}

// ProbeNow health-checks every shard once, synchronously: GET /healthz,
// 200 "ok" puts a shard in the ring, a "draining" report or any failure
// takes it out. Draining shards drain gracefully by construction: they
// stop receiving new sub-batches while their in-flight ones complete.
func (rt *Router) ProbeNow(ctx context.Context) {
	rt.mu.Lock()
	targets := make([]Shard, 0, len(rt.shards))
	for _, ss := range rt.shards {
		targets = append(targets, ss.Shard)
	}
	rt.mu.Unlock()

	var wg sync.WaitGroup
	for _, sh := range targets {
		wg.Add(1)
		go func(sh Shard) {
			defer wg.Done()
			healthy, draining, reason := rt.probeOne(ctx, sh)
			rt.setProbed(sh.ID, healthy, draining, reason)
		}(sh)
	}
	wg.Wait()
}

func (rt *Router) probeOne(ctx context.Context, sh Shard) (healthy, draining bool, reason string) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.URL+"/healthz", nil)
	if err != nil {
		return false, false, err.Error()
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, false, err.Error()
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, false, "healthz: " + err.Error()
	}
	switch {
	case resp.StatusCode == http.StatusOK && body.Status == "ok":
		return true, false, ""
	case body.Status == "draining":
		return false, true, ""
	default:
		return false, false, fmt.Sprintf("healthz: status %d (%q)", resp.StatusCode, body.Status)
	}
}

func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
			rt.ProbeNow(rt.baseCtx)
		}
	}
}

// routeKey places a pair on the ring: a stable hash of its request text,
// so every recurrence of a pair lands on the shard already warm for it.
// Two pairs whose keys collide merely share a shard, so the key need not
// be injective, and the router never parses or builds a query.
func routeKey(sql1, sql2 string) uint64 {
	return plan.HashKey(sql1 + "\x00" + sql2)
}

// Handler returns the router's HTTP handler (also useful under httptest).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", rt.instrument("verify", rt.handleVerify))
	mux.HandleFunc("/v1/verify/batch", rt.instrument("batch", rt.handleBatch))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/cluster/stats", rt.handleClusterStats)
	return mux
}

// Serve accepts connections on l until Shutdown.
func (rt *Router) Serve(l net.Listener) error {
	err := rt.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves.
func (rt *Router) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(l)
}

// Shutdown drains the router: /healthz flips to draining, the prober
// stops, in-flight requests get until ctx expires, then remaining
// forwards are cancelled (the shards finish or abandon that work under
// their own drain rules; the router just stops waiting).
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	select {
	case <-rt.probeStop:
	default:
		close(rt.probeStop)
	}
	done := make(chan error, 1)
	go func() { done <- rt.httpSrv.Shutdown(context.Background()) }()
	var err error
	select {
	case err = <-done:
		rt.cancelBase()
	case <-ctx.Done():
		rt.cancelBase()
		err = <-done
	}
	<-rt.probeDone
	<-rt.reprobeDone
	rt.client.CloseIdleConnections()
	return err
}

func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rt.reqTotal.Inc(endpoint, "405")
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			// A panic in the routing tier answers this request with a 500
			// and keeps routing everyone else — same last-resort isolation
			// as the shards' handler layer.
			if p := recover(); p != nil {
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal_error",
						"panic recovered; this request failed, the router did not")
				}
			}
			rt.reqTotal.Inc(endpoint, strconv.Itoa(sw.code))
		}()
		r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
		h(sw, r)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	type shardView struct {
		ID    string `json:"id"`
		URL   string `json:"url"`
		State string `json:"state"`
		Error string `json:"error,omitempty"`
		// FailoverTo is who inherits this shard's key range if it dies,
		// largest share first — the assignment to point the shards'
		// -replicate-from at so inheritors are warm before they're needed.
		FailoverTo []string `json:"failover_to,omitempty"`
	}
	views := make([]shardView, 0, len(rt.shards))
	for _, ss := range rt.shards {
		views = append(views, shardView{
			ID: ss.ID, URL: ss.URL, State: ss.state(), Error: ss.lastErr,
			FailoverTo: rt.failoverPlan[ss.ID],
		})
	}
	ringSize := rt.ring.Size()
	rt.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })

	status, code := "ok", http.StatusOK
	switch {
	case rt.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case ringSize == 0:
		// A router with an empty ring is alive but useless; report it as
		// unhealthy so a load balancer in front of several routers stops
		// sending traffic here.
		status, code = "no_shards", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":    status,
		"uptime_s":  time.Since(rt.start).Seconds(),
		"ring_size": ringSize,
		"shards":    views,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.Render(w)
}

// ClusterStats is the body of GET /v1/cluster/stats: every shard's engine
// snapshot plus the cluster-wide sums — the fleet analog of one engine's
// Stats.
type ClusterStats struct {
	RingSize int                `json:"ring_size"`
	Shards   []ShardStats       `json:"shards"`
	Totals   ShardStatsTotals   `json:"totals"`
	Router   RouterStatCounters `json:"router"`
}

// ShardStats is one shard's contribution.
type ShardStats struct {
	ID     string                `json:"id"`
	URL    string                `json:"url"`
	State  string                `json:"state"`
	Error  string                `json:"error,omitempty"`
	Uptime float64               `json:"uptime_s,omitempty"`
	Engine *engine.StatsSnapshot `json:"engine,omitempty"`
}

// ShardStatsTotals sums the reachable shards' engine snapshots.
type ShardStatsTotals struct {
	engine.StatsSnapshot
	Shards            int     `json:"shards_reporting"`
	ObligationHitRate float64 `json:"obligation_hit_rate"`
}

// RouterStatCounters is the router's own traffic view.
type RouterStatCounters struct {
	ForwardAttempts int64 `json:"forward_attempts"`
	ShedRetries     int64 `json:"shed_retries"`
	Failovers       int64 `json:"failovers"`
	UnplacedPairs   int64 `json:"unplaced_pairs"`
}

func (rt *Router) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	targets := make([]*shardState, 0, len(rt.shards))
	for _, ss := range rt.shards {
		targets = append(targets, &shardState{Shard: ss.Shard, healthy: ss.healthy, draining: ss.draining, lastErr: ss.lastErr})
	}
	ringSize := rt.ring.Size()
	rt.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })

	out := ClusterStats{RingSize: ringSize}
	var mu sync.Mutex
	var wg sync.WaitGroup
	out.Shards = make([]ShardStats, len(targets))
	for i, ss := range targets {
		out.Shards[i] = ShardStats{ID: ss.ID, URL: ss.URL, State: ss.state(), Error: ss.lastErr}
		wg.Add(1)
		go func(i int, ss *shardState) {
			defer wg.Done()
			snap, uptime, err := rt.fetchShardStats(r.Context(), ss.Shard)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if out.Shards[i].Error == "" {
					out.Shards[i].Error = err.Error()
				}
				return
			}
			out.Shards[i].Engine, out.Shards[i].Uptime = snap, uptime
			out.Totals.Shards++
			out.Totals.Add(*snap)
		}(i, ss)
	}
	wg.Wait()
	out.Totals.ObligationHitRate = out.Totals.StatsSnapshot.ObligationHitRate()
	out.Router = RouterStatCounters{
		ForwardAttempts: rt.forwards.Sum(),
		ShedRetries:     rt.shedRetries.Sum(),
		Failovers:       rt.failovers.Sum(),
		UnplacedPairs:   rt.unplacedT.Value(),
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) fetchShardStats(ctx context.Context, sh Shard) (*engine.StatsSnapshot, float64, error) {
	sctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, sh.URL+"/v1/stats", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var body server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, err
	}
	return &body.Engine, body.UptimeS, nil
}

// writeJSON / writeError / statusWriter mirror the server package's wire
// discipline so router and shard responses are indistinguishable to
// clients.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, server.ErrorResponse{Error: server.ErrorBody{Code: code, Message: message}})
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}
