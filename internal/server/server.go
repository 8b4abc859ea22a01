// Package server is spes-serve's HTTP/JSON verification service: a thin,
// stdlib-only network layer over one long-lived engine.Engine, so the
// normalization memo, predicate-satisfiability cache, and obligation LRU
// persist — and compound — across requests.
//
// Endpoints:
//
//	POST /v1/verify        one pair    {"sql1": ..., "sql2": ...}
//	POST /v1/verify/batch  many pairs  {"pairs": [{"id","sql1","sql2"}, ...]}
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus text format
//
// Three service-level mechanisms wrap the engine:
//
//   - admission control: a bounded in-flight semaphore plus a bounded wait
//     queue; excess load is shed with 503 + Retry-After at the door, so
//     overload degrades availability, never verdict quality;
//   - in-flight coalescing: concurrent requests with the same text (the
//     two SQL strings, compared whole) share one verification — see
//     coalescer for the key and for why nothing is cached there;
//   - cancellation: each verification runs under a context bounded by the
//     per-request timeout and the server's lifetime, plumbed down to the
//     SMT model-round loop, so dropped deadlines and drains stop burning
//     solver time. Cancellation only ever degrades a verdict to
//     NotProved.
package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/schema"
	"spes/internal/store"
)

// Config tunes the service. The zero value of any field selects the
// documented default; Catalog is required.
type Config struct {
	// Catalog is the schema all queries are verified against.
	Catalog *schema.Catalog
	// VerifyTimeout caps each verification's wall time (default 30s).
	// A request's timeout_ms can tighten but never exceed it.
	VerifyTimeout time.Duration
	// MaxInFlight bounds concurrently-executing requests (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed with 503 (default 4×MaxInFlight).
	MaxQueue int
	// BatchWorkers is the default fan-out of /v1/verify/batch (default
	// GOMAXPROCS).
	BatchWorkers int
	// MaxBatchPairs bounds the pairs accepted in one batch request
	// (default 1024).
	MaxBatchPairs int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheSize is the engine's obligation-cache bound
	// (0 = engine.DefaultCacheSize).
	CacheSize int
	// RetryAfter is the hint sent with 503 responses (default 1s).
	RetryAfter time.Duration
	// WatchdogGrace is how long past its deadline a verification may stay
	// stuck before the engine's watchdog cancels it and abandons the wait
	// (0 = engine.DefaultWatchdogGrace).
	WatchdogGrace time.Duration
	// StorePath, when non-empty, is a directory for the durable verdict
	// store: definite verdicts and refutation witnesses persist there, so a
	// restarted server (or a new replica pointed at the same directory)
	// starts warm instead of stone cold. The server owns the store and
	// closes it on Shutdown.
	StorePath string
	// TermNodeHighWater, when > 0, rotates the engine's interner epoch
	// once the term DAG reaches this many nodes, bounding steady-state
	// term memory under adversarial workload diversity (0 = never rotate).
	TermNodeHighWater int
	// RefuteBudget, when > 0, runs the bounded refutation pass after each
	// failed proof: up to this many small random databases are executed
	// looking for a counterexample, turning not-proved into refuted with a
	// witness in the response. 0 (the default) keeps the server purely
	// symbolic.
	RefuteBudget int
	// ShardID, when non-empty, names this process in a router-fronted
	// cluster: echoed in every verify response, /healthz, /v1/stats, and
	// the spes_shard_info metric, so cross-shard traces and merged batch
	// responses attribute each verdict to the shard that produced it.
	ShardID string
	// ReplicateFrom lists peer shards whose durable stores this server
	// tails in the background (see replicate.go), so it is already warm for
	// their keyspaces when the ring hands their traffic over. Requires
	// StorePath: the replicated records land in this server's own log.
	ReplicateFrom []ReplicaOrigin
	// ReplicateInterval is the tailer's poll period once caught up
	// (default 500ms; lagging tailers poll much faster).
	ReplicateInterval time.Duration
	// ReplicateChunkBytes bounds one replication fetch (default
	// store.SegmentTargetBytes).
	ReplicateChunkBytes int
}

func (c Config) withDefaults() Config {
	if c.VerifyTimeout <= 0 {
		c.VerifyTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatchPairs <= 0 {
		c.MaxBatchPairs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReplicateInterval <= 0 {
		c.ReplicateInterval = 500 * time.Millisecond
	}
	if c.ReplicateChunkBytes <= 0 {
		c.ReplicateChunkBytes = store.SegmentTargetBytes
	}
	return c
}

// Server is the verification service. Create with New, serve with Serve
// or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	lim   *limiter
	coal  *coalescer
	store *store.Store // nil without Config.StorePath

	reg         *Registry
	reqTotal    *CounterVec
	verdicts    *CounterVec
	latency     *Histogram
	rejected    *CounterVec
	coalescedCt *Counter

	// Replication: one tailer per Config.ReplicateFrom origin, with its
	// counters held as labeled children so /metrics and /v1/stats read the
	// same atomics.
	replicators    []*replicator
	replStop       sync.Once
	replSegments   *CounterVec
	replRecords    *CounterVec
	replBytes      *CounterVec
	replDuplicates *CounterVec
	replErrors     *CounterVec
	replCorrupt    *CounterVec
	replMismatch   *CounterVec
	replLag        *GaugeVec
	replPos        *GaugeVec
	// srvPanics counts panics that escaped a handler and were recovered by
	// instrument or the coalescer (engine-level panics are recovered lower
	// down and counted in the engine's stats; Stats sums both).
	srvPanics atomic.Int64

	// verifyPlans is the engine call behind /v1/verify; tests substitute
	// it to observe and gate verifications without a real proof.
	verifyPlans func(ctx context.Context, id string, q1, q2 plan.Node) engine.Result

	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	start      time.Time

	httpSrv *http.Server
}

// New builds a Server over a fresh persistent engine. It returns an error
// only when the durable store cannot be opened; every other misconfiguration
// keeps the old panic behavior (they are programmer errors, not runtime
// conditions).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	if len(cfg.ReplicateFrom) > 0 && cfg.StorePath == "" {
		panic("server: Config.ReplicateFrom requires Config.StorePath")
	}
	opts := engine.Options{
		Workers:           cfg.BatchWorkers,
		CacheSize:         cfg.CacheSize,
		WatchdogGrace:     cfg.WatchdogGrace,
		TermNodeHighWater: cfg.TermNodeHighWater,
		RefuteBudget:      cfg.RefuteBudget,
	}
	var st *store.Store
	if cfg.StorePath != "" {
		var err error
		st, err = store.OpenDir(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		opts.Store = st
	}
	eng := engine.NewEngine(cfg.Catalog, opts)
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		lim:        newLimiter(cfg.MaxInFlight, cfg.MaxQueue),
		coal:       newCoalescer(),
		store:      st,
		reg:        NewRegistry(),
		baseCtx:    baseCtx,
		cancelBase: cancel,
		start:      time.Now(),
	}
	s.verifyPlans = eng.VerifyPlans
	s.coal.onPanic = func() { s.srvPanics.Add(1) }
	s.registerMetrics()
	s.startReplicators()
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Engine exposes the underlying persistent engine (stats, warmup).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Store exposes the durable verdict store, nil when the server was built
// without Config.StorePath. The server owns it; callers must not Close it.
func (s *Server) Store() *store.Store { return s.store }

func (s *Server) registerMetrics() {
	r := s.reg
	s.reqTotal = r.NewCounterVec("spes_requests_total",
		"HTTP requests by endpoint and status code.", "endpoint", "code")
	s.verdicts = r.NewCounterVec("spes_verdicts_total",
		"Verification verdicts returned, including batch pairs.", "verdict")
	s.latency = r.NewHistogram("spes_request_seconds",
		"End-to-end request latency in seconds.", DefaultLatencyBuckets)
	s.rejected = r.NewCounterVec("spes_rejected_total",
		"Requests shed by admission control.", "reason")
	s.coalescedCt = r.NewCounter("spes_coalesced_total",
		"Requests that shared another in-flight verification.")
	r.NewGaugeFunc("spes_in_flight",
		"Requests currently holding an execution slot.",
		func() float64 { return float64(s.lim.inFlight()) })
	r.NewGaugeFunc("spes_queue_depth",
		"Requests queued for an execution slot.",
		func() float64 { return float64(s.lim.depth()) })
	r.NewGaugeFunc("spes_up_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Engine series: one per StatsSnapshot field, declared by its tags and
	// read from the snapshot /v1/stats serves. Only the derived hit rate is
	// registered by hand.
	r.add(engineSeries{s})
	r.NewGaugeFunc("spes_engine_obligation_cache_hit_rate",
		"Obligation cache hit fraction in [0,1] (lifetime).",
		func() float64 { return s.Stats().ObligationHitRate() })
	if st := s.store; st != nil {
		r.NewIntFunc("spes_store_records",
			"Records in the durable store's log: those scanned at open plus those appended since.",
			func() int64 { return st.Snapshot().Records })
		r.NewIntFunc("spes_store_bytes",
			"Bytes in the durable store's append-only log.",
			func() int64 { return st.Snapshot().Bytes })
		r.NewIntFunc("spes_store_appends_total",
			"Records appended to the durable store this process (lifetime).",
			func() int64 { return st.Snapshot().Appends })
	}
	// Replication series are always registered (label parity is tested);
	// children appear once an origin is configured and its tailer runs.
	s.replSegments = r.NewCounterVec("spes_replication_segments_total",
		"Replication chunks fetched from an origin's log and applied locally.", "origin")
	s.replRecords = r.NewCounterVec("spes_replication_records_total",
		"Records durably applied from replicated chunks.", "origin")
	s.replBytes = r.NewCounterVec("spes_replication_bytes_total",
		"Log bytes fetched and applied from each origin.", "origin")
	s.replDuplicates = r.NewCounterVec("spes_replication_duplicates_total",
		"Replicated records already present locally (first-wins: the local record stood).", "origin")
	s.replErrors = r.NewCounterVec("spes_replication_errors_total",
		"Replication rounds that failed (fetch error, injected fault, position write).", "origin")
	s.replCorrupt = r.NewCounterVec("spes_replication_corrupt_chunks_total",
		"Replicated chunks rejected by record checksums and re-fetched.", "origin")
	s.replMismatch = r.NewCounterVec("spes_replication_digest_mismatch_total",
		"Replication rounds refused because the origin's constraint digest differs.", "origin")
	s.replLag = r.NewGaugeVec("spes_replication_lag_bytes",
		"Bytes of each origin's log not yet applied locally.", "origin")
	s.replPos = r.NewGaugeVec("spes_replication_position_bytes",
		"Byte offset into each origin's log the tailer has durably applied.", "origin")

	if id := s.cfg.ShardID; id != "" {
		// Info-style series: constant 1, the shard's identity in the label,
		// so a cluster dashboard can join per-shard scrapes by ID.
		s.reg.NewCounterVec("spes_shard_info",
			"Shard identity of this process (constant 1; the shard_id label carries the ID).",
			"shard_id").With(id).Store(1)
	}
}

// Stats is the server's snapshot of the engine counters, the one /metrics
// and /v1/stats both render: the engine's snapshot with the panics
// recovered in the HTTP layer folded into Panics.
func (s *Server) Stats() engine.StatsSnapshot {
	st := s.eng.Stats()
	st.Panics += s.srvPanics.Load()
	return st
}

// engineSeries renders one /metrics series per StatsSnapshot field, all
// from a single Stats call per scrape, so the verdict series of one scrape
// sum to its pairs series.
type engineSeries struct{ s *Server }

func (m engineSeries) render(w io.Writer) {
	st := m.s.Stats()
	for _, f := range engine.StatFields() {
		writeInt(w, f.Metric, f.Help, f.Value(&st))
	}
}

// Handler returns the service's HTTP handler (also useful under
// httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("/v1/verify/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/store/segments", s.handleStoreSegments)
	mux.HandleFunc("/v1/store/segments/data", s.handleStoreSegmentData)
	return mux
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe listens on addr (supports ":0"; see Addr for the bound
// port via the returned listener pattern in cmd/spes-serve) and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully drains the server: new connections are refused,
// /healthz flips to 503, and in-flight requests get until ctx expires to
// finish. If the grace period runs out, the base context is cancelled,
// which aborts the remaining solver work (each pair degrades to
// NotProved/cancelled — never a wrong verdict) so the drain still
// completes promptly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan error, 1)
	go func() { done <- s.httpSrv.Shutdown(context.Background()) }()
	var err error
	select {
	case err = <-done:
		s.cancelBase()
	case <-ctx.Done():
		s.cancelBase()
		err = <-done
	}
	// Stop the replication tailers before the store they write into
	// closes; then close the store only after every request goroutine has
	// finished: Close flushes the write-behind queue, so verdicts from the
	// final requests land on disk before the process exits.
	s.stopReplicators()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// instrument wraps a handler with admission control and metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Method != http.MethodPost {
			s.reqTotal.Inc(endpoint, "405")
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
			return
		}
		if err := s.lim.acquire(r.Context()); err != nil {
			if err == errOverload {
				s.rejected.Inc("overload")
				s.reqTotal.Inc(endpoint, "503")
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
				writeError(w, http.StatusServiceUnavailable, "overloaded",
					"server at capacity; retry later")
			} else {
				// Client went away while queued; 503 is the closest standard
				// status (nobody is listening anyway), and metrics must agree
				// with the wire — the reason label already distinguishes
				// cancellation from overload.
				s.rejected.Inc("cancelled")
				s.reqTotal.Inc(endpoint, "503")
				writeError(w, http.StatusServiceUnavailable, "cancelled",
					"request cancelled while queued")
			}
			return
		}
		defer s.lim.release()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			// Last-resort panic isolation: verification panics are recovered
			// into NotProved verdicts far below, so anything arriving here is
			// a handler bug — answer this request with a 500 (if it hasn't
			// written yet) and keep serving everyone else.
			if p := recover(); p != nil {
				s.srvPanics.Add(1)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal_error",
						"panic recovered; this request failed, the server did not")
				}
			}
			s.reqTotal.Inc(endpoint, strconv.Itoa(sw.code))
			s.latency.Observe(time.Since(start).Seconds())
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r)
	}
}

// retryAfterSecs renders cfg.RetryAfter as whole seconds for the
// Retry-After header, never below 1 — "Retry-After: 0" tells well-behaved
// clients to hammer an already-overloaded server.
func (s *Server) retryAfterSecs() int {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// statusWriter records the status code for metrics, and whether anything
// was written (so panic recovery knows if a 500 can still be sent).
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

// handleHealthz is the readiness probe the cluster router keys shard
// membership on: "ok" keeps a shard in the ring, "draining" (or
// unreachability) takes it out while its in-flight work completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"shard":  s.cfg.ShardID,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"shard":     s.cfg.ShardID,
		"uptime_s":  time.Since(s.start).Seconds(),
		"pairs":     s.eng.Stats().Pairs,
		"in_flight": s.lim.inFlight(),
	})
}

// handleStats is GET /v1/stats: the server's lifetime snapshot plus shard
// identity, the per-shard feed the router's /v1/cluster/stats aggregates.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	resp := StatsResponse{
		Shard:            s.cfg.ShardID,
		ConstraintDigest: s.eng.ConstraintDigest(),
		UptimeS:          time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		Engine:           s.Stats(),
	}
	if st := s.store; st != nil {
		ss := st.Snapshot()
		resp.Store = &ss
	}
	resp.Replication = s.ReplicationSnapshot()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Render(w)
}
