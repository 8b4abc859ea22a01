// Package engine is the parallel batch-verification engine: it fans a
// slice of query pairs across a bounded worker pool and layers three
// memoizations over the sequential verifier so workload-scale runs (§7.3
// of the paper: thousands of production pairs) short-circuit repeated
// work:
//
//   - a normalization memo keyed by the raw plan's canonical key, so a
//     query appearing in many pairs is normalized once;
//   - pair dedupe keyed by the normalized pair's canonical key, so a
//     verbatim recurrence, or a textually different pair that normalizes
//     identically, is verified once and shares the verdict;
//   - a bounded LRU obligation cache keyed by the canonical serialization
//     of each solver obligation, so identical validity questions across
//     pairs are answered once.
//
// The memo tables are plain maps over the full canonical keys, which are
// injective, so a hit can never substitute a different plan or pair; and
// only definite solver verdicts are cached, so caching and parallelism
// never change a soundness-critical answer (the determinism tests pin
// this).
//
// Each worker owns its mutable state — a plan builder, a reused
// normalizer (whose predicate-satisfiability cache warms over the batch),
// and a fresh Verifier per pair — per verify.Verifier's concurrency
// contract; the only shared structures are the three concurrency-safe
// memo tables above.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spes/internal/fault"
	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/store"
	"spes/internal/verify"
)

// Verdict mirrors the root package's verdict (same values, so the public
// API converts by integer cast; spes's tests pin the correspondence).
type Verdict int

const (
	// NotProved means equivalence could not be established.
	NotProved Verdict = iota
	// Equivalent means the queries are fully equivalent under bag
	// semantics.
	Equivalent
	// Unsupported means a query uses SQL outside the supported subset.
	Unsupported
	// Refuted means the refutation pass found (and execution confirmed) a
	// concrete database on which the two plans' outputs differ; the
	// Result carries the witness.
	Refuted
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Unsupported:
		return "unsupported"
	case Refuted:
		return "refuted"
	}
	return "not-proved"
}

// Pair is one SQL query pair of a batch.
type Pair struct {
	ID   string
	SQL1 string
	SQL2 string
}

// PlanPair is one already-built pair of a batch.
type PlanPair struct {
	ID string
	Q1 plan.Node
	Q2 plan.Node
}

// Options configures a batch run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each pair's wall-clock verification time; a
	// pathological pair degrades to a not-proved timeout instead of
	// stalling the batch. 0 means no deadline.
	Timeout time.Duration
	// CacheSize bounds the obligation cache (0 = DefaultCacheSize,
	// < 0 disables the obligation cache only).
	CacheSize int
	// WatchdogGrace is how long past its deadline a verification may keep
	// its worker before the watchdog cancels the solver and abandons the
	// wait (0 = DefaultWatchdogGrace). The watchdog only arms when the
	// pair has a deadline, so purely library use without timeouts pays
	// nothing.
	WatchdogGrace time.Duration
	// DisableCaching turns off all three memo layers (obligation cache,
	// normalization memo, pair dedupe) — the engine then does exactly the
	// sequential per-pair work, just fanned out. Used by the determinism
	// tests and the speedup baseline.
	DisableCaching bool
	// DisableNormalization verifies raw plans (the paper's ablation).
	DisableNormalization bool
	// TermNodeHighWater, when > 0, bounds the shared term DAG: once the
	// interner holds at least this many nodes, the engine opens a new
	// interner epoch — workers that start after the rotation build through
	// a fresh interner, in-flight verifications finish soundly on the
	// retired one, and the retired DAG becomes collectable as obligation-
	// cache entries (whose keys carry the interner tag) age out of the LRU.
	// 0 means never rotate (the term DAG grows with workload diversity for
	// the process lifetime, as before).
	TermNodeHighWater int
	// Store, when non-nil, is the durable verdict store: obligations that
	// miss the in-memory cache are answered from it, and definite verdicts
	// and refutation witnesses are appended write-behind, so restarts and
	// new replicas start warm.
	Store *store.Store
	// ShareLemmas has no effect: a theory lemma lives only as long as the
	// solver check that learned it, so verdicts depend on the plans and the
	// constraint digest alone. The field remains only because the
	// benchmark's restart-warm workload still sets it.
	ShareLemmas bool
	// ConstraintDigest is the catalog's integrity-constraint digest
	// (schema.Catalog.ConstraintDigest). Through verify.Config it
	// namespaces the obligation cache, durable store, and witness keys,
	// because plan serializations do not mention constraints while
	// verdicts depend on them: the same pair can be equivalent under a
	// FOREIGN KEY and not-proved without it. The engine's own memo tables
	// need no namespace, since a Shared serves one digest for life. Empty
	// for a constraint-free catalog, which leaves every key byte-identical
	// to the pre-constraint engine. The catalog-aware entry points
	// (VerifyBatch, NewEngine) fill it automatically; plan-level batches
	// over a constrained catalog must set it themselves.
	ConstraintDigest string
	// RefuteBudget, when > 0, runs the bounded refutation pass on pairs
	// whose proof failed for a reason other than timeout, cancellation, or
	// watchdog abort: up to this many small concrete databases are
	// searched for one distinguishing the plans, turning NotProved into
	// Refuted with a witness. The search is seeded from the pair's plan
	// fingerprint, so witnesses are deterministic across workers, shards,
	// and restarts. 0 (the default) disables refutation.
	RefuteBudget int
}

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one pair's outcome.
type Result struct {
	ID       string
	Verdict  Verdict
	Cardinal bool
	Reason   string
	Stats    verify.Stats
	// Elapsed is this pair's wall time inside its worker (normalize +
	// verify, or the wait for the deduped leader).
	Elapsed time.Duration
	// Deduped marks a verdict shared from a structurally identical pair
	// verified elsewhere in the batch (Stats are zero: no work was done).
	Deduped bool
	// TimedOut marks a pair whose solver hit the per-pair deadline; its
	// NotProved verdict may be a timeout rather than a genuine failure.
	TimedOut bool
	// Cancelled marks a pair whose verification was aborted by context
	// cancellation (client disconnect, server drain). Like TimedOut it can
	// only degrade a verdict toward NotProved, never fabricate one: a
	// cancelled solver call returns Unknown, which proves nothing.
	Cancelled bool
	// Panicked marks a pair whose verification panicked and was recovered
	// into this NotProved internal-error verdict. The panic never proves
	// anything, so recovery can only weaken the verdict.
	Panicked bool
	// WatchdogAbort marks a pair abandoned by the per-verification
	// watchdog: the solver stayed stuck past deadline-plus-grace, its
	// context was cancelled, and the worker stopped waiting. NotProved,
	// like every other abort.
	WatchdogAbort bool
	// Witness backs a Refuted verdict: the concrete database and differing
	// output bags found by the refutation pass, already re-confirmed by
	// execution. Nil for every other verdict. Dedupe followers share the
	// leader's witness the same way they share its verdict — Refuted is a
	// definite outcome, a deterministic function of the plans.
	Witness *refute.Witness
	// Stack carries a truncated goroutine stack when Panicked is set, for
	// operators diagnosing the fault (never interpreted by the pipeline).
	Stack string
}

// normMemoMax bounds the normalization memo: when the entry count reaches
// it the memo resets wholesale (generation eviction). Batches rarely come
// near it, but a long-running server engine would otherwise grow without
// bound as distinct queries stream past.
const normMemoMax = 1 << 15

// normMemo memoizes normalization results by the raw plan's canonical
// key.
type normMemo struct {
	mu     sync.Mutex
	m      map[string]plan.Node
	hits   int64
	misses int64
}

func (m *normMemo) lookup(key string) (plan.Node, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.m[key]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return n, ok
}

func (m *normMemo) store(key string, n plan.Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.m) >= normMemoMax {
		m.m = make(map[string]plan.Node)
	}
	m.m[key] = n // a racing worker's result is structurally equal
}

func (m *normMemo) counters() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// dedupeMap coordinates pair dedupe: exactly one claimant per canonical
// normalized-pair key becomes the leader and verifies; followers wait on
// the entry and copy the verdict.
type dedupeMap struct {
	mu sync.Mutex
	m  map[string]*dedupeEntry
}

type dedupeEntry struct {
	done chan struct{}
	res  Result // verdict fields only; set by the leader before close(done)
}

// claim returns the pair's entry and whether the caller is its leader.
func (d *dedupeMap) claim(key string) (*dedupeEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.m[key]; ok {
		return e, false
	}
	e := &dedupeEntry{done: make(chan struct{})}
	d.m[key] = e
	return e, true
}

// Shared is the state behind a worker pool: options plus the
// concurrency-safe memo layers. Batch entry points build one Shared per
// batch; a long-running Engine keeps one alive across requests. Workers
// are created per goroutine with NewWorker.
type Shared struct {
	opts  Options
	cache *ObligationCache // nil when disabled
	norm  *normMemo        // nil when disabled
	dedup *dedupeMap       // nil when disabled or persistent

	// parent, when non-nil, receives a copy of every recorded result: a
	// batch overlay (Engine.VerifyBatch) counts its work into the
	// long-lived engine's totals as well as its own.
	parent *Shared

	// statsMu guards stats, the live per-pair counters: record adds each
	// result under it and Snapshot copies it, so a snapshot never tears.
	statsMu sync.Mutex
	stats   StatsSnapshot
	// rotations counts interner epoch rotations (on the root only).
	rotations atomic.Int64

	// keyMu/keys memoize canonical serializations by node pointer: callers
	// that verify one plan in many pairs (hot queries, shared builds) pass
	// the same immutable Node, so its tree is serialized once per batch.
	// Distinct pointers to equal trees merely miss — correctness only needs
	// pointer identity to imply key identity, which immutability gives.
	keyMu sync.Mutex
	keys  map[plan.Node]string

	// sat is the cross-worker predicate-satisfiability cache handed to
	// every worker's Normalizer (nil when caching is disabled).
	sat *satTable

	// in is the term interner every worker's Verifier builds through.
	// Sharing it across workers means each distinct term is allocated once
	// per batch — or once per engine lifetime for the persistent form —
	// and obligation-cache keys derive from its IDs in O(1). It is an
	// atomic pointer because epoch rotation (maybeRotate) swaps it while
	// workers are reading; overlays do not hold their own copy but delegate
	// to the root (interner()), so a rotation is visible to every layer at
	// once. rotMu serializes the swap itself.
	in    atomic.Pointer[fol.Interner]
	rotMu sync.Mutex
}

// interner returns the engine's current-epoch interner, delegating to the
// root Shared so batch overlays observe rotations immediately.
func (s *Shared) interner() *fol.Interner {
	if s.parent != nil {
		return s.parent.interner()
	}
	return s.in.Load()
}

// root returns the bottom of the overlay chain — the Shared that owns the
// interner and the epoch counter.
func (s *Shared) root() *Shared {
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// maybeRotate opens a new interner epoch once the current one crosses the
// configured high-water mark. It runs on the root Shared after each
// recorded pair — between units of work, never inside one — so a rotation
// can only be observed by a verifier at construction time: in-flight
// verifiers keep the interner they captured (an old epoch's interner keeps
// working) and finish their pair soundly, while every pair that starts
// afterwards builds through the fresh epoch. Obligation-cache entries from
// an old epoch carry its tag in their keys, so they can never answer a
// new-epoch lookup and simply age out of the LRU; the durable store is
// keyed canonically and is untouched by rotation.
func (s *Shared) maybeRotate() {
	hw := s.opts.TermNodeHighWater
	if hw <= 0 {
		return
	}
	cur := s.in.Load()
	if cur.Len() < hw {
		return
	}
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	if s.in.Load() != cur {
		return // another worker rotated while we waited
	}
	s.in.Store(fol.NewInterner())
	s.rotations.Add(1)
}

// satTableMax bounds the predicate-satisfiability cache the same way
// normMemoMax bounds the normalization memo.
const satTableMax = 1 << 16

// satTable implements normalize.SatCache with a mutex-guarded map; the
// relation it caches is deterministic, so last-write-wins races are
// writes of equal values.
type satTable struct {
	mu sync.Mutex
	m  map[string]bool
}

func (t *satTable) Lookup(key string) (sat, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sat, ok = t.m[key]
	return sat, ok
}

func (t *satTable) Store(key string, sat bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= satTableMax {
		t.m = make(map[string]bool)
	}
	t.m[key] = sat
}

// record folds one completed result into the live counters (and the
// parent's, for batch overlays). Every pair outcome — verified, deduped,
// cancelled, or failed to build — is recorded exactly once.
func (s *Shared) record(r Result) {
	s.statsMu.Lock()
	s.stats.addResult(r)
	s.statsMu.Unlock()
	if s.parent != nil {
		s.parent.record(r)
		return
	}
	// Root only: a completed pair is the epoch boundary — check the
	// high-water mark between units of work, never inside one.
	s.maybeRotate()
}

// Snapshot returns the current counters. Concurrency-safe and consistent:
// the per-pair counters are copied under the same mutex record adds under,
// so the verdict counts always sum to Pairs. The batch entry points also
// use it, so BatchStats and a live Snapshot can never disagree about what
// the hot path counted.
func (s *Shared) Snapshot() StatsSnapshot {
	s.statsMu.Lock()
	snap := s.stats
	s.statsMu.Unlock()
	if s.norm != nil {
		snap.NormHits, snap.NormMisses = s.norm.counters()
	}
	if s.cache != nil {
		snap.ObligationHits, snap.ObligationMisses = s.cache.Counters()
	}
	snap.TermNodes = int64(s.interner().Len())
	snap.InternerEpochs = 1 + s.root().rotations.Load()
	return snap
}

// NewShared builds batch state from options.
func NewShared(opts Options) *Shared {
	s := &Shared{opts: opts}
	s.in.Store(fol.NewInterner())
	if !opts.DisableCaching {
		if opts.CacheSize >= 0 {
			s.cache = NewObligationCache(opts.CacheSize)
		}
		s.norm = &normMemo{m: make(map[string]plan.Node)}
		s.dedup = &dedupeMap{m: make(map[string]*dedupeEntry)}
		s.keys = make(map[plan.Node]string)
		s.sat = &satTable{m: make(map[string]bool)}
	}
	return s
}

// keyOf returns plan.Key(n), memoized by node pointer when the keys map is
// enabled. A persistent engine runs with keys == nil — request plans are
// freshly built and never share pointers, so the memo would be a pure leak
// there — and just serializes.
func (s *Shared) keyOf(n plan.Node) string {
	if s.keys == nil {
		return plan.Key(n)
	}
	s.keyMu.Lock()
	k, ok := s.keys[n]
	s.keyMu.Unlock()
	if ok {
		return k
	}
	k = plan.Key(n)
	s.keyMu.Lock()
	s.keys[n] = k
	s.keyMu.Unlock()
	return k
}

// ForEach fans indices [0, n) across the worker pool. Each goroutine gets
// its own Worker (cat may be nil when fn only uses plan-level entry
// points); fn must write results into caller-owned, per-index storage.
// Returns the wall time of the fan-out.
func (s *Shared) ForEach(cat *schema.Catalog, n int, fn func(w *Worker, i int)) time.Duration {
	return s.ForEachContext(context.Background(), cat, n, fn)
}

// ForEachContext is ForEach under a context. Cancellation does not skip
// indices — every fn call still runs, so result slices stay fully
// populated — but the ctx-aware worker entry points return a cancelled
// Result immediately, so a cancelled fan-out drains in O(n) cheap calls
// rather than n verifications.
//
// Panic isolation: each index runs under a recover() guard, so a fault
// that escapes the per-pair recovery inside the worker entry points
// (e.g. a worker-spawn failure, or a panic in fn's own bookkeeping)
// costs that one index — its result slot keeps its zero value, which is
// NotProved — instead of killing the goroutine and deadlocking the
// index feed. Workers are constructed lazily so a spawn panic is
// retried on the next index rather than poisoning the whole lane.
func (s *Shared) ForEachContext(ctx context.Context, cat *schema.Catalog, n int, fn func(w *Worker, i int)) time.Duration {
	workers := s.opts.workerCount()
	if workers > n && n > 0 {
		workers = n
	}
	start := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w *Worker
			for i := range idx {
				func() {
					defer func() {
						if p := recover(); p != nil {
							// Recovered outside the per-pair layer: the
							// slot stays zero (NotProved); record the
							// degraded outcome so the counters still see
							// every pair.
							s.record(PanicResult("", p))
						}
					}()
					if w == nil {
						w = s.NewWorker(cat)
					}
					fn(w, i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return time.Since(start)
}

// Worker is the per-goroutine state of a batch: a plan builder, a reused
// normalizer, and a handle on the shared memo layers. A Worker must not be
// shared across goroutines.
type Worker struct {
	shared  *Shared
	builder *plan.Builder
	nz      *normalize.Normalizer

	// verifiersBuilt counts fresh Verifiers constructed by this worker;
	// the engine tests assert one per verified (non-deduped) pair,
	// enforcing verify.Verifier's ownership contract.
	verifiersBuilt int
}

// NewWorker returns a worker bound to this batch's shared state. cat may
// be nil when only plan-level entry points are used.
func (s *Shared) NewWorker(cat *schema.Catalog) *Worker {
	fault.Inject(fault.WorkerSpawn)
	w := &Worker{shared: s, nz: normalize.New(normalize.Options{})}
	if s.sat != nil {
		w.nz.SetSatCache(s.sat)
	}
	if cat != nil {
		w.builder = plan.NewBuilder(cat)
	}
	return w
}

// VerifiersBuilt returns how many fresh Verifiers this worker constructed.
func (w *Worker) VerifiersBuilt() int { return w.verifiersBuilt }

// normalizePlan applies normalization through the shared memo.
func (w *Worker) normalizePlan(q plan.Node) plan.Node {
	fault.Inject(fault.Normalize) // cancel outcome: nothing to cancel here
	if w.shared.opts.DisableNormalization {
		return q
	}
	if w.shared.norm == nil {
		return w.nz.Normalize(q)
	}
	key := w.shared.keyOf(q)
	if n, ok := w.shared.norm.lookup(key); ok {
		return n
	}
	n := w.nz.Normalize(q)
	w.shared.norm.store(key, n)
	return n
}

// DefaultWatchdogGrace is how long past its deadline a verification may
// keep its worker before the watchdog abandons it.
const DefaultWatchdogGrace = 2 * time.Second

// check runs one verification with a fresh Verifier, applying the batch's
// deadline, the caller's context, and the obligation cache. When the pair
// has a deadline, the verification runs under a watchdog (checkWatchdog)
// so a solver stuck past deadline-plus-grace cannot pin the worker.
func (w *Worker) check(ctx context.Context, q1, q2 plan.Node) Result {
	cfg := verify.Config{
		Interner:         w.shared.interner(),
		RefuteBudget:     w.shared.opts.RefuteBudget,
		ConstraintDigest: w.shared.opts.ConstraintDigest,
	}
	if w.shared.cache != nil {
		cfg.Cache = w.shared.cache
	}
	if st := w.shared.opts.Store; st != nil {
		// Guarded assignment: a nil *store.Store must stay a nil interface,
		// not a typed nil that passes != nil checks downstream.
		cfg.Store = st
		cfg.Witnesses = st
	}
	if w.shared.opts.Timeout > 0 {
		cfg.Deadline = time.Now().Add(w.shared.opts.Timeout)
	}
	if ctx != nil && ctx != context.Background() {
		cfg.Ctx = ctx
		if dl, ok := ctx.Deadline(); ok && (cfg.Deadline.IsZero() || dl.Before(cfg.Deadline)) {
			cfg.Deadline = dl
		}
	}
	w.verifiersBuilt++
	if cfg.Deadline.IsZero() {
		return runCheck(cfg, q1, q2)
	}
	return w.checkWatchdog(cfg, q1, q2)
}

// runCheck is the direct verification behind check. Callers guarantee
// panic recovery (protect, or checkWatchdog's goroutine).
//
// The refutation pass runs only after a completed-but-failed proof:
// Verifier.Refute is a no-op when the solver timed out or was cancelled
// (a degraded NotProved says nothing about the pair), and the watchdog
// path (checkWatchdog) returns its abort result without ever reaching
// this function's refutation branch — so degraded verdicts stay honest
// NotProved and wall-clock pressure can only lose witnesses.
func runCheck(cfg verify.Config, q1, q2 plan.Node) Result {
	v := verify.NewWithConfig(cfg)
	out := v.Check(q1, q2)
	r := Result{Verdict: NotProved, Cardinal: out.Cardinal}
	if out.Full {
		r.Verdict = Equivalent
	} else if w := v.Refute(q1, q2); w != nil {
		r.Verdict = Refuted
		r.Witness = w
		r.Reason = "counterexample database found"
	}
	r.Stats = v.Stats()
	if v.TimedOut() {
		r.TimedOut = true
		if r.Verdict == NotProved {
			r.Reason = "timeout"
		}
	}
	if v.Cancelled() {
		r.Cancelled = true
		if r.Verdict == NotProved && r.Reason == "" {
			r.Reason = "cancelled"
		}
	}
	return r
}

// checkWatchdog runs the verification on a helper goroutine and waits at
// most until deadline-plus-grace. The solver polls its deadline and
// context in the model-round loop (and the CDCL conflict loop), so a
// well-behaved slow pair returns a timeout verdict on its own; the
// watchdog exists for the pathological remainder — work stuck between
// poll points. When it fires, the solver's context is cancelled and the
// wait abandoned: the request gets NotProved/watchdog_abort now, and the
// stuck goroutine exits at its next cancellation poll (its eventual
// result is discarded — necessarily NotProved, since an aborted solver
// only ever answers Unknown).
func (w *Worker) checkWatchdog(cfg verify.Config, q1, q2 plan.Node) Result {
	grace := w.shared.opts.WatchdogGrace
	if grace <= 0 {
		grace = DefaultWatchdogGrace
	}
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	wctx, cancel := context.WithCancel(base)
	defer cancel()
	cfg.Ctx = wctx

	resCh := make(chan Result, 1) // buffered: an abandoned sender never leaks
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- PanicResult("", p)
			}
		}()
		resCh <- runCheck(cfg, q1, q2)
	}()
	timer := time.NewTimer(time.Until(cfg.Deadline) + grace)
	defer timer.Stop()
	select {
	case r := <-resCh:
		return r
	case <-timer.C:
		cancel()
		return Result{Verdict: NotProved, Reason: "watchdog_abort", WatchdogAbort: true}
	}
}

// PanicResult converts a recovered panic value into the sound degraded
// verdict: NotProved with an internal-error reason and a truncated stack.
// A nil p (runtime.Goexit unwinding through the recovery point) degrades
// the same way. The verdict can only ever be weaker than what a healthy
// run would have produced — a panic proves nothing.
func PanicResult(id string, p any) Result {
	msg := "goroutine exited"
	if p != nil {
		msg = fmt.Sprint(p)
	}
	return Result{
		ID:       id,
		Verdict:  NotProved,
		Reason:   "internal_error: " + msg,
		Panicked: true,
		Stack:    truncatedStack(),
	}
}

// maxStackBytes bounds the stack carried by a panic verdict; enough for
// the fault's frames, small enough to log and ship in stats.
const maxStackBytes = 4 << 10

func truncatedStack() string {
	buf := make([]byte, maxStackBytes)
	n := runtime.Stack(buf, false)
	return string(buf[:n])
}

// protect runs fn, converting an escaping panic into a NotProved
// internal-error result, so one poisoned pair can never take down a
// worker pool or a server request.
func protect(fn func() Result) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r = PanicResult("", p)
		}
	}()
	return fn()
}

// VerifyPlans verifies one already-built pair through the full engine
// path: memoized normalization, dedupe on the normalized pair, cached
// solving.
//
// Every raw duplicate is also a normalized duplicate, so one dedupe level
// catches verbatim recurrence (the hot queries of §7.3's workloads) and
// textually different pairs that normalize alike. A follower waits only
// on a leader, and a leader never waits, so no worker count can deadlock;
// with one worker every claimed entry was already completed earlier in
// the loop.
func (w *Worker) VerifyPlans(id string, q1, q2 plan.Node) Result {
	return w.VerifyPlansContext(context.Background(), id, q1, q2)
}

// VerifyPlansContext is VerifyPlans under a context: cancellation aborts
// the solver mid-proof (the pair degrades to NotProved/cancelled, never a
// wrong verdict), and a context already cancelled on entry skips the work
// entirely.
func (w *Worker) VerifyPlansContext(ctx context.Context, id string, q1, q2 plan.Node) Result {
	start := time.Now()
	if ctx != nil && ctx.Err() != nil {
		r := Result{ID: id, Verdict: NotProved, Reason: "cancelled", Cancelled: true}
		w.shared.record(r)
		return r
	}
	deduped := false
	r := protect(func() Result {
		n1, n2 := w.normalizePlan(q1), w.normalizePlan(q2)
		if w.shared.dedup == nil {
			// Caching is disabled, or this is a persistent engine, which
			// keeps no pair-dedupe table: an entry per pair ever seen would
			// grow without bound and pin indefinite (timeout/cancel)
			// verdicts forever. In-flight coalescing is the server's job,
			// and definite cross-request reuse comes from the obligation
			// cache.
			return w.check(ctx, n1, n2)
		}
		e, leader := w.shared.dedup.claim(plan.PairKey(n1, n2))
		if !leader {
			<-e.done
			deduped = true
			return e.res
		}
		// A panicking check is recovered into the published verdict, and
		// the deferred close wakes the followers whatever happens, so no
		// follower is stranded on a channel that never closes.
		defer close(e.done)
		e.res = protect(func() Result { return w.check(ctx, n1, n2) })
		return e.res
	})
	if deduped {
		r = followerResult(r, id, start)
	} else {
		r.ID, r.Elapsed = id, time.Since(start)
	}
	w.shared.record(r)
	return r
}

// followerResult adapts a dedupe leader's published result to the waiting
// pair: same verdict, own identity, no per-pair solver work. Panic
// bookkeeping stays with the leader — the follower shares the degraded
// verdict but did not itself panic, so counting it again would inflate
// the recovered-panics metric.
func followerResult(res Result, id string, start time.Time) Result {
	r := res
	r.ID, r.Elapsed = id, time.Since(start)
	r.Deduped = true
	r.Stats = verify.Stats{} // no work happened for this pair
	r.Panicked, r.Stack = false, ""
	r.WatchdogAbort = false
	return r
}

// Proved is the boolean convenience used by the benchmark harness's
// overlap checks.
func (w *Worker) Proved(q1, q2 plan.Node) bool {
	return w.VerifyPlans("", q1, q2).Verdict == Equivalent
}

// VerifyPair parses, builds, and verifies one SQL pair.
func (w *Worker) VerifyPair(p Pair) Result {
	return w.VerifyPairContext(context.Background(), p)
}

// VerifyPairContext is VerifyPair under a context.
func (w *Worker) VerifyPairContext(ctx context.Context, p Pair) Result {
	q1, err := w.builder.BuildSQL(p.SQL1)
	if err != nil {
		r := buildErrorResult(p.ID, err)
		w.shared.record(r)
		return r
	}
	q2, err := w.builder.BuildSQL(p.SQL2)
	if err != nil {
		r := buildErrorResult(p.ID, err)
		w.shared.record(r)
		return r
	}
	return w.VerifyPlansContext(ctx, p.ID, q1, q2)
}

func buildErrorResult(id string, err error) Result {
	if plan.Unsupported(err) {
		return Result{ID: id, Verdict: Unsupported, Reason: err.Error()}
	}
	return Result{ID: id, Verdict: NotProved, Reason: "build: " + err.Error()}
}

// VerifyBatch verifies a slice of SQL pairs against one catalog and
// returns per-pair results (index-aligned with pairs) plus aggregate
// statistics.
func VerifyBatch(cat *schema.Catalog, pairs []Pair, opts Options) ([]Result, BatchStats) {
	return VerifyBatchContext(context.Background(), cat, pairs, opts)
}

// VerifyBatchContext is VerifyBatch under a context: cancelling it aborts
// in-flight solving and degrades the remaining pairs to
// NotProved/cancelled (results stay index-aligned and fully populated).
func VerifyBatchContext(ctx context.Context, cat *schema.Catalog, pairs []Pair, opts Options) ([]Result, BatchStats) {
	if opts.ConstraintDigest == "" && cat != nil {
		opts.ConstraintDigest = cat.ConstraintDigest()
	}
	s := NewShared(opts)
	results := make([]Result, len(pairs))
	wall := s.ForEachContext(ctx, cat, len(pairs), func(w *Worker, i int) {
		results[i] = w.VerifyPairContext(ctx, pairs[i])
	})
	return results, s.aggregate(wall)
}

// VerifyPlanBatch is VerifyBatch over already-built plans.
func VerifyPlanBatch(pairs []PlanPair, opts Options) ([]Result, BatchStats) {
	return VerifyPlanBatchContext(context.Background(), pairs, opts)
}

// VerifyPlanBatchContext is VerifyPlanBatch under a context.
func VerifyPlanBatchContext(ctx context.Context, pairs []PlanPair, opts Options) ([]Result, BatchStats) {
	s := NewShared(opts)
	results := make([]Result, len(pairs))
	wall := s.ForEachContext(ctx, nil, len(pairs), func(w *Worker, i int) {
		p := pairs[i]
		results[i] = w.VerifyPlansContext(ctx, p.ID, p.Q1, p.Q2)
	})
	return results, s.aggregate(wall)
}

// aggregate folds the live Snapshot into BatchStats, so BatchStats is by
// construction consistent with what Snapshot reported while the batch ran.
func (s *Shared) aggregate(wall time.Duration) BatchStats {
	return BatchStats{StatsSnapshot: s.Snapshot(), Workers: s.opts.workerCount(), Wall: wall}
}
