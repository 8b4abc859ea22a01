// Package engine is the parallel batch-verification engine: it fans a
// slice of query pairs across a bounded worker pool and layers three
// memoizations over the sequential verifier so workload-scale runs (§7.3
// of the paper: thousands of production pairs) short-circuit repeated
// work:
//
//   - a normalization memo keyed by structural plan fingerprint, so a
//     query appearing in many pairs is normalized once;
//   - two-level pair dedupe — by raw pair before normalization (verbatim
//     recurrence costs one serialization) and by normalized pair after
//     (textually different pairs that normalize identically) — so
//     structurally identical pairs are verified once and share the
//     verdict;
//   - a bounded LRU obligation cache keyed by the canonical serialization
//     of each solver obligation, so identical validity questions across
//     pairs are answered once.
//
// Every fingerprint-indexed table confirms identity against the full
// canonical serialization before reusing an entry, so a 64-bit hash
// collision can never substitute a different plan or obligation; and only
// definite solver verdicts are cached, so caching and parallelism never
// change a soundness-critical answer (the determinism tests pin this).
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
	"spes/internal/smt"
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
	// NormalizeOptions tunes individual rules when normalization is on.
	NormalizeOptions normalize.Options
	// MaxCandidates caps VeriVec's bijection search per vector pair
	// (0 = verifier default).
	MaxCandidates int
	// DisableIncremental makes every verifier solve obligations with
	// one-shot solver calls instead of prefix-sharing incremental sessions.
	// Verdicts are identical either way; the switch feeds the incremental
	// parity suite and the incremental benchmark's baseline.
	DisableIncremental bool
	// TermNodeHighWater, when > 0, bounds the shared term DAG: once the
	// interner holds at least this many nodes, the engine opens a new
	// interner epoch — workers that start after the rotation build through
	// a fresh interner, in-flight verifications finish soundly on the
	// retired one, and the retired DAG becomes collectable as obligation-
	// cache entries (whose keys carry the interner tag) age out of the LRU
	// and session tables drain. 0 means never rotate (the term DAG grows
	// with workload diversity for the process lifetime, as before).
	TermNodeHighWater int
	// Store, when non-nil, is the durable verdict store: obligations that
	// miss the in-memory cache are answered from it, definite verdicts are
	// appended write-behind, and (with ShareLemmas) theory lemmas persist
	// through it, so restarts and new replicas start warm.
	Store *store.Store
	// ShareLemmas pools theory lemmas across pairs (and, with Store set,
	// across processes). Replayed lemmas can only prune solver work the
	// theory would redo — see smt.LemmaPool — but because they may decide
	// obligations that would otherwise exhaust their budget as Unknown,
	// outcomes may improve relative to a cold run; the warm bench and the
	// server enable this, plain VerifyBatch keeps it off by default so
	// batch results stay independent of pair order and worker count.
	ShareLemmas bool
	// ConstraintDigest is the catalog's integrity-constraint digest
	// (schema.Catalog.ConstraintDigest). It namespaces every key the
	// engine derives from plan serializations — the normalization memo,
	// both pair-dedupe levels, and (through verify.Config) the obligation
	// cache, durable store, and witness keys — because plan serializations
	// do not mention constraints while verdicts depend on them: the same
	// pair can be equivalent under a FOREIGN KEY and not-proved without
	// it. Empty for a constraint-free catalog, which leaves every key
	// byte-identical to the pre-constraint engine. The catalog-aware entry
	// points (VerifyBatch, NewEngine) fill it automatically; plan-level
	// batches over a constrained catalog must set it themselves.
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
	// Fingerprint is the structural hash of the normalized pair (0 when
	// the plans failed to build or when caching — and with it the
	// fingerprinting path — is disabled).
	Fingerprint uint64
}

// normMemoMax bounds the normalization memo: when the entry count reaches
// it the memo resets wholesale (generation eviction). Batches rarely come
// near it, but a long-running server engine would otherwise grow without
// bound as distinct queries stream past.
const normMemoMax = 1 << 15

// normMemo memoizes normalization results. The fingerprint picks the
// bucket; the canonical plan serialization confirms identity, so a hash
// collision can never substitute a different plan.
type normMemo struct {
	mu     sync.Mutex
	m      map[uint64][]normEntry
	count  int
	hits   int64
	misses int64
}

type normEntry struct {
	key  string
	node plan.Node
}

func (m *normMemo) lookup(fp uint64, key string) (plan.Node, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.m[fp] {
		if e.key == key {
			m.hits++
			return e.node, true
		}
	}
	m.misses++
	return nil, false
}

func (m *normMemo) store(fp uint64, key string, n plan.Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.m[fp] {
		if e.key == key {
			return // another worker won the race; results are structurally equal
		}
	}
	if m.count >= normMemoMax {
		m.m = make(map[uint64][]normEntry)
		m.count = 0
	}
	m.m[fp] = append(m.m[fp], normEntry{key: key, node: n})
	m.count++
}

func (m *normMemo) counters() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// dedupeMap coordinates pair dedupe: exactly one claimant per canonical
// pair key becomes the leader and verifies; followers wait on the entry
// and copy the verdict. Fingerprint-bucketed with full-key confirmation,
// like normMemo.
type dedupeMap struct {
	mu sync.Mutex
	m  map[uint64][]*dedupeEntry
}

type dedupeEntry struct {
	key  string
	done chan struct{}
	res  Result // verdict fields only; set by the leader before close(done)
}

// claim returns the pair's entry and whether the caller is its leader.
func (d *dedupeMap) claim(fp uint64, key string) (*dedupeEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.m[fp] {
		if e.key == key {
			return e, false
		}
	}
	e := &dedupeEntry{key: key, done: make(chan struct{})}
	d.m[fp] = append(d.m[fp], e)
	return e, true
}

// Shared is the state behind a worker pool: options plus the
// concurrency-safe memo layers. Batch entry points build one Shared per
// batch; a long-running Engine keeps one alive across requests. Workers
// are created per goroutine with NewWorker.
type Shared struct {
	opts     Options
	cache    *ObligationCache // nil when disabled
	norm     *normMemo        // nil when disabled
	rawDedup *dedupeMap       // nil when disabled or persistent; keyed by the raw pair
	dedup    *dedupeMap       // nil when disabled or persistent; keyed by the normalized pair

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

	// lemmas, when non-nil, is the cross-pair theory-lemma pool handed to
	// every worker's solver (see Options.ShareLemmas). Seeded from the
	// durable store at construction; newly learned lemmas flow back
	// through the pool's sink.
	lemmas *smt.LemmaPool
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
// verifiers keep the interner they captured (retired interners keep
// working; retirement is a drain signal, not a kill switch) and finish
// their pair soundly, while every pair that starts afterwards builds
// through the fresh epoch. Obligation-cache entries from the retired epoch
// carry its tag in their keys, so they can never answer a new-epoch lookup
// and simply age out of the LRU; the durable store is keyed canonically
// and is untouched by rotation.
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
	cur.Retire()
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

// NewShared builds batch state from options. With a Store configured it
// loads the persisted lemmas into the shared pool (when ShareLemmas is on)
// before wiring the pool's sink back to the store, so loaded lemmas are
// not echoed into the log again.
func NewShared(opts Options) *Shared {
	s := &Shared{opts: opts}
	s.in.Store(fol.NewInterner())
	if opts.ShareLemmas {
		s.lemmas = smt.NewLemmaPool()
		if opts.Store != nil {
			for _, lemma := range opts.Store.Lemmas() {
				lits := make([]smt.LemmaLit, len(lemma))
				for i, l := range lemma {
					lits[i] = smt.LemmaLit{AtomKey: l.AtomKey, Pos: l.Pos}
				}
				s.lemmas.Add(lits)
			}
			st := opts.Store
			s.lemmas.SetSink(func(lits []smt.LemmaLit) {
				out := make([]store.LemmaLit, len(lits))
				for i, l := range lits {
					out[i] = store.LemmaLit{AtomKey: l.AtomKey, Pos: l.Pos}
				}
				st.AppendLemma(out)
			})
		}
	}
	if !opts.DisableCaching {
		if opts.CacheSize >= 0 {
			s.cache = NewObligationCache(opts.CacheSize)
		}
		s.norm = &normMemo{m: make(map[uint64][]normEntry)}
		s.rawDedup = &dedupeMap{m: make(map[uint64][]*dedupeEntry)}
		s.dedup = &dedupeMap{m: make(map[uint64][]*dedupeEntry)}
		s.keys = make(map[plan.Node]string)
		s.sat = &satTable{m: make(map[string]bool)}
	}
	return s
}

// digestKey namespaces a plan-derived memo key by the catalog's
// constraint digest (same scheme as the verifier's cache keys). A
// constraint-free catalog has an empty digest and keys pass through
// unchanged.
func (s *Shared) digestKey(key string) string {
	if s.opts.ConstraintDigest == "" {
		return key
	}
	return "c" + s.opts.ConstraintDigest + ":" + key
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
	w := &Worker{shared: s, nz: normalize.New(s.opts.NormalizeOptions)}
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

// normalizePlan applies normalization through the shared memo. key is the
// plan's canonical serialization, already computed by the caller (the raw
// dedupe layer needs it too, so the tree is serialized exactly once).
func (w *Worker) normalizePlan(q plan.Node, key string) plan.Node {
	fault.Inject(fault.Normalize) // cancel outcome: nothing to cancel here
	if w.shared.opts.DisableNormalization {
		return q
	}
	if w.shared.norm == nil {
		return w.nz.Normalize(q)
	}
	// Digest-namespaced: normalization reads constraint metadata (FK join
	// elimination, unique-key grouping), so the same serialized plan can
	// normalize differently under different catalogs.
	dkey := w.shared.digestKey(key)
	fp := plan.HashKey(dkey)
	if n, ok := w.shared.norm.lookup(fp, dkey); ok {
		return n
	}
	n := w.nz.Normalize(q)
	w.shared.norm.store(fp, dkey, n)
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
		MaxCandidates:      w.shared.opts.MaxCandidates,
		Interner:           w.shared.interner(),
		DisableIncremental: w.shared.opts.DisableIncremental,
		Lemmas:             w.shared.root().lemmas,
		RefuteBudget:       w.shared.opts.RefuteBudget,
		ConstraintDigest:   w.shared.opts.ConstraintDigest,
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
// panic recovery (protect, leadPair, or checkWatchdog's goroutine).
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
// path: raw-pair dedupe, memoized normalization, normalized-pair dedupe,
// cached solving.
//
// Dedupe runs at two levels. The raw level fires before normalization, so
// a verbatim-recurring pair (the hot queries of §7.3's workloads) costs
// one serialization and a wait; the normalized level additionally catches
// textually different pairs that normalize to the same form. The wait
// graph is acyclic — raw followers wait on a raw leader, a raw leader
// waits at most on a normalized leader, normalized leaders never wait —
// so no worker count can deadlock, and with one worker every claimed
// entry was already completed earlier in the loop.
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
	if w.shared.norm == nil && w.shared.dedup == nil {
		// Caching disabled: exactly the sequential per-pair work, fanned out.
		r := protect(func() Result {
			return w.check(ctx, w.normalizePlan(q1, ""), w.normalizePlan(q2, ""))
		})
		r.ID, r.Elapsed = id, time.Since(start)
		w.shared.record(r)
		return r
	}

	k1, k2 := w.shared.keyOf(q1), w.shared.keyOf(q2)
	if w.shared.dedup == nil {
		// Persistent engine: memoized normalization and the obligation
		// cache carry across requests, but no pair-dedupe table — an entry
		// per pair ever seen would grow without bound and pin indefinite
		// (timeout/cancel) verdicts forever. In-flight coalescing is the
		// server's job, and definite cross-request reuse comes from the
		// obligation cache, which makes re-verification cheap.
		r := protect(func() Result {
			n1 := w.normalizePlan(q1, k1)
			n2 := w.normalizePlan(q2, k2)
			r := w.check(ctx, n1, n2)
			r.Fingerprint = plan.PairFingerprint(n1, n2)
			return r
		})
		r.ID, r.Elapsed = id, time.Since(start)
		w.shared.record(r)
		return r
	}

	rawKey := w.shared.digestKey(k1 + "\x00" + k2)
	rawE, rawLeader := w.shared.rawDedup.claim(plan.HashKey(rawKey), rawKey)
	if !rawLeader {
		<-rawE.done
		r := followerResult(rawE.res, id, start)
		w.shared.record(r)
		return r
	}

	res, follower := w.leadPair(ctx, q1, q2, k1, k2, rawE)
	var r Result
	if follower {
		r = followerResult(res, id, start)
	} else {
		r = res
		r.ID, r.Elapsed = id, time.Since(start)
	}
	w.shared.record(r)
	return r
}

// leadPair is the raw-dedupe leader's work: normalize, claim (or wait on)
// the normalized-pair flight, verify, and publish. Publication of every
// claimed entry is deferred, so a panic anywhere inside — normalization,
// the dedupe claim, verification — still publishes a NotProved
// internal-error verdict and closes the done channels. Without the defer,
// a panicking leader would strand every raw and normalized follower on a
// channel that never closes.
func (w *Worker) leadPair(ctx context.Context, q1, q2 plan.Node, k1, k2 string, rawE *dedupeEntry) (res Result, follower bool) {
	var (
		normE    *dedupeEntry
		ledNorm  bool
		finished bool
	)
	defer func() {
		if !finished {
			res = PanicResult("", recover())
			follower = false
		}
		if ledNorm {
			normE.res = res
			close(normE.done)
		}
		rawE.res = res
		close(rawE.done)
	}()

	n1 := w.normalizePlan(q1, k1)
	n2 := w.normalizePlan(q2, k2)
	// Encode the normalized pair once: HashKey(PairKey(n1, n2)) is
	// PairFingerprint(n1, n2).
	pk := plan.PairKey(n1, n2)
	fp := plan.HashKey(pk)

	e, leader := w.shared.dedup.claim(fp, w.shared.digestKey(pk))
	if !leader {
		<-e.done
		res, follower, finished = e.res, true, true
		return
	}
	normE, ledNorm = e, true
	r := w.check(ctx, n1, n2)
	r.Fingerprint = fp
	res, finished = r, true
	return
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
