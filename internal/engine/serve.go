package engine

import (
	"context"

	"spes/internal/plan"
	"spes/internal/schema"
)

// Engine is the long-lived form of the batch engine, built for an
// always-on verification service: one Engine per process owns the
// normalization memo, the predicate-satisfiability cache, and the LRU
// obligation cache, so their contents compound across requests instead of
// dying with each batch. It differs from a per-batch Shared in what it
// deliberately does NOT keep:
//
//   - no pair-dedupe table — an entry per pair ever seen would grow
//     without bound and would pin indefinite (timeout/cancel) verdicts
//     forever; in-flight coalescing is the server's job, and definite
//     cross-request reuse falls out of the obligation cache;
//   - no pointer-keyed plan-serialization memo — request plans are
//     freshly built and never share pointers, so that memo would be a
//     pure leak.
//
// All methods are safe for concurrent use: each call builds its own
// Worker, and the shared structures are the engine's concurrency-safe
// memo tables.
type Engine struct {
	cat    *schema.Catalog
	shared *Shared
}

// NewEngine returns a long-lived engine over one catalog. The Workers
// field of opts sets the default fan-out of VerifyBatch; Timeout bounds
// each pair unless the caller's context is tighter.
func NewEngine(cat *schema.Catalog, opts Options) *Engine {
	if opts.ConstraintDigest == "" && cat != nil {
		opts.ConstraintDigest = cat.ConstraintDigest()
	}
	s := NewShared(opts)
	s.dedup = nil
	s.keys = nil
	return &Engine{cat: cat, shared: s}
}

// Catalog returns the catalog the engine verifies against.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// ConstraintDigest returns the integrity-constraint digest of the
// engine's catalog ("" for a constraint-free catalog); the server echoes
// it in responses so clients can tell which constraint set a verdict
// assumed.
func (e *Engine) ConstraintDigest() string { return e.shared.opts.ConstraintDigest }

// BuildSQL parses and lowers one query against the engine's catalog.
// Builders are per-call, so BuildSQL is safe for concurrent use.
func (e *Engine) BuildSQL(sql string) (plan.Node, error) {
	return plan.NewBuilder(e.cat).BuildSQL(sql)
}

// VerifyPlans verifies one already-built pair with the engine's
// persistent caches. Cancellation degrades the pair to NotProved, never a
// wrong verdict. Panics anywhere in the request — including worker
// construction, which runs before the per-pair recovery inside
// VerifyPlansContext — are recovered into a NotProved internal-error
// verdict: a long-lived engine serves many tenants, so one poisoned
// request must degrade, never die.
func (e *Engine) VerifyPlans(ctx context.Context, id string, q1, q2 plan.Node) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r = PanicResult(id, p)
			e.shared.record(r)
		}
	}()
	w := e.shared.NewWorker(e.cat)
	return w.VerifyPlansContext(ctx, id, q1, q2)
}

// VerifyPair parses, builds, and verifies one SQL pair, with the same
// panic isolation as VerifyPlans.
func (e *Engine) VerifyPair(ctx context.Context, p Pair) (r Result) {
	defer func() {
		if pv := recover(); pv != nil {
			r = PanicResult(p.ID, pv)
			e.shared.record(r)
		}
	}()
	w := e.shared.NewWorker(e.cat)
	return w.VerifyPairContext(ctx, p)
}

// VerifyBatch fans a batch across workers (0 = the engine's default) with
// batch-local pair dedupe layered over the engine's persistent caches.
// The overlay shares the norm memo, sat table, and obligation cache with
// the engine — so a batch both benefits from and warms the long-lived
// state — while its dedupe table and counters live only as long as the
// call. BatchStats reports the batch's own work; the engine's lifetime
// Stats include it too.
func (e *Engine) VerifyBatch(ctx context.Context, pairs []Pair, workers int) ([]Result, BatchStats) {
	s := e.batchOverlay(workers)
	pre := s.Snapshot()
	results := make([]Result, len(pairs))
	wall := s.ForEachContext(ctx, e.cat, len(pairs), func(w *Worker, i int) {
		results[i] = w.VerifyPairContext(ctx, pairs[i])
	})
	st := s.aggregate(wall)
	// The memo tables are shared with the engine, so their lifetime
	// counters include pre-batch traffic; report the batch's delta.
	st.NormHits -= pre.NormHits
	st.NormMisses -= pre.NormMisses
	st.ObligationHits -= pre.ObligationHits
	st.ObligationMisses -= pre.ObligationMisses
	return results, st
}

// Stats returns a consistent snapshot of the engine's lifetime counters;
// safe to call from any goroutine while verifications are in flight.
func (e *Engine) Stats() StatsSnapshot { return e.shared.Snapshot() }

// batchOverlay builds a batch-scoped Shared on top of the engine's
// persistent state: same memo tables, a fresh dedupe table and counters.
func (e *Engine) batchOverlay(workers int) *Shared {
	s := e.shared
	// No interner copy: the overlay delegates interner() to its parent, so
	// an epoch rotation during the batch is visible to overlay workers too.
	o := &Shared{opts: s.opts, parent: s}
	if workers > 0 {
		o.opts.Workers = workers
	}
	if !o.opts.DisableCaching {
		o.cache = s.cache
		o.norm = s.norm
		o.sat = s.sat
		o.dedup = &dedupeMap{m: make(map[string]*dedupeEntry)}
		o.keys = make(map[plan.Node]string)
	}
	return o
}
