// Package verify implements SPES's equivalence verification algorithms
// (§5 of the paper): the recursive VeriCard procedure with its category
// dispatch (Alg. 1), the per-category sub-procedures VeriTable (Alg. 2),
// VeriSPJ (Alg. 3), VeriAgg (Alg. 4), and VeriUnion (Alg. 5), the VeriVec
// bijection search over sub-query vectors, and the top-level full
// equivalence check (Lemma 1 / Alg. 6).
//
// Soundness: a Proved verdict means the two plans are fully equivalent
// under bag semantics for every database, because every step only concludes
// from solver Unsat answers (see internal/smt's soundness contract). The
// procedure is deliberately incomplete, like the paper's.
package verify

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"spes/internal/fault"
	"spes/internal/fol"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/smt"
	"spes/internal/symbolic"
)

// Stats counts one verification's work. It is the per-pair record the
// engine folds into its snapshot and spes-serve returns as a verify
// response's "stats".
type Stats struct {
	SolverQueries   int   `json:"solver_queries"`
	VeriCardCalls   int   `json:"vericard_calls"`
	Candidates      int   `json:"candidates"`        // VeriVec candidate bijections examined
	ModelRounds     int   `json:"model_rounds"`      // propositional models the solver examined
	TheoryConflicts int   `json:"theory_conflicts"`  // theory conflicts (blocking clauses learned)
	CoreChecks      int64 `json:"core_checks"`       // theory checks spent minimizing cores
	ObligationHits  int   `json:"obligation_hits"`   // validity obligations answered from the cache
	ObligationMiss  int   `json:"obligation_misses"` // validity obligations sent to the solver
	StoreHits       int   `json:"store_hits"`        // obligations answered from the durable store
	StoreMisses     int   `json:"store_misses"`      // durable-store lookups that missed
	RefuteSearches  int   `json:"refute_searches"`   // bounded refutation searches run after failed proofs
	RefuteRounds    int   `json:"refute_rounds"`     // candidate databases generated across those searches
	WitnessHits     int   `json:"witness_hits"`      // witnesses answered (and re-confirmed) from the durable store
	ExhaustedHits   int   `json:"exhausted_hits"`    // searches answered by a stored exhausted-search record

	// SuffixChecks and PrefixReuse are always zero: every obligation is one
	// solver check with nothing to reuse. They remain, without JSON keys,
	// only because the benchmark's smt.prefix_reuse_share still reads them.
	SuffixChecks int `json:"-"`
	PrefixReuse  int `json:"-"`
}

// ObligationCache memoizes validity outcomes across Verifiers. Keys are
// opaque strings that identify the obligation: the Verifier's interner tag
// plus the obligation's term ID (O(1) to derive — the root of the engine's
// ≥25% allocation win on the batch path). Keys are collision-free: term IDs
// identify terms within an interner, and interner tags are process-unique
// and never reused, so a key can never alias an obligation from another
// interner's lifetime.
//
// Soundness contract: implementations only store what Store gives them, and
// Verifiers only Store definite solver verdicts — a cached true was an
// Unsat refutation of the negated obligation, a cached false a concrete
// countermodel. Unknown (budget- or deadline-exhausted) results are never
// cached, so caching cannot make an answer depend on batch history or wall
// time. Implementations must be safe for concurrent use; Verifiers on
// different goroutines may share one cache.
type ObligationCache interface {
	// Lookup returns the cached validity of the obligation and whether it
	// was present.
	Lookup(key string) (valid, ok bool)
	// Store records a definite validity outcome.
	Store(key string, valid bool)
}

// DurableStore persists definite validity outcomes across processes. Keys
// are the obligation's canonical serialization (Term.Key) —
// interner-independent, so a stored verdict is valid for any process, any
// interner epoch, and any in-memory representation. The soundness contract
// matches ObligationCache: implementations return only what AppendVerdict
// gave them (confirmed on the full key, never a fingerprint alone), and
// Verifiers append only definite solver verdicts. internal/store.Store is
// the canonical implementation.
type DurableStore interface {
	// LookupVerdict returns the stored validity of the obligation and
	// whether it was present.
	LookupVerdict(key string) (valid, ok bool)
	// AppendVerdict records a definite validity outcome (write-behind;
	// losing it is sound).
	AppendVerdict(key string, valid bool)
}

// WitnessStore persists refutation witnesses across processes, keyed on
// the pair's canonical plan serialization (plan.PairKey of the normalized
// plans — interner- and node-independent, like DurableStore keys). The
// trust contract is stricter than for verdicts: nothing that could yield
// Refuted is served from stored bytes. Refute decodes and replays every
// witness hit through the executor and falls back to a fresh search if the
// replay no longer distinguishes the plans, so a corrupt or stale record
// can cost a search but can never fabricate a refutation. The same store
// also holds exhausted-search records under refute.ExhaustedKey; those are
// served without replay because they can only yield NotProved.
// internal/store.Store is the canonical implementation.
type WitnessStore interface {
	// LookupWitness returns the stored witness encoding for the pair key.
	LookupWitness(key string) ([]byte, bool)
	// AppendWitness records a witness encoding (write-behind; losing it is
	// sound).
	AppendWitness(key string, data []byte)
}

// Config tunes a Verifier beyond the New defaults.
type Config struct {
	// Deadline, when non-zero, bounds the wall-clock time of the
	// verification: the solver aborts with Unknown once it passes, so the
	// pair degrades to "not proved" instead of stalling (sound: Unknown
	// never proves anything).
	Deadline time.Time
	// Ctx, when non-nil, cancels the verification: the solver aborts with
	// Unknown once the context is done, so a cancelled pair degrades to
	// "not proved" exactly like a deadline (never a wrong verdict). Used
	// by the server to abort work for disconnected clients and drains.
	Ctx context.Context
	// Cache, when non-nil, memoizes definite validity outcomes across
	// Verifiers.
	Cache ObligationCache
	// Store, when non-nil, is the durable tier below the Cache: obligations
	// that miss the cache are looked up by canonical key before the solver
	// runs, and definite verdicts are appended write-behind. A store hit is
	// promoted into the Cache under the interner-tagged key.
	Store DurableStore
	// Interner hash-conses every term the Verifier builds, so structurally
	// equal terms are pointer-identical and obligation cache keys derive
	// from term IDs instead of full serializations. Verifiers sharing an
	// engine should share its interner: that is what makes their
	// obligation-cache keys agree. When nil the Verifier creates a private
	// interner.
	Interner *fol.Interner
	// RefuteBudget enables the bounded refutation pass: when a proof fails
	// for a reason other than timeout or cancellation, Refute searches up
	// to this many small concrete databases for one distinguishing the
	// plans. 0 (the default) disables refutation entirely, leaving the
	// two-valued proved / not-proved behavior unchanged.
	RefuteBudget int
	// Witnesses, when non-nil, persists found witnesses and answers later
	// searches for the same pair — after an executor replay re-confirms
	// them (see WitnessStore).
	Witnesses WitnessStore
	// ConstraintDigest is the catalog's constraint fingerprint
	// (schema.Catalog.ConstraintDigest). When non-empty it namespaces
	// every obligation-cache, durable-store, and witness key, so a verdict
	// proved under one constraint set is never served under another. The
	// obligation formulas themselves already embed the axioms, making the
	// digest defense-in-depth for verdict keys — but witness keys are
	// plan-shaped and constraint-blind, so for them the digest is the only
	// separator. Empty (a constraint-free catalog) leaves every key
	// byte-identical to builds without constraint support.
	ConstraintDigest string
}

// Verifier checks full equivalence of plan pairs. One Verifier per pair is
// the intended use (fresh symbolic namespace); reuse is safe but
// accumulates state.
//
// Concurrency contract: a Verifier and its embedded solver are NOT safe
// for concurrent use, and nothing in the struct synchronizes access — each
// goroutine must construct its own Verifier (internal/engine's workers
// build a fresh one per pair; its tests and `go test -race` enforce this).
// Sharing inputs is fine: a Verifier only reads the plan trees it is
// given, so the same plan may be verified by many goroutines at once. A
// Config.Cache is the one sanctioned shared component; implementations are
// required to be concurrency-safe.
type Verifier struct {
	solver       *smt.Solver
	gen          *symbolic.Gen
	enc          *symbolic.Encoder
	cache        ObligationCache
	store        DurableStore
	in           *fol.Interner
	stats        Stats
	refuteBudget int
	witnesses    WitnessStore
	digest       string
	// tableTuples tracks every symbolic tuple created for each base table
	// during this verification, so key functional-dependency axioms can
	// pair a new scan's tuple with every earlier one (two rows of T that
	// agree on a unique key are the same row).
	tableTuples map[*schema.Table][]symbolic.Tuple
	// deadline and ctx mirror the solver's bounds so the refutation pass
	// honors the same wall-clock and cancellation limits the proof did.
	deadline time.Time
	ctx      context.Context
}

// New returns a Verifier with a fresh solver and symbol namespace.
func New() *Verifier {
	return NewWithConfig(Config{})
}

// NewWithConfig returns a Verifier configured for batch use: wall-clock
// deadline, cancellation, and shared caches.
func NewWithConfig(cfg Config) *Verifier {
	in := cfg.Interner
	if in == nil {
		in = fol.NewInterner()
	}
	g := symbolic.NewGen(in)
	s := smt.New()
	s.Deadline = cfg.Deadline
	s.Ctx = cfg.Ctx
	s.Interner = in
	return &Verifier{
		solver:       s,
		gen:          g,
		enc:          symbolic.NewEncoder(g),
		cache:        cfg.Cache,
		store:        cfg.Store,
		in:           in,
		refuteBudget: cfg.RefuteBudget,
		witnesses:    cfg.Witnesses,
		digest:       cfg.ConstraintDigest,
		deadline:     cfg.Deadline,
		ctx:          cfg.Ctx,
	}
}

// Stats returns counters accumulated so far.
func (v *Verifier) Stats() Stats {
	s := v.stats
	ss := v.solver.Stats
	s.SolverQueries = ss.Queries
	s.ModelRounds = ss.ModelRounds
	s.TheoryConflicts = ss.TheoryConfls
	s.CoreChecks = ss.CoreChecks
	return s
}

// TimedOut reports whether any solver call was aborted by the configured
// deadline; when it returns true, a "not proved" outcome may be a timeout
// rather than a genuine failure to prove.
func (v *Verifier) TimedOut() bool {
	return v.solver.Stats.DeadlineHit > 0
}

// Cancelled reports whether any solver call was aborted by context
// cancellation; like TimedOut, a "not proved" outcome then reflects the
// abort, not a genuine failure to prove.
func (v *Verifier) Cancelled() bool {
	return v.solver.Stats.CancelHit > 0
}

// Refute runs the bounded concrete refutation pass for a pair whose proof
// just failed, returning a replay-confirmed counterexample witness or nil.
//
// It refuses to run when the proof was degraded — TimedOut or Cancelled —
// because a degraded "not proved" says nothing about the pair, and turning
// it into Refuted would let wall-clock pressure change the meaning of a
// verdict (the witness itself would still be sound, but the verdict tier
// must stay an honest function of what was actually established; the
// caller that timed out should retry, not refute). With RefuteBudget 0 it
// is a no-op, keeping refutation strictly opt-in.
//
// When a WitnessStore is configured, a stored witness for the pair is
// decoded and replayed first; only a hit that still distinguishes the
// plans is returned. Next, a record that a search under the same options
// already ran its whole budget for the pair without a witness returns nil
// without searching: served without replay, because it can only yield
// NotProved and is exactly what a fresh search would return (see
// refute.ExhaustedKey). Anything else falls through to a fresh search,
// whose witness or exhaustion is recorded for the next caller.
func (v *Verifier) Refute(q1, q2 plan.Node) *refute.Witness {
	if v.refuteBudget <= 0 || v.TimedOut() || v.Cancelled() {
		return nil
	}
	v.stats.RefuteSearches++
	opts := refute.Options{Budget: v.refuteBudget, Deadline: v.deadline, Ctx: v.ctx}
	var key, exhaustedKey string
	if v.witnesses != nil {
		// Witness keys are plan-shaped and thus constraint-blind: the same
		// pair can be refutable on a free catalog yet equivalent under
		// constraints, so the digest prefix is what keeps those records
		// apart in a shared store.
		key = v.digestKey(plan.PairKey(q1, q2))
		if data, ok := v.witnesses.LookupWitness(key); ok {
			if w, err := refute.Decode(data); err == nil && w.Replay(q1, q2) == nil {
				v.stats.WitnessHits++
				return w
			}
		}
		exhaustedKey = refute.ExhaustedKey(key, q1, q2, opts)
		if _, ok := v.witnesses.LookupWitness(exhaustedKey); ok {
			v.stats.ExhaustedHits++
			return nil
		}
	}
	w, st := refute.Search(q1, q2, opts)
	v.stats.RefuteRounds += st.Rounds
	if v.witnesses != nil {
		if w != nil {
			if data, err := w.Encode(); err == nil {
				v.witnesses.AppendWitness(key, data)
			}
		} else if st.Exhausted {
			v.witnesses.AppendWitness(exhaustedKey, []byte(refute.ExhaustedRecord))
		}
	}
	return w
}

// Outcome reports both of the paper's equivalence notions: Cardinal is
// Def 1 (same output cardinality on every database — a bijection exists);
// Full is Def 2 (identical output bags — the bijection is an identity).
// Full implies Cardinal.
type Outcome struct {
	Cardinal bool
	Full     bool
}

// VerifyPlans reports whether q1 and q2 are proved fully equivalent under
// bag semantics. false means "not proved", never "proved inequivalent".
func (v *Verifier) VerifyPlans(q1, q2 plan.Node) bool {
	return v.Check(q1, q2).Full
}

// Check runs the two-step procedure of §3.1 and reports how far it got:
// cardinal equivalence (VeriCard constructs a QPSR) and full equivalence
// (the QPSR's bijection is an identity map, Lemma 1).
func (v *Verifier) Check(q1, q2 plan.Node) Outcome {
	qpsr := v.veriCard(q1, q2)
	if qpsr == nil {
		return Outcome{}
	}
	out := Outcome{Cardinal: true}
	// The full-equivalence obligation (Lemma 1): COND ∧ ASSIGN implies the
	// identity map; the length guard mirrors FullEquivalenceObligation's ⊥
	// case.
	if q1.Arity() == q2.Arity() && len(qpsr.Cols1) == len(qpsr.Cols2) &&
		v.validUnder(fol.And(qpsr.Cond, qpsr.Assign), symbolic.IdentityEq(qpsr.Cols1, qpsr.Cols2)) {
		out.Full = true
	}
	return out
}

// validUnder reports whether prefix → suffix holds in every model,
// consulting the shared obligation cache when one is configured. Only
// definite solver verdicts enter the cache: Unsat of the negated
// implication (obligation valid) and Sat (a concrete countermodel).
// Unknown — budget or deadline exhaustion — maps to false for this call
// but is never cached, so a cache hit is always deterministic and
// independent of when or where the entry was computed.
//
// Cache and store keys derive from the implication prefix → suffix; the
// solver checks prefix ∧ ¬suffix, the same question without interning an
// obligation-sized negation.
func (v *Verifier) validUnder(prefix, suffix *fol.Term) bool {
	if v.cache == nil && v.store == nil {
		return v.solveObligation(prefix, suffix) == smt.Unsat
	}
	f := v.in.Intern(fol.Implies(prefix, suffix))
	var key string
	if v.cache != nil {
		key = v.obligationKey(f)
		if val, ok := v.cache.Lookup(key); ok {
			v.stats.ObligationHits++
			return val
		}
		v.stats.ObligationMiss++
	}
	var ckey string
	if v.store != nil {
		// The durable tier keys on the canonical serialization — an O(1)
		// field read — so a verdict computed under any interner epoch, or
		// by a previous process, answers here.
		ckey = v.canonicalKey(f)
		if val, ok := v.store.LookupVerdict(ckey); ok {
			v.stats.StoreHits++
			if v.cache != nil {
				v.cache.Store(key, val)
			}
			return val
		}
		v.stats.StoreMisses++
	}
	res := v.solveObligation(prefix, suffix)
	if res != smt.Unknown {
		valid := res == smt.Unsat
		if v.cache != nil {
			v.cache.Store(key, valid)
		}
		if v.store != nil {
			v.store.AppendVerdict(ckey, valid)
		}
	}
	return res == smt.Unsat
}

// canonicalKey is the interner-independent serialization of an obligation,
// used by the durable tier, namespaced by the constraint digest when one
// is active (see Config.ConstraintDigest).
func (v *Verifier) canonicalKey(f *fol.Term) string { return v.digestKey(f.Key()) }

// digestKey prefixes a cache/store key with the active constraint digest.
// Constraint-free catalogs (empty digest) keep the undecorated key, so
// their cache entries and store records are byte-identical to builds
// without constraint support.
func (v *Verifier) digestKey(key string) string {
	if v.digest == "" {
		return key
	}
	return "c" + v.digest + ":" + key
}

// solveObligation decides prefix → suffix with one solver check of its
// negation, prefix ∧ ¬suffix.
func (v *Verifier) solveObligation(prefix, suffix *fol.Term) smt.Result {
	return v.solver.CheckSat(fol.And(prefix, fol.Not(suffix)))
}

// obligationKey derives the cache key for an obligation interned in the
// Verifier's interner: the interner's process-unique tag plus the term's
// ID — O(1), no tree walk — because within one interner the ID identifies
// the term and the tag prevents aliasing across interners sharing a cache.
func (v *Verifier) obligationKey(f *fol.Term) string {
	return v.digestKey("i" + strconv.FormatUint(v.in.Tag(), 36) + ":" + strconv.FormatUint(uint64(f.ID()), 36))
}

// veriCard is Alg. 1: dispatch on category, with type-alignment coercions
// (wrapping a table in an identity SPJ, or any node in a single-branch
// union) standing in for the "normalize to the same type" step of §5.3.
func (v *Verifier) veriCard(q1, q2 plan.Node) *symbolic.QPSR {
	v.stats.VeriCardCalls++
	switch a := q1.(type) {
	case *plan.Empty:
		if _, ok := q2.(*plan.Empty); ok {
			return &symbolic.QPSR{
				Cols1:  v.gen.FreshTuple("e", q1.Arity()),
				Cols2:  v.gen.FreshTuple("e", q2.Arity()),
				Cond:   fol.False(),
				Assign: fol.True(),
			}
		}
		return nil
	case *plan.Table:
		switch b := q2.(type) {
		case *plan.Table:
			return v.veriTable(a, b)
		case *plan.SPJ:
			return v.veriSPJ(identitySPJ(a), b)
		case *plan.Union:
			return v.veriUnion(&plan.Union{Inputs: []plan.Node{a}}, b)
		}
	case *plan.SPJ:
		switch b := q2.(type) {
		case *plan.Table:
			return v.veriSPJ(a, identitySPJ(b))
		case *plan.SPJ:
			return v.veriSPJ(a, b)
		case *plan.Agg:
			return v.veriSPJ(a, identitySPJ(b))
		case *plan.Union:
			return v.veriUnion(&plan.Union{Inputs: []plan.Node{a}}, b)
		}
	case *plan.Agg:
		switch b := q2.(type) {
		case *plan.Agg:
			return v.veriAgg(a, b)
		case *plan.SPJ:
			return v.veriSPJ(identitySPJ(a), b)
		case *plan.Union:
			return v.veriUnion(&plan.Union{Inputs: []plan.Node{a}}, b)
		}
	case *plan.Union:
		switch q2.(type) {
		case *plan.Empty:
			return nil
		default:
			b, ok := q2.(*plan.Union)
			if !ok {
				b = &plan.Union{Inputs: []plan.Node{q2}}
			}
			return v.veriUnion(a, b)
		}
	}
	return nil
}

// identitySPJ wraps a node in a pass-through SPJ.
func identitySPJ(n plan.Node) *plan.SPJ {
	proj := make([]plan.NamedExpr, n.Arity())
	for i, name := range n.ColumnNames() {
		proj[i] = plan.NamedExpr{Name: name, E: &plan.ColRef{Index: i}}
	}
	return &plan.SPJ{Inputs: []plan.Node{n}, Proj: proj}
}

// veriTable is Alg. 2: two table queries are cardinally equivalent iff they
// scan the same table; the QPSR is the identity bijection. NOT NULL columns
// get a constant-false null flag, encoding the schema constraint; declared
// keys and foreign keys become background axioms in COND.
func (v *Verifier) veriTable(t1, t2 *plan.Table) *symbolic.QPSR {
	if t1.Meta.Name != t2.Meta.Name {
		return nil
	}
	cols := make(symbolic.Tuple, len(t1.Meta.Columns))
	for i, c := range t1.Meta.Columns {
		sc := v.gen.FreshCol("t")
		if c.NotNull {
			sc.Null = fol.False()
		}
		cols[i] = sc
	}
	return &symbolic.QPSR{Cols1: cols, Cols2: cols, Cond: v.constraintAxioms(t1.Meta, cols), Assign: fol.True()}
}

// constraintAxioms builds the background axioms the scanned table's
// declared constraints justify, conjoined into the scan's COND:
//
//   - every unique key (PK or UNIQUE) induces a functional dependency
//     between this tuple and every tuple previously created for the same
//     table — agreeing, fully non-NULL keys mean the same row;
//   - every unique key's values are asserted into an uninterpreted
//     membership predicate named after the table and key, and every
//     foreign key asserts its fully non-NULL key tuples into the parent's
//     predicate — referential containment, connected purely by symbol
//     identity, so parent and child scans need no shared catalog.
//
// Each axiom holds on every database satisfying the constraints, so the
// conjunction only strengthens COND soundly; dropping any subset (the
// cancel fault below, or a panic unwinding the pair) merely weakens the
// premises of later obligations and can only lose proofs, never invent
// one. The fault site fires before any axiom is built, so a partial set is
// never observable.
func (v *Verifier) constraintAxioms(t *schema.Table, cols symbolic.Tuple) *fol.Term {
	if len(t.PrimaryKey) == 0 && len(t.Unique) == 0 && len(t.ForeignKeys) == 0 {
		return fol.True()
	}
	if fault.Inject(fault.ConstraintAxioms) == fault.Cancel {
		return fol.True() // skip all axioms for this scan; sound, weaker premises
	}
	var axioms []*fol.Term
	prev := v.tableTuples[t]
	for _, key := range t.UniqueKeys() {
		idx := make([]int, len(key))
		for i, col := range key {
			idx[i] = t.ColumnIndex(col)
		}
		for _, p := range prev {
			axioms = append(axioms, symbolic.KeyFDAxiom(cols, p, idx))
		}
		// Membership: this row's key belongs to the table's key set.
		name, perm := memberName(t.Name, key)
		axioms = append(axioms, symbolic.Member(name, cols, permuteIdx(idx, perm)))
	}
	for _, fk := range t.ForeignKeys {
		name, perm := memberName(fk.ParentTable, fk.ParentColumns)
		idx := make([]int, len(fk.Columns))
		for i, col := range fk.Columns {
			idx[i] = t.ColumnIndex(col)
		}
		axioms = append(axioms, symbolic.FKChildAxiom(name, cols, permuteIdx(idx, perm)))
	}
	if v.tableTuples == nil {
		v.tableTuples = make(map[*schema.Table][]symbolic.Tuple)
	}
	v.tableTuples[t] = append(v.tableTuples[t], cols)
	return fol.And(axioms...)
}

// memberName derives the canonical name of a table key's membership
// predicate and the permutation that orders the key's columns
// canonically. Parent and child scans name the parent's key independently
// — the parent from its own key declaration, the child from its FK's
// REFERENCES list — so both sort the column names to agree on the symbol
// and on argument order.
func memberName(table string, key []string) (string, []int) {
	up := make([]string, len(key))
	for i, c := range key {
		up[i] = strings.ToUpper(c)
	}
	perm := make([]int, len(up))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return up[perm[a]] < up[perm[b]] })
	sorted := make([]string, len(up))
	for i, p := range perm {
		sorted[i] = up[p]
	}
	return "mem·" + strings.ToUpper(table) + "·" + strings.Join(sorted, ","), perm
}

// permuteIdx applies perm to idx: out[i] = idx[perm[i]].
func permuteIdx(idx, perm []int) []int {
	out := make([]int, len(perm))
	for i, p := range perm {
		out[i] = idx[p]
	}
	return out
}

// veriSPJ is Alg. 3.
func (v *Verifier) veriSPJ(s1, s2 *plan.SPJ) *symbolic.QPSR {
	fault.Inject(fault.VeriSPJ) // cancel outcome: ignored, ctx is polled in the solver
	var result *symbolic.QPSR
	v.veriVec(s1.Inputs, s2.Inputs, func(perm []int, qpsrs []*symbolic.QPSR) bool {
		// Compose: the symbolic join row of s1 concatenates the Cols1 sides
		// in s1's input order; the join row of s2 concatenates the Cols2
		// sides in s2's input order.
		var cols1, cols2 symbolic.Tuple
		for i := range s1.Inputs {
			cols1 = append(cols1, qpsrs[i].Cols1...)
		}
		inv := make([]int, len(perm))
		for i, j := range perm {
			inv[j] = i
		}
		for j := range s2.Inputs {
			cols2 = append(cols2, qpsrs[inv[j]].Cols2...)
		}
		conds := make([]*fol.Term, 0, len(qpsrs))
		assigns := make([]*fol.Term, 0, len(qpsrs))
		for _, q := range qpsrs {
			conds = append(conds, q.Cond)
			assigns = append(assigns, q.Assign)
		}
		cond := fol.And(conds...)
		assign := fol.And(assigns...)

		p1, a1, err := v.encodePred(s1.Pred, cols1)
		if err != nil {
			return false
		}
		p2, a2, err := v.encodePred(s2.Pred, cols2)
		if err != nil {
			return false
		}
		// The predicates must select corresponding tuples identically under
		// the candidate's COND ∧ ASSIGN context (A ∧ B → C ≡ A → (B → C)).
		if !v.validUnder(fol.And(cond, assign),
			fol.Implies(fol.And(a1, a2), fol.Iff(p1.IsTrue(), p2.IsTrue()))) {
			return false
		}

		out1, pa1, err := v.encodeProj(s1.Proj, cols1)
		if err != nil {
			return false
		}
		out2, pa2, err := v.encodeProj(s2.Proj, cols2)
		if err != nil {
			return false
		}
		result = &symbolic.QPSR{
			Cols1:  out1,
			Cols2:  out2,
			Cond:   fol.And(cond, p1.IsTrue(), p2.IsTrue()),
			Assign: fol.And(assign, a1, a2, pa1, pa2),
		}
		return true
	})
	return result
}

func (v *Verifier) encodePred(p plan.Expr, in symbolic.Tuple) (symbolic.Pred3, *fol.Term, error) {
	if p == nil {
		return symbolic.TruePred(), fol.True(), nil
	}
	pred, err := v.enc.Pred(p, in)
	if err != nil {
		v.enc.TakeAssigns()
		return symbolic.Pred3{}, nil, err
	}
	return pred, v.enc.TakeAssigns(), nil
}

func (v *Verifier) encodeProj(proj []plan.NamedExpr, in symbolic.Tuple) (symbolic.Tuple, *fol.Term, error) {
	out := make(symbolic.Tuple, len(proj))
	for i, p := range proj {
		c, err := v.enc.Expr(p.E, in)
		if err != nil {
			v.enc.TakeAssigns()
			return nil, nil, err
		}
		out[i] = c
	}
	return out, v.enc.TakeAssigns(), nil
}

// veriAgg is Alg. 4.
func (v *Verifier) veriAgg(a1, a2 *plan.Agg) *symbolic.QPSR {
	sub := v.veriCard(a1.Input, a2.Input)
	if sub == nil {
		return nil
	}
	g1, ga1, err := v.encodeGroup(a1.GroupBy, sub.Cols1)
	if err != nil {
		return nil
	}
	g2, ga2, err := v.encodeGroup(a2.GroupBy, sub.Cols2)
	if err != nil {
		return nil
	}
	base := fol.And(sub.Cond, sub.Assign, ga1, ga2)

	// Group-preservation property (both directions): for any two pairs of
	// corresponding tuples, grouping together on one side entails grouping
	// together on the other. Fresh primed copies model the second pair.
	prime := func(t *fol.Term) *fol.Term {
		return fol.RenameVars(t, func(n string) string { return n + "·p" })
	}
	primeTuple := func(t symbolic.Tuple) symbolic.Tuple {
		out := make(symbolic.Tuple, len(t))
		for i, c := range t {
			out[i] = symbolic.Col{Val: prime(c.Val), Null: prime(c.Null)}
		}
		return out
	}
	g1p, g2p := primeTuple(g1), primeTuple(g2)
	basep := prime(base)
	ctx := fol.And(base, basep)
	if !v.validUnder(ctx, fol.Implies(symbolic.GroupEq(g1, g1p), symbolic.GroupEq(g2, g2p))) {
		return nil
	}
	if !v.validUnder(ctx, fol.Implies(symbolic.GroupEq(g2, g2p), symbolic.GroupEq(g1, g1p))) {
		return nil
	}

	// InitAgg: fresh symbolic columns for the first query's aggregates.
	agg1Cols := make(symbolic.Tuple, len(a1.Aggs))
	agg1Args := make([]*symbolic.Col, len(a1.Aggs))
	var argAssigns []*fol.Term
	for i, a := range a1.Aggs {
		c := v.gen.FreshCol("agg")
		if a.Op == plan.AggCount || a.Op == plan.AggCountStar {
			c.Null = fol.False() // COUNT is never NULL
		}
		agg1Cols[i] = c
		if a.Arg != nil {
			ac, err := v.enc.Expr(a.Arg, sub.Cols1)
			if err != nil {
				v.enc.TakeAssigns()
				return nil
			}
			argAssigns = append(argAssigns, v.enc.TakeAssigns())
			agg1Args[i] = &ac
		}
	}

	// CtrAgg: the second query's aggregates reuse a first-query column when
	// the function, distinctness, and operand values coincide on
	// corresponding tuples; otherwise they get fresh columns (and full
	// equivalence will fail on them unless projected away — it cannot be:
	// aggregate outputs are always part of the tuple, so mismatches are
	// fatal, which is sound).
	agg2Cols := make(symbolic.Tuple, len(a2.Aggs))
	for j, b := range a2.Aggs {
		matched := false
		var bc *symbolic.Col
		if b.Arg != nil {
			c, err := v.enc.Expr(b.Arg, sub.Cols2)
			if err != nil {
				v.enc.TakeAssigns()
				return nil
			}
			argAssigns = append(argAssigns, v.enc.TakeAssigns())
			bc = &c
		}
		for i, a := range a1.Aggs {
			if a.Op != b.Op || a.Distinct != b.Distinct {
				continue
			}
			if a.Op == plan.AggCountStar {
				agg2Cols[j] = agg1Cols[i]
				matched = true
				break
			}
			ac := agg1Args[i]
			if ac == nil || bc == nil {
				continue
			}
			same := fol.Implies(fol.And(argAssigns...),
				fol.And(fol.Iff(ac.Null, bc.Null),
					fol.Implies(fol.Not(ac.Null), fol.Eq(ac.Val, bc.Val))))
			if v.validUnder(base, same) {
				agg2Cols[j] = agg1Cols[i]
				matched = true
				break
			}
		}
		if !matched {
			c := v.gen.FreshCol("agg")
			if b.Op == plan.AggCount || b.Op == plan.AggCountStar {
				c.Null = fol.False()
			}
			agg2Cols[j] = c
		}
	}

	return &symbolic.QPSR{
		Cols1:  append(append(symbolic.Tuple{}, g1...), agg1Cols...),
		Cols2:  append(append(symbolic.Tuple{}, g2...), agg2Cols...),
		Cond:   sub.Cond,
		Assign: fol.And(append([]*fol.Term{sub.Assign, ga1, ga2}, argAssigns...)...),
	}
}

func (v *Verifier) encodeGroup(group []plan.NamedExpr, in symbolic.Tuple) (symbolic.Tuple, *fol.Term, error) {
	out := make(symbolic.Tuple, len(group))
	for i, g := range group {
		c, err := v.enc.Expr(g.E, in)
		if err != nil {
			v.enc.TakeAssigns()
			return nil, nil, err
		}
		out[i] = c
	}
	return out, v.enc.TakeAssigns(), nil
}

// veriUnion is Alg. 5: pair the branches bijectively so that each pair is
// cardinally equivalent, then bind fresh output tuples to the branch tuples
// disjunctively (ConstAssign).
func (v *Verifier) veriUnion(u1, u2 *plan.Union) *symbolic.QPSR {
	var result *symbolic.QPSR
	v.veriVec(u1.Inputs, u2.Inputs, func(perm []int, qpsrs []*symbolic.QPSR) bool {
		out1 := v.gen.FreshTuple("u", u1.Arity())
		out2 := v.gen.FreshTuple("u", u2.Arity())
		branches := make([]*fol.Term, len(qpsrs))
		for i, q := range qpsrs {
			if len(q.Cols1) != len(out1) || len(q.Cols2) != len(out2) {
				return false
			}
			branches[i] = fol.And(q.Cond, q.Assign,
				symbolic.BindEq(out1, q.Cols1),
				symbolic.BindEq(out2, q.Cols2))
		}
		result = &symbolic.QPSR{
			Cols1:  out1,
			Cols2:  out2,
			Cond:   fol.True(),
			Assign: fol.Or(branches...),
		}
		return true
	})
	return result
}

// maxCandidates caps the bijections veriVec tries per vector pair.
const maxCandidates = 64

// veriVec searches for a bijection between two vectors of sub-queries such
// that each pair is cardinally equivalent (returning all candidate maps,
// lazily, as the paper's VeriVec does). try receives the permutation
// (perm[i] = index in e2 paired with e1[i]) and the per-pair QPSRs; a true
// return stops the search.
func (v *Verifier) veriVec(e1, e2 []plan.Node, try func(perm []int, qpsrs []*symbolic.QPSR) bool) {
	if len(e1) != len(e2) {
		return
	}
	n := len(e1)
	if n == 0 {
		// The empty product: a single empty tuple on both sides.
		try(nil, nil)
		return
	}
	type memoKey struct{ i, j int }
	memo := make(map[memoKey]*symbolic.QPSR)
	tried := make(map[memoKey]bool)
	pair := func(i, j int) *symbolic.QPSR {
		k := memoKey{i, j}
		if !tried[k] {
			tried[k] = true
			memo[k] = v.veriCard(e1[i], e2[j])
		}
		return memo[k]
	}
	used := make([]bool, n)
	perm := make([]int, n)
	qpsrs := make([]*symbolic.QPSR, n)
	budget := maxCandidates
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			if budget <= 0 {
				return true // stop the whole search
			}
			budget--
			v.stats.Candidates++
			return try(append([]int(nil), perm...), append([]*symbolic.QPSR(nil), qpsrs...))
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			q := pair(i, j)
			if q == nil {
				continue
			}
			used[j] = true
			perm[i] = j
			qpsrs[i] = q
			if rec(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	rec(0)
}

// String renders verification statistics.
func (s Stats) String() string {
	out := fmt.Sprintf("vericard=%d candidates=%d solver-queries=%d model-rounds=%d conflicts=%d core-checks=%d",
		s.VeriCardCalls, s.Candidates, s.SolverQueries, s.ModelRounds, s.TheoryConflicts, s.CoreChecks)
	if s.ObligationHits > 0 || s.ObligationMiss > 0 {
		out += fmt.Sprintf(" cache-hits=%d cache-misses=%d", s.ObligationHits, s.ObligationMiss)
	}
	return out
}
