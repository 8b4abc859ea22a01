// Package spes is a symbolic prover for SQL query equivalence under bag
// semantics, reproducing "SPES: A Symbolic Approach to Proving Query
// Equivalence Under Bag Semantics" (ICDE 2022).
//
// Two queries are fully equivalent under bag semantics when they return
// identical multisets of tuples on every database. SPES proves this by
// (1) normalizing both queries to a union-normal-form plan tree,
// (2) recursively proving cardinal equivalence — the existence of a
// bijection between output tuples — while building a Query Pair Symbolic
// Representation of that bijection, and (3) asking an SMT solver to show
// the bijection is an identity map.
//
// The prover is sound and incomplete: Equivalent verdicts are always
// correct; NotProved never means "proved inequivalent".
//
// Basic use:
//
//	cat, _ := spes.ParseCatalog(`CREATE TABLE EMP (EMP_ID INT PRIMARY KEY, SALARY INT, DEPT_ID INT);`)
//	res, err := spes.Verify(cat,
//	    "SELECT DEPT_ID FROM EMP WHERE DEPT_ID > 10",
//	    "SELECT DEPT_ID FROM EMP WHERE DEPT_ID + 5 > 15")
//	if err == nil && res.Verdict == spes.Equivalent { ... }
package spes

import (
	"context"
	"fmt"
	"time"

	"spes/internal/engine"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/sqlparser"
	"spes/internal/verify"
)

// Verdict is the outcome of a verification.
type Verdict int

const (
	// NotProved means equivalence could not be established (the queries
	// may or may not be equivalent).
	NotProved Verdict = iota
	// Equivalent means the queries are fully equivalent under bag
	// semantics on all databases conforming to the catalog.
	Equivalent
	// Unsupported means at least one query uses a SQL feature outside the
	// supported subset.
	Unsupported
	// Refuted means the queries are proved inequivalent: the bounded
	// refutation pass found a concrete database — attached to the Result
	// as a Witness — on which their output multisets differ. Only produced
	// when Options.RefuteBudget > 0 and the symbolic proof failed for a
	// reason other than timeout or cancellation.
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

// Witness is a concrete counterexample attached to a Refuted verdict: the
// tables and rows of a small database plus the two differing output
// multisets. See internal/refute for the search, shrink, and replay
// machinery.
type Witness = refute.Witness

// Result carries the verdict and verification statistics.
type Result struct {
	Verdict Verdict
	// Cardinal reports whether the queries were at least proved
	// *cardinally* equivalent (Def 1 of the paper: same output cardinality
	// on every database, i.e. a bijection exists between the outputs).
	// Equivalent implies Cardinal; a NotProved result with Cardinal set
	// means the bijection exists but could not be shown to be an identity.
	Cardinal bool
	// Reason explains Unsupported and some NotProved outcomes.
	Reason string
	// Witness is the counterexample backing a Refuted verdict; nil
	// otherwise. Every witness has been confirmed by executing both plans
	// over it and observing differing output bags.
	Witness *Witness
	// Stats summarizes the verifier's work.
	Stats verify.Stats
}

// Options configures verification.
type Options struct {
	// DisableNormalization runs the verifier on raw plan trees — the
	// paper's "SPES (w/o normalization)" ablation.
	DisableNormalization bool
	// RefuteBudget, when positive, runs the bounded refutation pass after
	// a failed proof: up to this many small random databases are executed
	// looking for one where the outputs differ, turning NotProved into
	// Refuted with a Witness. 0 keeps verification purely symbolic.
	RefuteBudget int
	// ConstraintDigest namespaces cache and store keys by the catalog's
	// integrity-constraint set (see schema.Catalog.ConstraintDigest).
	// VerifyWithOptions fills it from the catalog automatically; set it
	// only when calling VerifyPlans directly on plans built against a
	// constraint-carrying catalog.
	ConstraintDigest string
}

// Catalog re-exports the schema catalog type for API convenience.
type Catalog = schema.Catalog

// ParseCatalog builds a catalog from CREATE TABLE statements. Primary-key
// columns are implicitly NOT NULL. UNIQUE and FOREIGN KEY constraints are
// carried into the catalog; a REFERENCES clause without a column list
// resolves to the parent table's primary key.
func ParseCatalog(ddl string) (*Catalog, error) {
	stmts, err := sqlparser.ParseSchema(ddl)
	if err != nil {
		return nil, err
	}
	cat := schema.NewCatalog()
	for _, ct := range stmts {
		t := &schema.Table{Name: ct.Name, PrimaryKey: ct.PK, Unique: ct.Unique}
		for _, c := range ct.Columns {
			typ, err := schema.ParseType(c.Type)
			if err != nil {
				return nil, err
			}
			notNull := c.NotNull
			for _, pk := range ct.PK {
				if pk == c.Name {
					notNull = true
				}
			}
			t.Columns = append(t.Columns, schema.Column{Name: c.Name, Type: typ, NotNull: notNull})
		}
		for _, fk := range ct.ForeignKeys {
			t.ForeignKeys = append(t.ForeignKeys, schema.ForeignKey{
				Columns:       fk.Columns,
				ParentTable:   fk.ParentTable,
				ParentColumns: fk.ParentColumns,
			})
		}
		if err := cat.AddTable(t); err != nil {
			return nil, err
		}
	}
	// A REFERENCES clause with no explicit column list means the parent's
	// primary key; resolve now that every table is registered.
	for _, name := range cat.Names() {
		t, _ := cat.Table(name)
		for i := range t.ForeignKeys {
			fk := &t.ForeignKeys[i]
			if len(fk.ParentColumns) == 0 {
				parent, ok := cat.Table(fk.ParentTable)
				if !ok {
					return nil, fmt.Errorf("spes: foreign key in table %q references unknown table %q", t.Name, fk.ParentTable)
				}
				fk.ParentColumns = append([]string(nil), parent.PrimaryKey...)
			}
		}
	}
	if err := cat.CheckForeignKeys(); err != nil {
		return nil, err
	}
	return cat, nil
}

// Verify proves (or fails to prove) that two SQL queries are fully
// equivalent under bag semantics.
func Verify(cat *Catalog, sql1, sql2 string) (Result, error) {
	return VerifyWithOptions(cat, sql1, sql2, Options{})
}

// VerifyWithOptions is Verify with configuration.
func VerifyWithOptions(cat *Catalog, sql1, sql2 string, opts Options) (Result, error) {
	if opts.ConstraintDigest == "" {
		opts.ConstraintDigest = cat.ConstraintDigest()
	}
	b := plan.NewBuilder(cat)
	q1, err := b.BuildSQL(sql1)
	if err != nil {
		return classifyBuildError(err)
	}
	q2, err := b.BuildSQL(sql2)
	if err != nil {
		return classifyBuildError(err)
	}
	return VerifyPlans(q1, q2, opts), nil
}

func classifyBuildError(err error) (Result, error) {
	if plan.Unsupported(err) {
		return Result{Verdict: Unsupported, Reason: err.Error()}, nil
	}
	return Result{}, err
}

// VerifyPlans verifies two already-built plans.
func VerifyPlans(q1, q2 plan.Node, opts Options) Result {
	if !opts.DisableNormalization {
		nz := normalize.New(normalize.Options{})
		q1 = nz.Normalize(q1)
		q2 = nz.Normalize(q2)
	}
	v := verify.NewWithConfig(verify.Config{
		RefuteBudget:     opts.RefuteBudget,
		ConstraintDigest: opts.ConstraintDigest,
	})
	out := v.Check(q1, q2)
	res := Result{Verdict: NotProved, Cardinal: out.Cardinal}
	if out.Full {
		res.Verdict = Equivalent
	} else if w := v.Refute(q1, q2); w != nil {
		res.Verdict = Refuted
		res.Witness = w
		res.Reason = "counterexample database found"
	}
	res.Stats = v.Stats()
	return res
}

// BatchPair is one SQL pair of a VerifyBatch call.
type BatchPair = engine.Pair

// BatchOptions configures VerifyBatch: worker count, per-pair timeout,
// cache sizing, and the same normalization switches as Options.
type BatchOptions = engine.Options

// BatchStats aggregates a VerifyBatch run: the engine's StatsSnapshot
// counters (verdicts, dedupe, cache hits and misses, solver work) plus
// worker count and wall time.
type BatchStats = engine.BatchStats

// BatchResult is one pair's outcome from VerifyBatch.
type BatchResult struct {
	// ID echoes the pair's ID.
	ID string
	// Verdict, Cardinal, Reason, and Stats mean what they do in Result.
	Verdict  Verdict
	Cardinal bool
	Reason   string
	Stats    verify.Stats
	// Elapsed is the pair's wall time inside its worker.
	Elapsed time.Duration
	// Deduped marks a verdict shared from a structurally identical pair in
	// the same batch.
	Deduped bool
	// TimedOut marks a pair whose solver hit the per-pair deadline: its
	// NotProved may be a timeout rather than a genuine failure to prove.
	TimedOut bool
	// Cancelled marks a pair aborted by context cancellation; like a
	// timeout it can only degrade a verdict to NotProved, never invent one.
	Cancelled bool
	// Witness backs a Refuted verdict (see Result.Witness); nil otherwise.
	Witness *Witness
}

// VerifyBatch verifies many pairs at once on a bounded worker pool
// (default GOMAXPROCS) with memoized normalization, structural pair
// dedupe, and a shared obligation cache — the batch analogue of Verify.
// Results are index-aligned with pairs. Caching and parallelism never
// change a verdict: only definite solver outcomes are reused, so a batch
// returns exactly the verdicts sequential Verify calls would (timeouts
// aside, which only ever turn Equivalent into NotProved).
func VerifyBatch(cat *Catalog, pairs []BatchPair, opts BatchOptions) ([]BatchResult, BatchStats) {
	return VerifyBatchContext(context.Background(), cat, pairs, opts)
}

// VerifyBatchContext is VerifyBatch under a context: cancelling ctx aborts
// in-flight solver work and degrades the affected pairs to NotProved with
// Cancelled set — never a wrong verdict — while keeping results
// index-aligned and fully populated. This is the entry point spes-serve
// uses to honor request deadlines and graceful drains.
func VerifyBatchContext(ctx context.Context, cat *Catalog, pairs []BatchPair, opts BatchOptions) ([]BatchResult, BatchStats) {
	rs, stats := engine.VerifyBatchContext(ctx, cat, pairs, opts)
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = BatchResult{
			ID:        r.ID,
			Verdict:   Verdict(r.Verdict), // engine.Verdict mirrors Verdict by value
			Cardinal:  r.Cardinal,
			Reason:    r.Reason,
			Stats:     r.Stats,
			Elapsed:   r.Elapsed,
			Deduped:   r.Deduped,
			TimedOut:  r.TimedOut,
			Cancelled: r.Cancelled,
			Witness:   r.Witness,
		}
	}
	return out, stats
}

// BuildPlan parses and lowers one query; exported for tools that inspect or
// execute plans (see cmd/spes and the examples).
func BuildPlan(cat *Catalog, sql string) (plan.Node, error) {
	return plan.NewBuilder(cat).BuildSQL(sql)
}

// ExplainPlan renders a plan tree for human inspection.
func ExplainPlan(n plan.Node) string { return plan.Indent(n) }

// Normalize applies SPES's normalization rules to a plan.
func Normalize(n plan.Node, opts normalize.Options) plan.Node {
	return normalize.New(opts).Normalize(n)
}
