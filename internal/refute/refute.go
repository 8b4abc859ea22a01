// Package refute implements the bounded concrete refutation pass: when the
// symbolic proof fails, search small random databases for an input on which
// the two plans produce different output bags, shrink it to a minimal
// witness, and return it. The search is sound by construction — a witness
// is only ever built from a database on which both plans actually executed
// and the output multisets actually differed — and deterministic: the
// random stream is seeded from the pair's plan fingerprint, so the same
// pair yields byte-identical witnesses on any worker, shard, or process.
//
// Refutation complements the prover (VeriEQL-style bounded checking): the
// symbolic layer proves equivalence over ALL databases, this layer
// disproves it on SOME database. A pair both proved and refutable is a
// prover bug, which the differential suite checks on every run.
package refute

import (
	"context"
	"strconv"
	"time"

	"spes/internal/datagen"
	"spes/internal/exec"
	"spes/internal/fault"
	"spes/internal/plan"
	"spes/internal/schema"
)

// Options bounds a search.
type Options struct {
	// Budget is the number of candidate databases to try; 0 disables the
	// search entirely (Search returns nil immediately).
	Budget int
	// MaxRows bounds rows per table in each candidate (default 5; small
	// domains make joins match and duplicates occur, and keep the shrink
	// loop's executions cheap).
	MaxRows int
	// Seed fixes the random stream; 0 derives it from the pair's plan
	// fingerprint, making witnesses deterministic per pair.
	Seed int64
	// Deadline, if nonzero, stops the search between candidates.
	Deadline time.Time
	// Ctx, if non-nil, stops the search between candidates when cancelled.
	Ctx context.Context
}

func (o Options) maxRows() int {
	if o.MaxRows > 0 {
		return o.MaxRows
	}
	return 5
}

// Stats reports what a search did.
type Stats struct {
	// Rounds is the number of candidate databases generated.
	Rounds int
	// ExecErrors counts candidates skipped because a plan failed to
	// execute over them (e.g. a row-limit breach).
	ExecErrors int
	// ShrinkSteps counts rows removed by the minimization loop.
	ShrinkSteps int
	// Aborted is set when a deadline, cancellation, or injected fault
	// stopped the search early. An aborted search without a witness says
	// nothing about the pair.
	Aborted bool
	// Exhausted is set when the search ran all Budget rounds and found no
	// witness. Like a witness, that outcome is a deterministic function of
	// the pair and the options (see ExhaustedKey).
	Exhausted bool
}

// SearchVersion names what Search does: the datagen streams it draws, the
// executor semantics it compares outputs under, the default row bound and
// the order of its rounds. Exhausted-search records are served without
// replay on the strength of this number, so any change that could alter
// what Search returns for some pair must bump it; TestSearchOutcomesPinned
// fails until the outcomes it pins are re-recorded.
const SearchVersion = 1

// ExhaustedRecord is the record an exhausted search stores under its
// ExhaustedKey. Only the key carries meaning.
const ExhaustedRecord = "exhausted"

// ExhaustedKey returns the store key that records "Search found no witness
// for this pair within these options". witnessKey is the pair's witness key
// (constraint digest and plan.PairKey of q1, q2). The key also names
// everything else Search's outcome depends on: SearchVersion, the budget,
// the effective row bound, the seed, and the column types of the tables the
// search generates, which plan keys do not encode. It starts with 'x',
// which no witness key does (they start with "c<digest>:" or a plan-node
// keyword), so the two kinds of record never share a key.
func ExhaustedKey(witnessKey string, q1, q2 plan.Node, opts Options) string {
	b := make([]byte, 0, 48+len(witnessKey))
	b = append(b, 'x')
	b = strconv.AppendInt(b, SearchVersion, 10)
	b = append(b, " b"...)
	b = strconv.AppendInt(b, int64(opts.Budget), 10)
	b = append(b, " r"...)
	b = strconv.AppendInt(b, int64(opts.maxRows()), 10)
	b = append(b, " s"...)
	b = strconv.AppendInt(b, opts.Seed, 10)
	b = append(b, " t"...)
	for _, t := range collectTables(q1, q2) {
		b = append(b, '[')
		for _, c := range t.Columns {
			b = append(b, '0'+byte(c.Type))
		}
		b = append(b, ']')
	}
	b = append(b, ' ')
	return string(append(b, witnessKey...))
}

// Search looks for a witness distinguishing q1 from q2 within the budget.
// It returns nil if none is found — which, the search being bounded, never
// implies equivalence. Panics out of the executor (or injected by the
// chaos harness) abort the search and degrade to nil: a fault can lose a
// witness, never fabricate one.
func Search(q1, q2 plan.Node, opts Options) (w *Witness, st Stats) {
	if opts.Budget <= 0 {
		return nil, st
	}
	defer func() {
		if r := recover(); r != nil {
			w = nil
			st.Aborted = true
		}
	}()

	tables := collectTables(q1, q2)
	if len(tables) == 0 {
		// Constant queries read no tables; a differing output would have
		// been proved or disproved symbolically already, and with no input
		// to vary there is nothing to search.
		return nil, st
	}
	seed := opts.Seed
	if seed == 0 {
		seed = int64(plan.PairFingerprint(q1, q2))
		if seed == 0 {
			seed = 1
		}
	}
	gen := datagen.NewGenerator(seed, datagen.Options{MaxRows: opts.maxRows()})

	for round := 0; round < opts.Budget; round++ {
		if expired(opts) {
			st.Aborted = true
			return nil, st
		}
		db := gen.ForTables(tables)
		if fault.Inject(fault.RefuteSearch) == fault.Cancel {
			st.Aborted = true
			return nil, st
		}
		st.Rounds++
		out1, err1 := exec.Run(db, q1)
		out2, err2 := exec.Run(db, q2)
		if err1 != nil || err2 != nil {
			st.ExecErrors++
			continue
		}
		if exec.BagEqual(out1, out2) {
			continue
		}
		// Found a distinguishing database; minimize it, then re-execute
		// the shrunken form to build the witness from actual outputs.
		db = shrink(db, q1, q2, tables, &st, opts)
		out1, err1 = exec.Run(db, q1)
		out2, err2 = exec.Run(db, q2)
		if err1 != nil || err2 != nil || exec.BagEqual(out1, out2) {
			// Shrink guarantees each accepted removal preserves the
			// difference, so this is unreachable; guard anyway rather
			// than emit an unconfirmed witness.
			st.ExecErrors++
			continue
		}
		return newWitness(seed, round, tables, db, out1, out2), st
	}
	st.Exhausted = true
	return nil, st
}

// expired reports whether the search should stop before the next round.
func expired(opts Options) bool {
	if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
		return true
	}
	if opts.Ctx != nil {
		select {
		case <-opts.Ctx.Done():
			return true
		default:
		}
	}
	return false
}

// shrink greedily removes rows while the plans' outputs still differ and
// the database still satisfies the declared constraints, repeating until
// no single-row removal preserves both. Removing a row can only violate a
// foreign key (by orphaning child references), so the constraint re-check
// is skipped entirely for FK-free schemas. Removal order is deterministic
// (table name order, then row order), so the minimal witness is a pure
// function of the found database.
func shrink(db exec.Database, q1, q2 plan.Node, tables []*schema.Table, st *Stats, opts Options) exec.Database {
	checkFK := anyForeignKeys(tables)
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sortStrings(names)
	for changed := true; changed; {
		changed = false
		for _, name := range names {
			t := db[name]
			for i := 0; i < len(t.Rows); i++ {
				if expired(opts) {
					return db
				}
				trimmed := make([]exec.Row, 0, len(t.Rows)-1)
				trimmed = append(trimmed, t.Rows[:i]...)
				trimmed = append(trimmed, t.Rows[i+1:]...)
				db[name] = &exec.Table{Rows: trimmed}
				if stillDiffers(db, q1, q2) &&
					(!checkFK || ValidateConstraints(db, tables) == nil) {
					t = db[name]
					st.ShrinkSteps++
					changed = true
					i--
				} else {
					db[name] = t
				}
			}
		}
	}
	return db
}

func stillDiffers(db exec.Database, q1, q2 plan.Node) bool {
	out1, err1 := exec.Run(db, q1)
	out2, err2 := exec.Run(db, q2)
	if err1 != nil || err2 != nil {
		return false
	}
	return !exec.BagEqual(out1, out2)
}

// collectTables gathers the distinct table schemas both plans read,
// descending into subquery plans nested inside expressions (plan.Walk does
// not). Sorted by name so generation order — and therefore the random
// stream's consumption — is deterministic.
func collectTables(qs ...plan.Node) []*schema.Table {
	seen := map[string]*schema.Table{}
	var visit func(n plan.Node)
	visitExpr := func(e plan.Expr) {
		plan.WalkExpr(e, func(x plan.Expr) bool {
			switch v := x.(type) {
			case *plan.Exists:
				visit(v.Sub)
			case *plan.ScalarSub:
				visit(v.Sub)
			}
			return true
		})
	}
	visit = func(n plan.Node) {
		switch v := n.(type) {
		case *plan.Table:
			seen[v.Meta.Name] = v.Meta
		case *plan.SPJ:
			visitExpr(v.Pred)
			for _, p := range v.Proj {
				visitExpr(p.E)
			}
		case *plan.Agg:
			for _, g := range v.GroupBy {
				visitExpr(g.E)
			}
			for _, a := range v.Aggs {
				visitExpr(a.Arg)
			}
		}
		for _, c := range plan.Children(n) {
			visit(c)
		}
	}
	for _, q := range qs {
		if q != nil {
			visit(q)
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sortStrings(names)
	out := make([]*schema.Table, len(names))
	for i, name := range names {
		out[i] = seen[name]
	}
	return out
}

// sortStrings is an allocation-free insertion sort; witness table lists
// are tiny.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
