package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"spes/internal/corpus"
	"spes/internal/engine"
)

// ConstraintsReport is the constraint-aware equivalence study emitted as
// the BENCH_constraints.json artifact. It runs the constraint-dependent
// corpus tier twice — against the catalog that declares the constraints
// and against its constraint-free twin — and records the gating property
// (proved with, not-proved without) plus the wall-clock and allocation
// cost of carrying the constraint axioms.
type ConstraintsReport struct {
	Pairs   int `json:"pairs"`
	Workers int `json:"workers"`

	// Digests of the two catalogs — the namespace every verdict-bearing
	// cache and store key carries, so the two halves can never share an
	// entry.
	ConstraintDigest string `json:"constraint_digest"`
	BaseDigest       string `json:"base_digest"`

	// ProvedWith counts pairs equivalent under the constraint catalog
	// (the tier's ground truth says all of them); ProvedWithout counts
	// pairs equivalent under the constraint-free twin (any is a soundness
	// bug); NotProvedWithout counts the expected without-constraints
	// outcome. Gated is the whole study's pass/fail: every pair proved
	// with constraints AND not-proved without.
	ProvedWith       int  `json:"proved_with"`
	ProvedWithout    int  `json:"proved_without"`
	NotProvedWithout int  `json:"not_proved_without"`
	Gated            bool `json:"gated"`

	WithMS    float64 `json:"with_ms"`
	WithoutMS float64 `json:"without_ms"`
	// WallDeltaPct is the relative wall-clock cost of the constraint-aware
	// run over the constraint-free one on the same pairs ((with-without)/
	// without); AllocDelta the allocation delta in MB. Both halves do
	// different proof work — the constrained half actually proves — so the
	// deltas describe the price of proof power, not pure overhead.
	WallDeltaPct float64 `json:"wall_delta_pct"`
	WithAllocMB  float64 `json:"with_alloc_mb"`
	WoAllocMB    float64 `json:"without_alloc_mb"`
	AllocDeltaMB float64 `json:"alloc_delta_mb"`

	WithSolverQueries    int64 `json:"with_solver_queries"`
	WithoutSolverQueries int64 `json:"without_solver_queries"`

	PerPair []ConstraintPairOutcome `json:"per_pair"`
}

// ConstraintPairOutcome is one pair's verdicts under both catalogs.
type ConstraintPairOutcome struct {
	ID             string `json:"id"`
	Rule           string `json:"rule"`
	WithVerdict    string `json:"with_verdict"`
	WithoutVerdict string `json:"without_verdict"`
}

// RunConstraints runs the constraint-aware equivalence study.
func RunConstraints(workers int) ConstraintsReport {
	pairs := corpus.ConstraintPairs()
	eng := make([]engine.Pair, len(pairs))
	for i, p := range pairs {
		eng[i] = engine.Pair{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2}
	}
	conCat, baseCat := corpus.ConstraintCatalog(), corpus.Catalog()
	rep := ConstraintsReport{
		Pairs:            len(pairs),
		Workers:          workers,
		ConstraintDigest: conCat.ConstraintDigest(),
		BaseDigest:       baseCat.ConstraintDigest(),
	}

	allocBefore := totalAllocMB()
	start := time.Now()
	withRes, withStats := engine.VerifyBatch(conCat, eng, engine.Options{Workers: workers})
	rep.WithMS = ms(time.Since(start))
	rep.WithAllocMB = totalAllocMB() - allocBefore
	rep.WithSolverQueries = withStats.SolverQueries

	allocBefore = totalAllocMB()
	start = time.Now()
	woRes, woStats := engine.VerifyBatch(baseCat, eng, engine.Options{Workers: workers})
	rep.WithoutMS = ms(time.Since(start))
	rep.WoAllocMB = totalAllocMB() - allocBefore
	rep.WithoutSolverQueries = woStats.SolverQueries

	rep.AllocDeltaMB = rep.WithAllocMB - rep.WoAllocMB
	if rep.WithoutMS > 0 {
		rep.WallDeltaPct = (rep.WithMS - rep.WithoutMS) / rep.WithoutMS * 100
	}

	rep.Gated = true
	for i := range pairs {
		rep.PerPair = append(rep.PerPair, ConstraintPairOutcome{
			ID:             pairs[i].ID,
			Rule:           pairs[i].Rule,
			WithVerdict:    withRes[i].Verdict.String(),
			WithoutVerdict: woRes[i].Verdict.String(),
		})
		switch withRes[i].Verdict {
		case engine.Equivalent:
			rep.ProvedWith++
		}
		switch woRes[i].Verdict {
		case engine.Equivalent:
			rep.ProvedWithout++
		case engine.NotProved:
			rep.NotProvedWithout++
		}
		if withRes[i].Verdict != engine.Equivalent || woRes[i].Verdict != engine.NotProved {
			rep.Gated = false
		}
	}
	return rep
}

// totalAllocMB reads the process's cumulative allocation counter; deltas
// of it measure bytes allocated by a phase regardless of GC timing.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// RenderConstraints formats the study for the terminal.
func RenderConstraints(r ConstraintsReport) string {
	var b strings.Builder
	b.WriteString("Constraint-aware equivalence: proof power gated on declared constraints\n\n")
	fmt.Fprintf(&b, "pairs=%d workers=%d  digest with=%s without=%s\n",
		r.Pairs, r.Workers, orNone(r.ConstraintDigest), orNone(r.BaseDigest))
	fmt.Fprintf(&b, "with constraints:    %3d/%d proved   %10.1f ms  %8.1f MB alloc  %d solver queries\n",
		r.ProvedWith, r.Pairs, r.WithMS, r.WithAllocMB, r.WithSolverQueries)
	fmt.Fprintf(&b, "without constraints: %3d/%d proved   %10.1f ms  %8.1f MB alloc  %d solver queries\n",
		r.ProvedWithout, r.Pairs, r.WithoutMS, r.WoAllocMB, r.WithoutSolverQueries)
	fmt.Fprintf(&b, "deltas: wall %+.1f%%, alloc %+.1f MB\n", r.WallDeltaPct, r.AllocDeltaMB)
	fmt.Fprintf(&b, "gated (all proved with, none without): %v\n", r.Gated)
	byRule := map[string][2]int{}
	var order []string
	for _, p := range r.PerPair {
		c, ok := byRule[p.Rule]
		if !ok {
			order = append(order, p.Rule)
		}
		if p.WithVerdict == "equivalent" {
			c[0]++
		}
		c[1]++
		byRule[p.Rule] = c
	}
	for _, rule := range order {
		c := byRule[rule]
		fmt.Fprintf(&b, "  %-18s %d/%d proved with constraints\n", rule, c[0], c[1])
	}
	return b.String()
}

func orNone(d string) string {
	if d == "" {
		return "(none)"
	}
	return d
}
