package bench

import (
	"fmt"
	"strings"
	"time"

	"spes/internal/corpus"
	"spes/internal/engine"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/verify"
)

// BatchReport is the engine throughput study emitted as the BENCH_batch.json
// artifact: batch throughput against the sequential Table 2 path (fresh
// normalizer + verifier per pair, no caching) on the same candidate pairs,
// so the speedup column tracks the engine's perf trajectory across PRs.
type BatchReport struct {
	Pairs   int `json:"pairs"`
	Workers int `json:"workers"`

	SequentialMS          float64 `json:"sequential_ms"`
	BatchMS               float64 `json:"batch_ms"`
	SequentialPairsPerSec float64 `json:"sequential_pairs_per_sec"`
	PairsPerSec           float64 `json:"pairs_per_sec"`
	Speedup               float64 `json:"speedup"`

	// RefuteBudget echoes the study's counterexample-search budget;
	// RefutationRate is refuted pairs over all pairs that failed the
	// symbolic proof (refuted + not-proved) — how often a failed proof was
	// a genuine inequivalence the bounded search could expose.
	RefuteBudget   int     `json:"refute_budget,omitempty"`
	Refuted        int64   `json:"refuted"`
	RefutationRate float64 `json:"refutation_rate"`

	CacheHitRate     float64 `json:"cache_hit_rate"`
	ObligationHits   int64   `json:"obligation_hits"`
	ObligationMisses int64   `json:"obligation_misses"`
	NormHits         int64   `json:"norm_hits"`
	NormMisses       int64   `json:"norm_misses"`
	Deduped          int64   `json:"deduped"`
	Timeouts         int64   `json:"timeouts"`
	SolverSessions   int64   `json:"solver_sessions"`
	PrefixReuse      int64   `json:"prefix_reuse"`

	Verdicts map[string]int `json:"verdicts"`
}

// BatchPairs enumerates the workload's raw within-cluster pair stream as
// engine plan pairs: every ordered combination of a cluster's members,
// recurrences included. Unlike Table 2's candidatePairs — which dedupes
// identical texts up front because the overlap protocol counts them
// separately — this is the stream a DBaaS batch verifier actually
// receives (§7.3 reports hot queries recurring hundreds of times), and
// eating that recurrence cheaply is precisely the engine's job. Identical
// texts share one built plan (building is untimed setup for both the
// baseline and the engine); unbuildable queries are skipped.
func BatchPairs(w *corpus.Workload) []engine.PlanPair {
	b := plan.NewBuilder(w.Catalog)
	bySQL := map[string]plan.Node{}
	plans := map[int]plan.Node{}
	for _, q := range w.Queries {
		n, ok := bySQL[q.SQL]
		if !ok {
			var err error
			if n, err = b.BuildSQL(q.SQL); err != nil {
				bySQL[q.SQL] = nil
				continue
			}
			bySQL[q.SQL] = n
		}
		if n != nil {
			plans[q.ID] = n
		}
	}
	var out []engine.PlanPair
	byCluster := map[int][]corpus.WorkloadQuery{}
	var clusterOrder []int
	for _, q := range w.Queries {
		if _, ok := byCluster[q.Cluster]; !ok {
			clusterOrder = append(clusterOrder, q.Cluster)
		}
		byCluster[q.Cluster] = append(byCluster[q.Cluster], q)
	}
	for _, c := range clusterOrder {
		members := byCluster[c]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				q1, ok1 := plans[members[i].ID]
				q2, ok2 := plans[members[j].ID]
				if ok1 && ok2 {
					out = append(out, engine.PlanPair{Q1: q1, Q2: q2})
				}
			}
		}
	}
	return out
}

// RunSequentialBaseline verifies the pairs exactly the way the sequential
// Table 2 path does — a fresh normalizer and verifier per pair, no caches —
// and returns the verdict counts plus wall time.
func RunSequentialBaseline(pairs []engine.PlanPair) (equivalent int, wall time.Duration) {
	start := time.Now()
	for _, p := range pairs {
		nz := normalize.New(normalize.Options{})
		if verify.New().VerifyPlans(nz.Normalize(p.Q1), nz.Normalize(p.Q2)) {
			equivalent++
		}
	}
	return equivalent, time.Since(start)
}

// RunBatch runs the throughput study: sequential baseline, then the engine
// at the given worker count with all memo layers on. refuteBudget > 0 adds
// the bounded counterexample search after each failed proof and reports the
// refutation rate alongside throughput.
func RunBatch(w *corpus.Workload, workers int, timeout time.Duration, refuteBudget int) BatchReport {
	pairs := BatchPairs(w)
	_, seqWall := RunSequentialBaseline(pairs)

	results, stats := engine.VerifyPlanBatch(pairs, engine.Options{
		Workers:      workers,
		Timeout:      timeout,
		RefuteBudget: refuteBudget,
	})

	rep := BatchReport{
		Pairs:                 int(stats.Pairs),
		Workers:               stats.Workers,
		SequentialMS:          ms(seqWall),
		BatchMS:               ms(stats.Wall),
		SequentialPairsPerSec: perSec(len(pairs), seqWall),
		PairsPerSec:           stats.PairsPerSec(),
		CacheHitRate:          stats.ObligationHitRate(),
		ObligationHits:        stats.ObligationHits,
		ObligationMisses:      stats.ObligationMisses,
		NormHits:              stats.NormHits,
		NormMisses:            stats.NormMisses,
		Deduped:               stats.Deduped,
		Timeouts:              stats.Timeouts,
		SolverSessions:        stats.SolverSessions,
		PrefixReuse:           stats.PrefixReuse,
		RefuteBudget:          refuteBudget,
		Refuted:               stats.Refuted,
		Verdicts:              map[string]int{},
	}
	if stats.Wall > 0 {
		rep.Speedup = seqWall.Seconds() / stats.Wall.Seconds()
	}
	if failed := stats.Refuted + stats.NotProved; failed > 0 {
		rep.RefutationRate = float64(stats.Refuted) / float64(failed)
	}
	for _, r := range results {
		rep.Verdicts[r.Verdict.String()]++
	}
	return rep
}

func perSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// RenderBatch formats the throughput study for the terminal.
func RenderBatch(r BatchReport) string {
	var b strings.Builder
	b.WriteString("Batch engine throughput vs the sequential Table 2 path\n\n")
	fmt.Fprintf(&b, "pairs=%d workers=%d\n", r.Pairs, r.Workers)
	fmt.Fprintf(&b, "sequential: %10.1f ms  (%8.1f pairs/s)\n", r.SequentialMS, r.SequentialPairsPerSec)
	fmt.Fprintf(&b, "engine:     %10.1f ms  (%8.1f pairs/s)  speedup %.2fx\n", r.BatchMS, r.PairsPerSec, r.Speedup)
	fmt.Fprintf(&b, "obligation cache: %.0f%% hit (%d hit / %d miss)\n",
		100*r.CacheHitRate, r.ObligationHits, r.ObligationMisses)
	fmt.Fprintf(&b, "normalization memo: %d hit / %d miss; deduped pairs: %d; timeouts: %d\n",
		r.NormHits, r.NormMisses, r.Deduped, r.Timeouts)
	fmt.Fprintf(&b, "solver sessions: %d opened, %d suffix checks reused a pushed prefix\n",
		r.SolverSessions, r.PrefixReuse)
	if r.RefuteBudget > 0 {
		fmt.Fprintf(&b, "refutation: budget %d, %d refuted (%.0f%% of failed proofs)\n",
			r.RefuteBudget, r.Refuted, 100*r.RefutationRate)
	}
	fmt.Fprintf(&b, "verdicts: %v\n", r.Verdicts)
	return b.String()
}
