package bench

import (
	"time"

	"spes/internal/corpus"
	"spes/internal/engine"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/verify"
)

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
