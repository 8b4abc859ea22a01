package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/schema"
)

// IncrementalReport is the incremental-solving study emitted as the
// BENCH_incremental.json artifact: the same plan-pair batch through the
// default session-reusing engine and through one-shot solving
// (Options.DisableIncremental), measured with testing.Benchmark. The
// headline number is model rounds per pair — the propositional models the
// DPLL(T) loop examines — because that is the work assumption-based
// push/pop exists to cut: every VeriVec candidate of one pair checks its
// obligation on the same pushed prefix, so conflicts a session blocked for
// one candidate never cost a later candidate a model round, while one-shot
// solving rediscovers them per candidate. The acceptance bar is
// ModelRoundReductionPct >= 20 on this batch path.
type IncrementalReport struct {
	Pairs   int `json:"pairs"`
	Workers int `json:"workers"`

	IncrementalModelRoundsPerPair float64 `json:"incremental_model_rounds_per_pair"`
	OneShotModelRoundsPerPair     float64 `json:"one_shot_model_rounds_per_pair"`
	ModelRoundReductionPct        float64 `json:"model_round_reduction_pct"`

	IncrementalMSPerOp float64 `json:"incremental_ms_per_op"`
	OneShotMSPerOp     float64 `json:"one_shot_ms_per_op"`
	TimeReductionPct   float64 `json:"time_reduction_pct"`

	// Session bookkeeping from the incremental run: how many sessions the
	// batch opened and how many suffix checks landed on an
	// already-encoded prefix.
	Sessions    int64 `json:"sessions"`
	PrefixReuse int64 `json:"prefix_reuse"`
}

// chainPred builds the ordering chain c[order[0]] < c[order[1]] < … as a
// conjunction of adjacent comparisons.
func chainPred(order []int) plan.Expr {
	var p plan.Expr
	for i := 0; i+1 < len(order); i++ {
		cmp := &plan.Bin{Op: plan.OpLt, L: &plan.ColRef{Index: order[i]}, R: &plan.ColRef{Index: order[i+1]}}
		if p == nil {
			p = cmp
		} else {
			p = &plan.Bin{Op: plan.OpAnd, L: p, R: cmp}
		}
	}
	return p
}

// lexRank returns the lexicographic rank of a permutation of 0..n-1. VeriVec
// enumerates input bijections in exactly this order, so the rank of the one
// correct alignment is the number of candidate obligations a pair costs.
func lexRank(p []int) int {
	n := len(p)
	f := 1
	for i := 2; i < n; i++ {
		f *= i // (n-1)! after the loop
	}
	rank := 0
	used := make([]bool, n)
	for i := 0; i < n-1; i++ {
		smaller := 0
		for j := 0; j < p[i]; j++ {
			if !used[j] {
				smaller++
			}
		}
		rank += smaller * f
		used[p[i]] = true
		f /= n - 1 - i
	}
	return rank
}

// joinPermPair builds one multi-candidate pair: a k-way self-join ordered by
// an ascending chain over its k columns, against the same join with the
// column roles relabeled by a random permutation (predicate and projection
// both permuted, so the pair is equivalent under exactly one input
// bijection). VeriVec must walk the bijections in lexicographic order until
// it reaches the permutation, refuting every earlier candidate with a
// countermodel — a stream of satisfiable obligations over one shared prefix
// whose ordering conflicts (transitivity, totality) recur across candidates
// that agree on input positions. The permutation's rank is bounded away
// from both ends: at least 2 so the search never succeeds immediately, at
// most maxRank so it stays inside the verifier's candidate budget.
func joinPermPair(r *rand.Rand, k, maxRank int) engine.PlanPair {
	tbl := &schema.Table{Name: "inc_t", Columns: []schema.Column{{Name: "a", Type: schema.Int, NotNull: true}}}
	inputs := make([]plan.Node, k)
	for i := range inputs {
		inputs[i] = &plan.Table{Meta: tbl}
	}
	identity := make([]int, k)
	for i := range identity {
		identity[i] = i
	}
	var perm []int
	for {
		perm = r.Perm(k)
		if rk := lexRank(perm); rk >= 2 && rk <= maxRank {
			break
		}
	}
	proj1 := make([]plan.NamedExpr, k)
	proj2 := make([]plan.NamedExpr, k)
	for i := 0; i < k; i++ {
		proj1[i] = plan.NamedExpr{Name: fmt.Sprintf("c%d", i), E: &plan.ColRef{Index: identity[i]}}
		proj2[i] = plan.NamedExpr{Name: fmt.Sprintf("c%d", i), E: &plan.ColRef{Index: perm[i]}}
	}
	q1 := &plan.SPJ{Inputs: inputs, Pred: chainPred(identity), Proj: proj1}
	q2 := &plan.SPJ{Inputs: inputs, Pred: chainPred(perm), Proj: proj2}
	return engine.PlanPair{ID: fmt.Sprintf("perm%d-%d", k, lexRank(perm)), Q1: q1, Q2: q2}
}

// IncrementalPairs generates the study's multi-candidate batch workload: n
// seeded join-permutation pairs alternating between 4-way joins (any
// reachable rank, up to 24 candidates) and 5-way joins capped at rank 60 to
// stay inside the default candidate budget of 64.
func IncrementalPairs(seed int64, n int) []engine.PlanPair {
	r := rand.New(rand.NewSource(seed))
	pairs := make([]engine.PlanPair, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			pairs = append(pairs, joinPermPair(r, 4, 23))
		} else {
			pairs = append(pairs, joinPermPair(r, 5, 60))
		}
	}
	return pairs
}

// RunIncremental measures the effect of incremental DPLL(T) sessions on the
// batch verification path over the multi-candidate workload. Caching is
// disabled for both runs so every pair exercises the solver: the study
// isolates what session reuse saves per verification, not what the memo
// layers already dedupe.
func RunIncremental(seed int64, npairs, workers int) IncrementalReport {
	pairs := IncrementalPairs(seed, npairs)
	rep := IncrementalReport{Pairs: len(pairs), Workers: workers}

	run := func(disable bool) (testing.BenchmarkResult, engine.BatchStats) {
		opts := engine.Options{
			Workers:            workers,
			DisableCaching:     true,
			DisableIncremental: disable,
		}
		var stats engine.BatchStats
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var s engine.BatchStats
				if _, s = engine.VerifyPlanBatch(pairs, opts); s.Pairs != int64(len(pairs)) {
					b.Fatalf("verified %d of %d pairs", s.Pairs, len(pairs))
				}
				stats = s
			}
		})
		return res, stats
	}

	inc, incStats := run(false)
	one, oneStats := run(true)

	perPair := func(s engine.BatchStats) float64 {
		if s.Pairs == 0 {
			return 0
		}
		return float64(s.ModelRounds) / float64(s.Pairs)
	}
	rep.IncrementalModelRoundsPerPair = perPair(incStats)
	rep.OneShotModelRoundsPerPair = perPair(oneStats)
	rep.ModelRoundReductionPct = reductionPct(oneStats.ModelRounds, incStats.ModelRounds)
	rep.IncrementalMSPerOp = float64(inc.NsPerOp()) / 1e6
	rep.OneShotMSPerOp = float64(one.NsPerOp()) / 1e6
	rep.TimeReductionPct = reductionPct(one.NsPerOp(), inc.NsPerOp())
	rep.Sessions = incStats.SolverSessions
	rep.PrefixReuse = incStats.PrefixReuse
	return rep
}

// reductionPct is how much smaller now is than base, in percent.
func reductionPct(base, now int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - float64(now)/float64(base))
}

// RenderIncremental renders the study for the terminal.
func RenderIncremental(r IncrementalReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental solving study (%d pairs, %d workers)\n", r.Pairs, r.Workers)
	fmt.Fprintf(&b, "  %-22s %15s %15s %10s\n", "", "incremental", "one-shot", "reduction")
	fmt.Fprintf(&b, "  %-22s %15.1f %15.1f %9.1f%%\n", "model-rounds/pair",
		r.IncrementalModelRoundsPerPair, r.OneShotModelRoundsPerPair, r.ModelRoundReductionPct)
	fmt.Fprintf(&b, "  %-22s %15.1f %15.1f %9.1f%%\n", "ms/op",
		r.IncrementalMSPerOp, r.OneShotMSPerOp, r.TimeReductionPct)
	fmt.Fprintf(&b, "  sessions: %d opened, %d suffix checks reused a pushed prefix\n",
		r.Sessions, r.PrefixReuse)
	return b.String()
}
