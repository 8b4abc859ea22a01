package main

import (
	"time"

	"spes"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/sqlparser"
	"spes/internal/store"
	"spes/internal/verify"
)

// librarySystem is the library path: spes.VerifyWithOptions with a fresh
// verifier per pair, no engine caches, store, server or router. Its
// set-up is building the catalogs.
type librarySystem struct {
	cats [numCatalogs]*schema.Catalog
}

func newLibrary() (system, error) { return &librarySystem{cats: catalogs()}, nil }

func (s *librarySystem) verify(p pair) outcome {
	start := time.Now()
	res, err := spes.VerifyWithOptions(s.cats[p.Cat], p.SQL1, p.SQL2, spes.Options{RefuteBudget: refuteBudget})
	took := time.Since(start)
	if err != nil {
		return classify(p, "", err.Error(), false, took)
	}
	o := classify(p, res.Verdict.String(), "", false, took)
	o.witness = res.Witness
	return o
}

func (s *librarySystem) close() error { return nil }

// pipelineCounts accumulates what the traced pipeline observes besides
// span times.
type pipelineCounts struct {
	queriesParsed, queriesBuilt int
	planNodes                   int
	queriesNormalized           int
	nodesBefore, nodesAfter     int
	checked                     int // pairs that reached verify.Check
	stats                       verify.Stats
	witnesses                   int // refutation searches that returned a witness
	storeLookups                int
	verdictLookups, verdictHits int
}

func (c *pipelineCounts) addStats(st verify.Stats) {
	c.stats.VeriCardCalls += st.VeriCardCalls
	c.stats.Candidates += st.Candidates
	c.stats.SolverQueries += st.SolverQueries
	c.stats.ModelRounds += st.ModelRounds
	c.stats.TheoryConflicts += st.TheoryConflicts
	c.stats.PrefixReuse += st.PrefixReuse
	c.stats.SuffixChecks += st.SuffixChecks
	c.stats.RefuteSearches += st.RefuteSearches
	c.stats.RefuteRounds += st.RefuteRounds
}

// pipeline issues the library path as its public calls —
// sqlparser.ParseQuery, plan.Builder.Build, normalize.Normalizer.Normalize,
// verify.Verifier.Check, Verifier.Refute — the sequence
// spes.VerifyWithOptions runs, with a span around each call. Solver calls
// are bracketed by a never-hit obligation cache. With st set, the
// verifier also reads the durable store through timed shims, as an engine
// over that store does.
type pipeline struct {
	cats   [numCatalogs]*schema.Catalog
	st     [numCatalogs]*store.Store
	tr     *tracer
	counts pipelineCounts
	next   int          // index of the next pair, for its spans
	closer func() error // releases the stores, when set
}

func (pl *pipeline) close() error {
	if pl.closer == nil {
		return nil
	}
	return pl.closer()
}

func (pl *pipeline) verify(p pair) outcome {
	idx := pl.next
	pl.next++
	start := time.Now()
	root := pl.tr.begin("pair", idx)
	defer pl.tr.end(root)
	cat := pl.cats[p.Cat]
	var q [2]plan.Node
	for k, sql := range [2]string{p.SQL1, p.SQL2} {
		id := pl.tr.begin("sqlparser", idx)
		ast, err := sqlparser.ParseQuery(sql)
		pl.tr.end(id)
		pl.counts.queriesParsed++
		if err != nil {
			return classify(p, "", err.Error(), false, time.Since(start))
		}
		id = pl.tr.begin("plan", idx)
		n, err := plan.NewBuilder(cat).Build(ast)
		pl.tr.end(id)
		pl.counts.queriesBuilt++
		if err != nil {
			if plan.Unsupported(err) {
				return classify(p, vUnsupported, "", false, time.Since(start))
			}
			return classify(p, "", err.Error(), false, time.Since(start))
		}
		pl.counts.planNodes += plan.CountNodes(n)
		q[k] = n
	}

	id := pl.tr.begin("normalize", idx)
	nz := normalize.New(normalize.Options{})
	n1, n2 := nz.Normalize(q[0]), nz.Normalize(q[1])
	pl.tr.end(id)
	pl.counts.queriesNormalized += 2
	pl.counts.nodesBefore += plan.CountNodes(q[0]) + plan.CountNodes(q[1])
	pl.counts.nodesAfter += plan.CountNodes(n1) + plan.CountNodes(n2)

	clock := newSolverClock(pl.tr, idx)
	cfg := verify.Config{RefuteBudget: refuteBudget, ConstraintDigest: cat.ConstraintDigest(), Cache: clock}
	var sc *storeClock
	if st := pl.st[p.Cat]; st != nil {
		sc = &storeClock{st: st, solver: clock}
		cfg.Store, cfg.Witnesses = sc, sc
	}
	v := verify.NewWithConfig(cfg)
	id = pl.tr.begin("verify", idx)
	out := v.Check(n1, n2)
	clock.finish()
	pl.tr.end(id)
	pl.counts.checked++

	verdict := vNotProved
	var w *refute.Witness
	if out.Full {
		verdict = vEquivalent
	} else {
		id = pl.tr.begin("refute", idx)
		w = v.Refute(n1, n2)
		pl.tr.end(id)
		if w != nil {
			verdict = vRefuted
			pl.counts.witnesses++
		}
	}
	pl.counts.addStats(v.Stats())
	if sc != nil {
		pl.counts.storeLookups += sc.lookups
		pl.counts.verdictLookups += sc.verdictLookups
		pl.counts.verdictHits += sc.verdictHits
	}
	o := classify(p, verdict, "", v.TimedOut(), time.Since(start))
	o.witness = w
	return o
}

// pipelineMetrics turns a traced pipeline pass into the per-layer metrics
// of the layers it calls.
func pipelineMetrics(m layerMetrics, pl *pipeline) {
	lt := pl.tr.times()
	c := &pl.counts
	m.set("sqlparser.parse_us_per_query", per(us(lt.self["sqlparser"]), c.queriesParsed))
	m.set("plan.build_us_per_query", per(us(lt.self["plan"]), c.queriesBuilt))
	m.set("plan.nodes_per_query", per(float64(c.planNodes), c.queriesBuilt))
	m.set("normalize.us_per_query", per(us(lt.self["normalize"]), c.queriesNormalized))
	m.set("normalize.node_ratio", per(float64(c.nodesAfter), c.nodesBefore))
	m.set("verify.check_ms_per_pair", per(ms(lt.total["verify"]), c.checked))
	m.set("verify.self_ms_per_pair", per(ms(lt.self["verify"]), c.checked))
	m.set("verify.vericard_calls_per_pair", per(float64(c.stats.VeriCardCalls), c.checked))
	m.set("verify.candidates_per_pair", per(float64(c.stats.Candidates), c.checked))
	m.set("smt.solve_ms_per_pair", per(ms(lt.self["smt"]), c.checked))
	m.set("smt.queries_per_pair", per(float64(c.stats.SolverQueries), c.checked))
	m.set("smt.model_rounds_per_pair", per(float64(c.stats.ModelRounds), c.checked))
	m.set("smt.theory_conflicts_per_pair", per(float64(c.stats.TheoryConflicts), c.checked))
	m.set("smt.prefix_reuse_share", per(float64(c.stats.PrefixReuse), c.stats.SuffixChecks))
	m.set("refute.ms_per_search", per(ms(lt.self["refute"]), c.stats.RefuteSearches))
	m.set("refute.rounds_per_search", per(float64(c.stats.RefuteRounds), c.stats.RefuteSearches))
	m.set("refute.found_share", per(float64(c.witnesses), c.stats.RefuteSearches))
	if c.storeLookups > 0 {
		m.set("store.lookup_us", per(us(lt.self["store"]), c.storeLookups))
		m.set("store.hit_share", per(float64(c.verdictHits), c.verdictLookups))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per is a per-unit rate, 0 when nothing was counted: a layer that did no
// work on a workload reports 0.
func per(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}
