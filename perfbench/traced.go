package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"spes/internal/cluster"
	"spes/internal/engine"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/server"
	"spes/internal/sqlparser"
)

// alternate runs untraced and traced passes in turn — at least one of
// each, then until -seconds of pass time are measured — and returns the
// tracing overhead: the median traced pass time over the median untraced
// one, minus one. Both kinds of pass must reproduce the run's verdict
// digest (addPass checks it).
func (r *runner) alternate(untraced, traced func() (*pass, error)) (float64, error) {
	start := time.Now()
	var u, t []float64
	for len(t) == 0 || (r.measured() < r.seconds && time.Since(start) < maxMeasure) {
		for _, side := range []struct {
			run   func() (*pass, error)
			walls *[]float64
		}{{untraced, &u}, {traced, &t}} {
			ps, err := side.run()
			if err != nil {
				return 0, err
			}
			*side.walls = append(*side.walls, ps.wall.Seconds())
			r.addPass(ps)
		}
	}
	return median(t)/median(u) - 1, nil
}

// tracedLibrary traces a library workload: the traced pass issues the
// pipeline as its public calls (see pipeline).
func tracedLibrary(r *runner, m layerMetrics) error {
	var pl *pipeline
	over, err := r.alternate(
		func() (*pass, error) { return measuredPass(r.pairs, 1, newLibrary, nil) },
		func() (*pass, error) {
			return measuredPass(r.pairs, 1, func() (system, error) {
				pl = &pipeline{cats: catalogs(), tr: newTracer()}
				return pl, nil
			}, nil)
		})
	if err != nil {
		return err
	}
	pipelineMetrics(m, pl)
	m.set("refute.replay_ms_per_witness", per(ms(r.tally.witnessReplayDuration), r.tally.witnessReplays))
	m.set("trace.overhead_share", over)
	r.tracers = append(r.tracers, pl.tr)
	return nil
}

// serviceObs collects what the service's responses and counters say
// about the layers behind the HTTP front, and a "request" span per pair.
type serviceObs struct {
	mu        sync.Mutex
	tr        *tracer
	index     map[string]int     // pair ID -> position in the pair list
	elapsed   map[string]float64 // pair ID -> the shard's elapsed_ms
	shardOf   map[string]int     // pair ID -> index of the shard that answered
	responses int
	coalesced int
	stats     server.StatsJSON
	verdicts  map[string]int
}

func newServiceObs(pairs []pair) *serviceObs {
	o := &serviceObs{tr: newTracer(), index: map[string]int{}, elapsed: map[string]float64{},
		shardOf: map[string]int{}, verdicts: map[string]int{}}
	for i, p := range pairs {
		o.index[p.ID] = i
	}
	return o
}

func (o *serviceObs) record(p pair, resp *server.VerifyResponse, start time.Time, took time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	from := start.Sub(o.tr.t0)
	o.tr.spans = append(o.tr.spans, span{Name: "request", Start: from, End: from + took, Parent: -1, Pair: o.index[p.ID]})
	o.responses++
	o.elapsed[p.ID] = resp.ElapsedMS
	var shard int
	if _, err := fmt.Sscanf(resp.Shard, "s%d", &shard); err == nil {
		o.shardOf[p.ID] = shard - 1
	}
	if resp.Coalesced {
		o.coalesced++
	}
	if st := resp.Stats; st != nil {
		o.stats.SolverQueries += st.SolverQueries
		o.stats.VeriCardCalls += st.VeriCardCalls
		o.stats.Candidates += st.Candidates
		o.stats.ModelRounds += st.ModelRounds
	}
	o.verdicts[resp.Verdict]++
}

func meanLatency(ps *pass) float64 {
	var sum float64
	for _, v := range ps.latency {
		sum += v
	}
	return per(sum, len(ps.latency))
}

// tracedService traces production-routed. The engine, verify and smt
// figures come from the shards' responses (elapsed_ms and per-pair
// counters) and from /v1/cluster/stats after the traced pass; the router
// hop is the mean latency of the routed pass minus that of a direct pass
// sending each pair to the shard the router chose, on fresh shards; the
// server's overhead is the direct pass's latency minus the shard's own
// elapsed_ms. The front end is measured by parsing, building and
// normalizing the stream's queries directly.
func tracedService(r *runner, m layerMetrics) error {
	var obs *serviceObs
	var cs *cluster.ClusterStats
	var routedMean float64
	over, err := r.alternate(
		func() (*pass, error) {
			return measuredPass(r.pairs, 2, func() (system, error) { return r.wl.setup(r) }, nil)
		},
		func() (*pass, error) {
			obs = newServiceObs(r.pairs)
			ps, err := measuredPass(r.pairs, 2, func() (system, error) {
				s, err := newService(catalogs()[productionCat])
				if err == nil {
					s.observe = obs.record
				}
				return s, err
			}, func(sys system) (err error) {
				cs, err = sys.(*serviceSystem).clusterStats()
				return err
			})
			if err == nil {
				routedMean = meanLatency(ps)
			}
			return ps, err
		})
	if err != nil {
		return err
	}

	direct := newServiceObs(r.pairs)
	ps, err := measuredPass(r.pairs, 2, func() (system, error) {
		s, err := newService(catalogs()[productionCat])
		if err == nil {
			s.direct, s.observe = obs.shardOf, direct.record
		}
		return s, err
	}, nil)
	if err != nil {
		return err
	}
	directMean := meanLatency(ps)
	var overhead float64
	for i, p := range r.pairs {
		overhead += ps.latency[i] - direct.elapsed[p.ID]
	}
	r.addPass(ps)

	var engineMS float64
	for _, v := range obs.elapsed {
		engineMS += v
	}
	n := obs.responses
	m.set("engine.verify_ms_per_pair", per(engineMS, n))
	m.set("server.overhead_ms_per_pair", per(overhead, len(r.pairs)))
	m.set("server.coalesced_share", per(float64(obs.coalesced), n))
	m.set("cluster.hop_ms_per_pair", routedMean-directMean)
	m.set("verify.vericard_calls_per_pair", per(float64(obs.stats.VeriCardCalls), n))
	m.set("verify.candidates_per_pair", per(float64(obs.stats.Candidates), n))
	m.set("smt.queries_per_pair", per(float64(obs.stats.SolverQueries), n))
	m.set("smt.model_rounds_per_pair", per(float64(obs.stats.ModelRounds), n))
	failedProofs := obs.verdicts[vRefuted] + obs.verdicts[vNotProved]
	m.set("refute.found_share", per(float64(obs.verdicts[vRefuted]), failedProofs))
	m.set("refute.replay_ms_per_witness", per(ms(r.tally.witnessReplayDuration), r.tally.witnessReplays))

	t := cs.Totals
	var normHits, normMisses int64
	for _, sh := range cs.Shards {
		if sh.Engine != nil {
			normHits += sh.Engine.NormHits
			normMisses += sh.Engine.NormMisses
		}
	}
	m.set("engine.obligation_hit_share", per(float64(t.ObligationHits), int(t.ObligationHits+t.ObligationMisses)))
	m.set("engine.norm_memo_hit_share", per(float64(normHits), int(normHits+normMisses)))
	m.set("engine.solver_queries_per_pair", per(float64(t.SolverQueries), int(t.Pairs)))
	m.set("engine.term_nodes", float64(t.TermNodes))
	m.set("server.rejected_share", per(float64(cs.Router.ShedRetries), int(cs.Router.ForwardAttempts)))
	m.set("cluster.failover_pairs", float64(cs.Router.Failovers))

	frontEnd(r, m)
	m.set("trace.overhead_share", over)
	r.tracers = append(r.tracers, obs.tr)
	return nil
}

// frontEnd parses and builds every query of the stream as a shard does
// for each request, and normalizes each distinct query once, as the
// engine's normalization memo does, with a span around each call.
func frontEnd(r *runner, m layerMetrics) {
	tr := newTracer()
	cat := catalogs()[productionCat]
	seen := map[string]bool{}
	var queries, nodes, normalized, before, after int
	for i, p := range r.pairs {
		for _, sql := range [2]string{p.SQL1, p.SQL2} {
			id := tr.begin("sqlparser", i)
			ast, err := sqlparser.ParseQuery(sql)
			tr.end(id)
			if err != nil {
				continue
			}
			id = tr.begin("plan", i)
			n, err := plan.NewBuilder(cat).Build(ast)
			tr.end(id)
			if err != nil {
				continue
			}
			queries++
			nodes += plan.CountNodes(n)
			if seen[sql] {
				continue
			}
			seen[sql] = true
			id = tr.begin("normalize", i)
			out := normalize.New(normalize.Options{}).Normalize(n)
			tr.end(id)
			normalized++
			before += plan.CountNodes(n)
			after += plan.CountNodes(out)
		}
	}
	lt := tr.times()
	m.set("sqlparser.parse_us_per_query", per(us(lt.self["sqlparser"]), queries))
	m.set("plan.build_us_per_query", per(us(lt.self["plan"]), queries))
	m.set("plan.nodes_per_query", per(float64(nodes), queries))
	m.set("normalize.us_per_query", per(us(lt.self["normalize"]), normalized))
	m.set("normalize.node_ratio", per(float64(after), before))
	r.tracers = append(r.tracers, tr)
}

// tracedEngine records an "engine" span around each engine call.
type tracedEngine struct {
	*warmSystem
	tr   *tracer
	next int
}

func (t *tracedEngine) verify(p pair) outcome {
	id := t.tr.begin("engine", t.next)
	t.next++
	o := t.warmSystem.verify(p)
	t.tr.end(id)
	return o
}

// tracedWarm traces restart-warm: the traced pass times each engine call
// and reads the engines' counters; a probe pass then issues the pipeline's
// public calls over the reopened stores through timed store shims, which
// must reproduce the priming run's verdicts too.
func tracedWarm(r *runner, m layerMetrics) error {
	var te *tracedEngine
	var st engine.StatsSnapshot
	var logBytes int64
	over, err := r.alternate(
		func() (*pass, error) {
			return measuredPass(r.pairs, 1, func() (system, error) { return r.wl.setup(r) }, nil)
		},
		func() (*pass, error) {
			return measuredPass(r.pairs, 1, func() (system, error) {
				s, err := r.wl.setup(r)
				if err != nil {
					return nil, err
				}
				te = &tracedEngine{warmSystem: s.(*warmSystem), tr: newTracer()}
				return te, nil
			}, func(system) error {
				st, logBytes = te.stats(), te.logBytes()
				return nil
			})
		})
	if err != nil {
		return err
	}

	var pl *pipeline
	ps, err := measuredPass(r.pairs, 1, func() (system, error) {
		ws, err := newWarm(storeDirs(r.storeDir))
		if err != nil {
			return nil, err
		}
		pl = &pipeline{cats: ws.cats, st: ws.stores, tr: newTracer(), closer: ws.close}
		return pl, nil
	}, nil)
	if err != nil {
		return err
	}
	r.addPass(ps)
	pipelineMetrics(m, pl)
	m.set("refute.replay_ms_per_witness", per(ms(r.tally.witnessReplayDuration), r.tally.witnessReplays))

	lt := te.tr.times()
	m.set("engine.verify_ms_per_pair", per(ms(lt.total["engine"]), len(r.pairs)))
	m.set("engine.obligation_hit_share", per(float64(st.ObligationHits), int(st.ObligationHits+st.ObligationMisses)))
	m.set("engine.norm_memo_hit_share", per(float64(st.NormHits), int(st.NormHits+st.NormMisses)))
	m.set("engine.solver_queries_per_pair", per(float64(st.SolverQueries), int(st.Pairs)))
	m.set("engine.term_nodes", float64(st.TermNodes))
	m.set("store.open_ms", median(r.storeOpen))
	m.set("store.log_mb", float64(logBytes)/(1<<20))
	m.set("trace.overhead_share", over)
	r.tracers = append(r.tracers, te.tr, pl.tr)
	return nil
}

// writeSpans writes every tracer's spans as JSON lines, parents re-indexed
// into the combined list.
func writeSpans(r *runner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, tr := range r.tracers {
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(tr.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
