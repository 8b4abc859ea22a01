// Command perfbench is the SPES benchmark. It runs one named closed-loop
// workload over a fixed pair list, checks every verdict against an
// independent reference executor, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics — one per line with their units,
// then one JSON object as the last line of standard output:
//
//	go run . -workload calcite-cold -seed 1 -seconds 15 -trace 0
//
// The pair lists come from the corpus at a fixed generation seed and -seed
// orders them, so every seed runs the same work in its own order. The exit
// status is 1 when a verdict is wrong, verdicts differ between passes, or
// a metric cannot be measured; 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// corpusSeed generates the production-shaped corpus every workload draws
// from (the seed the repository's earlier BENCH files use).
const corpusSeed = 2022

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"pairs_per_s", "1/s"},
	{"pair_p50_ms", "ms"},
	{"pair_p99_ms", "ms"},
	{"cpu_ms_per_pair", "ms"},
	{"alloc_kb_per_pair", "KiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
	{"proved_share", "ratio"},
	{"refuted_share", "ratio"},
	{"ok_share", "ratio"},
}

var perLayerMetrics = []metricSpec{
	{"sqlparser.parse_us_per_query", "us"},
	{"plan.build_us_per_query", "us"},
	{"plan.nodes_per_query", "count"},
	{"normalize.us_per_query", "us"},
	{"normalize.node_ratio", "ratio"},
	{"verify.check_ms_per_pair", "ms"},
	{"verify.self_ms_per_pair", "ms"},
	{"verify.vericard_calls_per_pair", "count"},
	{"verify.candidates_per_pair", "count"},
	{"smt.solve_ms_per_pair", "ms"},
	{"smt.queries_per_pair", "count"},
	{"smt.model_rounds_per_pair", "count"},
	{"smt.theory_conflicts_per_pair", "count"},
	{"smt.prefix_reuse_share", "ratio"},
	{"refute.ms_per_search", "ms"},
	{"refute.rounds_per_search", "count"},
	{"refute.found_share", "ratio"},
	{"refute.replay_ms_per_witness", "ms"},
	{"engine.verify_ms_per_pair", "ms"},
	{"engine.obligation_hit_share", "ratio"},
	{"engine.norm_memo_hit_share", "ratio"},
	{"engine.solver_queries_per_pair", "count"},
	{"engine.term_nodes", "count"},
	{"store.open_ms", "ms"},
	{"store.log_mb", "MiB"},
	{"store.lookup_us", "us"},
	{"store.hit_share", "ratio"},
	{"server.overhead_ms_per_pair", "ms"},
	{"server.coalesced_share", "ratio"},
	{"server.rejected_share", "ratio"},
	{"cluster.hop_ms_per_pair", "ms"},
	{"cluster.failover_pairs", "count"},
	{"trace.overhead_share", "ratio"},
}

// layerMetrics holds a traced run's per-layer values. Every metric is
// present; a layer that does no work on a workload, or that the workload's
// path does not expose, reads 0.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, s := range perLayerMetrics {
		m[s.name] = 0
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m[name] = v
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	clients int
	// pairs returns the workload's fixed pair list in the seed's order.
	pairs func(seed int64) []pair
	// setup builds one fresh instance of the system under test.
	setup func(r *runner) (system, error)
	// traced runs the traced measurement and fills the per-layer metrics.
	traced func(r *runner, m layerMetrics) error
}

var workloads = []*workload{
	{
		name:    "calcite-cold",
		clients: 1,
		pairs:   func(seed int64) []pair { return permute(calcitePairs(), seed) },
		setup:   func(*runner) (system, error) { return newLibrary() },
		traced:  tracedLibrary,
	},
	{
		name:    "production-routed",
		clients: 2,
		pairs:   routedPairs,
		setup: func(*runner) (system, error) {
			return newService(catalogs()[productionCat])
		},
		traced: tracedService,
	},
	{
		name:    "overlap-refute",
		clients: 1,
		pairs:   func(seed int64) []pair { return permute(overlapPairs(), seed) },
		setup:   func(*runner) (system, error) { return newLibrary() },
		traced:  tracedLibrary,
	},
	{
		name:    "restart-warm",
		clients: 1,
		pairs:   func(seed int64) []pair { return permute(restartPairs(), seed) },
		setup: func(r *runner) (system, error) {
			s, err := newWarm(storeDirs(r.storeDir))
			if err == nil {
				r.storeOpen = append(r.storeOpen, ms(s.openDur))
			}
			return s, err
		},
		traced: tracedWarm,
	},
}

func permute(ps []pair, seed int64) []pair {
	out := make([]pair, len(ps))
	for i, j := range shuffled(len(ps), seed) {
		out[i] = ps[j]
	}
	return out
}

// minPasses is the fewest passes an untraced run makes, so that per-pass
// figures have a median.
const minPasses = 3

// maxMeasure stops adding passes, whatever -seconds asks, so that a run
// ends well inside the three minutes it is allowed.
const maxMeasure = 90 * time.Second

// runner is one invocation's state.
type runner struct {
	wl       *workload
	seed     int64
	seconds  time.Duration
	work     string // scratch directory inside the checkout
	storeDir string // restart-warm's primed store directories
	pairs    []pair
	ids      []string
	sep      []bool // per pair: does the reference separate its queries

	tally     tally
	replayed  []bool // per pair: was its witness replayed
	passes    []*pass
	samples   int       // pairs timed
	block     []float64 // latencies (ms) of the passes since the last full block
	p50s      []float64 // each full block's p50, ms
	p99s      []float64 // each full block's p99, ms
	storeOpen []float64 // restart-warm: store reopen times, ms
	tracers   []*tracer // traced runs: the spans to write out
	// expect is the verdict digest every pass must reproduce: the first
	// pass's, or for restart-warm the priming run's.
	expect     string
	violations []string
}

// addPass checks a finished pass and folds it into the run.
func (r *runner) addPass(ps *pass) {
	ps.digest = verdictDigest(r.ids, ps.outs)
	if r.expect == "" {
		r.expect = ps.digest
	} else if ps.digest != r.expect {
		r.violations = append(r.violations, fmt.Sprintf("verdict digest %s differs from %s", ps.digest, r.expect))
	}
	r.tally.check(r.pairs, ps.outs, r.sep, r.replayed)
	r.samples += len(ps.latency)
	r.block = append(r.block, ps.latency...)
	if tailReady(len(r.block), 0.99) {
		p50, _ := percentile(r.block, 0.50)
		p99, _ := percentile(r.block, 0.99)
		r.p50s, r.p99s = append(r.p50s, p50), append(r.p99s, p99)
		r.block = r.block[:0]
	}
	ps.outs, ps.latency = nil, nil
	r.passes = append(r.passes, ps)
}

// blockFull reports whether every timed pair belongs to a full latency
// block: one with enough samples for minBeyond of them to lie above its
// p99.
func (r *runner) blockFull() bool { return len(r.p99s) > 0 && len(r.block) == 0 }

func (r *runner) measured() time.Duration {
	var d time.Duration
	for _, ps := range r.passes {
		d += ps.wall
	}
	return d
}

// prepare runs the untimed work a run needs before its passes, so that
// none of it shifts the garbage collector's pacing between passes: the
// reference verdict of every pair and, for restart-warm, the cold priming
// pass whose verdicts the restarted engines must reproduce.
func (r *runner) prepare() error {
	r.sep = separatedByReference(r.pairs)
	if r.wl.name != "restart-warm" {
		return nil
	}
	r.storeDir = filepath.Join(r.work, "stores")
	outs, err := prime(r.storeDir, r.pairs)
	if err != nil {
		return fmt.Errorf("priming the store: %w", err)
	}
	r.expect = verdictDigest(r.ids, outs)
	var t tally
	t.check(r.pairs, outs, r.sep, make([]bool, len(r.pairs)))
	for _, v := range t.violations {
		r.violations = append(r.violations, "priming run: "+v)
	}
	return nil
}

// untraced runs whole passes until -seconds of pass time have been
// measured, at least minPasses have run, and the last latency block is
// full.
func (r *runner) untraced() (map[string]float64, error) {
	start := time.Now()
	for len(r.passes) < minPasses || r.measured() < r.seconds || !r.blockFull() {
		if len(r.passes) > 0 && time.Since(start) > maxMeasure {
			break
		}
		ps, err := measuredPass(r.pairs, r.wl.clients, func() (system, error) { return r.wl.setup(r) }, nil)
		if err != nil {
			return nil, err
		}
		r.addPass(ps)
	}
	return r.endToEnd(), nil
}

// endToEnd derives the end-to-end metrics from the passes. Per-pass
// figures are medians over passes; a latency percentile is the median over
// blocks of consecutive passes, each block holding enough pairs for
// minBeyond samples above its p99, so one disturbed pass cannot move it;
// set-up is the median of every set-up. A share whose denominator is zero
// is left out.
func (r *runner) endToEnd() map[string]float64 {
	n := float64(len(r.pairs))
	var rate, cpu, alloc, heap, setup []float64
	for _, ps := range r.passes {
		rate = append(rate, n/ps.wall.Seconds())
		cpu = append(cpu, ms(ps.cpu)/n)
		alloc = append(alloc, float64(ps.alloc)/1024/n)
		heap = append(heap, float64(ps.heap)/(1<<20))
		setup = append(setup, ps.setup...)
	}
	m := map[string]float64{
		"pairs_per_s":       median(rate),
		"cpu_ms_per_pair":   median(cpu),
		"alloc_kb_per_pair": median(alloc),
		"live_heap_mb":      median(heap),
		"setup_s":           median(setup),
	}
	if r.blockFull() {
		m["pair_p50_ms"] = median(r.p50s)
		m["pair_p99_ms"] = median(r.p99s)
	}
	t := &r.tally
	if v, ok := share(t.proved, t.equivalentByBuild); ok {
		m["proved_share"] = v
	}
	if v, ok := share(t.refutedSeparated, t.separated); ok {
		m["refuted_share"] = v
	}
	if v, ok := share(t.attempted-t.failed, t.attempted); ok {
		m["ok_share"] = v
	}
	return m
}

func main() {
	name := flag.String("workload", "", "workload: calcite-cold, production-routed, overlap-refute or restart-warm")
	seed := flag.Int64("seed", corpusSeed, "seed of the pair order")
	seconds := flag.Int("seconds", 10, "pass time to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for store logs and span files")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(wl *workload, seed int64, seconds time.Duration, traced bool, work string) (int, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", wl.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	r := &runner{wl: wl, seed: seed, seconds: seconds, work: dir}
	r.pairs = wl.pairs(seed)
	r.replayed = make([]bool, len(r.pairs))
	r.block = make([]float64, 0, 1000+len(r.pairs))
	for _, p := range r.pairs {
		r.ids = append(r.ids, p.ID)
	}
	if err := r.prepare(); err != nil {
		return 0, err
	}

	specs := endToEndMetrics
	var values map[string]float64
	if traced {
		specs = perLayerMetrics
		m := newLayerMetrics()
		if err := wl.traced(r, m); err != nil {
			return 0, err
		}
		spans := filepath.Join(work, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, seed))
		if err := writeSpans(r, spans); err != nil {
			return 0, err
		}
		values = m
	} else {
		var err error
		if values, err = r.untraced(); err != nil {
			return 0, err
		}
	}
	r.violations = append(r.violations, r.tally.violations...)
	return report(r, specs, values, traced), nil
}

// report prints the run's summary and metrics and returns the exit
// status.
func report(r *runner, specs []metricSpec, values map[string]float64, traced bool) int {
	t := &r.tally
	fmt.Printf("workload %s: %d pairs, %d clients, closed loop, seed %d\n", r.wl.name, len(r.pairs), r.wl.clients, r.seed)
	var walls []string
	for _, ps := range r.passes {
		walls = append(walls, fmt.Sprintf("%.3f", ps.wall.Seconds()))
	}
	fmt.Printf("passes %d (%s s), pairs timed %d, verdict digest %s\n", len(r.passes), strings.Join(walls, " "), r.samples, r.expect)
	fmt.Printf("verdicts %s\n", mix(t.verdicts, len(r.passes)))
	fmt.Printf("equivalent by construction %d, proved %d; separated by the reference %d, refuted %d (per pass)\n",
		t.equivalentByBuild/max(1, len(r.passes)), t.proved/max(1, len(r.passes)),
		t.separated/max(1, len(r.passes)), t.refutedSeparated/max(1, len(r.passes)))
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]map[string]any{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			r.violations = append(r.violations, fmt.Sprintf("metric %s has no value on this workload", s.name))
			fmt.Printf("%-32s %14s %s\n", s.name, "absent", s.unit)
			continue
		}
		fmt.Printf("%-32s %14.6g %s\n", s.name, v, s.unit)
		out.Metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	if !traced && out.Attempted == 0 {
		r.violations = append(r.violations, "no pair was attempted")
	}
	for _, v := range r.violations {
		fmt.Println("CHECK FAILED:", v)
	}
	out.Correct = len(r.violations) == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// mix renders verdict counts per pass.
func mix(counts map[string]int, passes int) string {
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]/max(1, passes)))
	}
	return strings.Join(parts, " ")
}
