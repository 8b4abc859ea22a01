// Command spes-bench regenerates the paper's evaluation tables and figures
// on the built-in corpora.
//
// Usage:
//
//	spes-bench -table 1             # comparative analysis (Table 1)
//	spes-bench -table 1 -limits     # plus the §7.4 limitation breakdown
//	spes-bench -table 2 -scale 0.1  # production-workload overlap (Table 2)
//	spes-bench -figure 7 -scale 0.1 # complexity distribution (Figure 7)
//	spes-bench -batch -parallel 8   # engine throughput study vs sequential
//	spes-bench -incremental         # incremental sessions vs one-shot solving
//	spes-bench -serve               # spes-serve loadgen (req/s, p50/p99)
//	spes-bench -cluster             # spes-router over 1/2/4 local shards
//	spes-bench -all                 # everything
//
// -parallel N fans Table 2, Figure 7, and the batch study across N engine
// workers (0 = GOMAXPROCS, 1 = the sequential paper path). With -json, the
// batch study also writes its report to the BENCH_batch.json artifact
// (pairs/sec, speedup vs sequential, cache hit rate) so the perf
// trajectory is tracked across PRs; likewise -serve writes
// BENCH_serve.json (req/s and latency percentiles through the HTTP
// service at 1 and GOMAXPROCS clients).
//
// BENCH_ir.json is the historical record of the term-IR study, which
// compared the interned term path against an uninterned one. That path no
// longer exists, so no flag regenerates it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spes/internal/bench"
	"spes/internal/corpus"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate Table 1 or 2")
		figure   = flag.Int("figure", 0, "regenerate Figure 7")
		all      = flag.Bool("all", false, "regenerate everything")
		limits   = flag.Bool("limits", false, "with -table 1: print the limitation breakdown")
		scale    = flag.Float64("scale", 0.1, "production workload scale (1.0 = the full 9,486 queries)")
		seed     = flag.Int64("seed", 2022, "workload generator seed")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
		parallel = flag.Int("parallel", 1, "engine workers for Table 2 / Figure 7 / -batch (0 = GOMAXPROCS)")
		batch    = flag.Bool("batch", false, "run the batch-engine throughput study")
		batchOut = flag.String("batch-out", "BENCH_batch.json", "with -batch -json: artifact path for the batch report")
		timeout  = flag.Duration("timeout", 0, "with -batch: per-pair verification deadline (0 = none)")
		refuteB  = flag.Int("refute-budget", 0, "with -batch: counterexample-search budget per failed proof; adds refutation-rate columns (0 disables)")
		incr     = flag.Bool("incremental", false, "run the incremental-solving study (sessions vs one-shot batch path)")
		incrOut  = flag.String("incremental-out", "BENCH_incremental.json", "with -incremental -json: artifact path for the incremental report")
		serve    = flag.Bool("serve", false, "run the spes-serve HTTP loadgen study")
		serveN   = flag.Int("serve-requests", 500, "with -serve: requests per client-count round")
		serveOut = flag.String("serve-out", "BENCH_serve.json", "with -serve -json: artifact path for the loadgen report")
		warmB    = flag.Bool("warm", false, "run the durable-warm-state study (cold vs warm-restart throughput, rotation memory bound)")
		warmOut  = flag.String("warm-out", "BENCH_warm.json", "with -warm -json: artifact path for the warm-state report")
		clusterB = flag.Bool("cluster", false, "run the multi-shard router study (the pair stream through spes-router onto 1, 2, and 4 local shards)")
		clusterO = flag.String("cluster-out", "BENCH_cluster.json", "with -cluster -json: artifact path for the cluster report")
		constrB  = flag.Bool("constraints", false, "run the constraint-aware equivalence study (the constraint-dependent tier with vs without declared constraints)")
		constrO  = flag.String("constraints-out", "BENCH_constraints.json", "with -constraints -json: artifact path for the constraints report")
	)
	flag.Parse()

	out := map[string]interface{}{}
	ranSomething := false
	if *all || *table == 1 {
		ranSomething = true
		pairs := corpus.CalcitePairs()
		res := bench.RunTable1(pairs)
		if *asJSON {
			out["table1"] = res.Rows
		} else {
			fmt.Print(bench.RenderTable1(res, len(pairs)))
			if *limits || *all {
				fmt.Println()
				fmt.Print(bench.RenderLimitations(res))
			}
			fmt.Println()
		}
	}
	if *all || *table == 2 {
		ranSomething = true
		w := corpus.ProductionWorkload(*seed, *scale)
		rows := bench.RunTable2Workers(w, *parallel)
		if *asJSON {
			out["table2"] = rows
		} else {
			fmt.Print(bench.RenderTable2(rows))
			fmt.Println()
		}
	}
	if *all || *figure == 7 {
		ranSomething = true
		w := corpus.ProductionWorkload(*seed, *scale)
		fig := bench.RunFigure7Workers(corpus.CalcitePairs(), w, *parallel)
		if *asJSON {
			out["figure7"] = fig
		} else {
			fmt.Print(bench.RenderFigure7(fig))
		}
	}
	if *all || *batch {
		ranSomething = true
		w := corpus.ProductionWorkload(*seed, *scale)
		rep := bench.RunBatch(w, *parallel, *timeout, *refuteB)
		if *asJSON {
			out["batch"] = rep
			if err := writeArtifact(*batchOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *batchOut)
		} else {
			fmt.Print(bench.RenderBatch(rep))
		}
	}
	if *all || *incr {
		ranSomething = true
		rep := bench.RunIncremental(*seed, 40, *parallel)
		if *asJSON {
			out["incremental"] = rep
			if err := writeArtifact(*incrOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *incrOut)
		} else {
			fmt.Print(bench.RenderIncremental(rep))
		}
	}
	if *all || *serve {
		ranSomething = true
		rep := bench.RunServe(*serveN)
		if *asJSON {
			out["serve"] = rep
			if err := writeArtifact(*serveOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *serveOut)
		} else {
			fmt.Print(bench.RenderServe(rep))
		}
	}
	if *all || *warmB {
		ranSomething = true
		rep, err := bench.RunWarm(*seed, *scale, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spes-bench: warm study: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			out["warm"] = rep
			if err := writeArtifact(*warmOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *warmOut)
		} else {
			fmt.Print(bench.RenderWarm(rep))
		}
	}
	if *all || *clusterB {
		ranSomething = true
		rep, err := bench.RunCluster(*seed, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spes-bench: cluster study: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			out["cluster"] = rep
			if err := writeArtifact(*clusterO, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *clusterO)
		} else {
			fmt.Print(bench.RenderCluster(rep))
		}
	}
	if *all || *constrB {
		ranSomething = true
		rep := bench.RunConstraints(*parallel)
		if *asJSON {
			out["constraints"] = rep
			if err := writeArtifact(*constrO, rep); err != nil {
				fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spes-bench: wrote %s\n", *constrO)
		} else {
			fmt.Print(bench.RenderConstraints(rep))
		}
	}
	if !ranSomething {
		fmt.Fprintln(os.Stderr, "spes-bench: nothing selected; use -table 1, -table 2, -figure 7, -batch, -serve, or -all")
		flag.Usage()
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "spes-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

func writeArtifact(path string, rep interface{}) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
