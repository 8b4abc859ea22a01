// Command spes-bench regenerates the paper's evaluation tables and figures
// on the built-in corpora.
//
// Usage:
//
//	spes-bench -table 1             # comparative analysis (Table 1)
//	spes-bench -table 1 -limits     # plus the §7.4 limitation breakdown
//	spes-bench -table 2 -scale 0.1  # production-workload overlap (Table 2)
//	spes-bench -figure 7 -scale 0.1 # complexity distribution (Figure 7)
//	spes-bench -all                 # all three, with the limitation breakdown
//
// -parallel N fans Table 2 and Figure 7 across N engine workers
// (0 = GOMAXPROCS, 1 = the sequential paper path).
//
// The BENCH_*.json files at the repository root are the historical record
// of studies that earlier versions of this command ran; perfbench/ now
// measures throughput, so no flag regenerates them.
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
		parallel = flag.Int("parallel", 1, "engine workers for Table 2 / Figure 7 (0 = GOMAXPROCS)")
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
	if !ranSomething {
		fmt.Fprintln(os.Stderr, "spes-bench: nothing selected; use -table 1, -table 2, -figure 7, or -all")
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
