package bench

import (
	"fmt"
	"strings"
	"testing"

	"spes/internal/corpus"
	"spes/internal/engine"
)

// IRReport is the term-IR allocation study emitted as the BENCH_ir.json
// artifact: the same plan-pair batch through the default shared-interner
// engine and through the legacy tree-allocated construction path
// (Options.DisableInterning), measured with testing.Benchmark so the
// numbers are exactly the allocs/op and bytes/op that `go test -benchmem`
// would report. The acceptance bar for the hash-consed IR is
// AllocReductionPct >= 25 on this batch path.
type IRReport struct {
	Pairs   int `json:"pairs"`
	Workers int `json:"workers"`

	InternedAllocsPerOp int64   `json:"interned_allocs_per_op"`
	LegacyAllocsPerOp   int64   `json:"legacy_allocs_per_op"`
	AllocReductionPct   float64 `json:"alloc_reduction_pct"`

	InternedBytesPerOp int64   `json:"interned_bytes_per_op"`
	LegacyBytesPerOp   int64   `json:"legacy_bytes_per_op"`
	BytesReductionPct  float64 `json:"bytes_reduction_pct"`

	InternedMSPerOp float64 `json:"interned_ms_per_op"`
	LegacyMSPerOp   float64 `json:"legacy_ms_per_op"`

	// TermNodes is the size of the shared term DAG after one batch — the
	// engine's term memory is proportional to this, not to the number of
	// formulas built.
	TermNodes int64 `json:"term_nodes"`
}

// RunIR measures the allocation effect of the hash-consed term IR on the
// batch verification path over the production workload's pair stream.
func RunIR(w *corpus.Workload, workers int) IRReport {
	pairs := BatchPairs(w)
	rep := IRReport{Pairs: len(pairs), Workers: workers}

	run := func(disable bool) testing.BenchmarkResult {
		opts := engine.Options{Workers: workers, DisableInterning: disable}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, stats := engine.VerifyPlanBatch(pairs, opts)
				if stats.Pairs != int64(len(pairs)) {
					b.Fatalf("verified %d of %d pairs", stats.Pairs, len(pairs))
				}
				if !disable {
					rep.TermNodes = stats.TermNodes
				}
			}
		})
	}

	interned := run(false)
	legacy := run(true)

	rep.InternedAllocsPerOp = interned.AllocsPerOp()
	rep.LegacyAllocsPerOp = legacy.AllocsPerOp()
	rep.AllocReductionPct = reductionPct(legacy.AllocsPerOp(), interned.AllocsPerOp())
	rep.InternedBytesPerOp = interned.AllocedBytesPerOp()
	rep.LegacyBytesPerOp = legacy.AllocedBytesPerOp()
	rep.BytesReductionPct = reductionPct(legacy.AllocedBytesPerOp(), interned.AllocedBytesPerOp())
	rep.InternedMSPerOp = float64(interned.NsPerOp()) / 1e6
	rep.LegacyMSPerOp = float64(legacy.NsPerOp()) / 1e6
	return rep
}

func reductionPct(base, now int64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - float64(now)/float64(base))
}

// RenderIR renders the study for the terminal.
func RenderIR(r IRReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Term IR allocation study (%d pairs, %d workers)\n", r.Pairs, r.Workers)
	fmt.Fprintf(&b, "  %-22s %15s %15s %10s\n", "", "interned", "legacy", "reduction")
	fmt.Fprintf(&b, "  %-22s %15d %15d %9.1f%%\n", "allocs/op", r.InternedAllocsPerOp, r.LegacyAllocsPerOp, r.AllocReductionPct)
	fmt.Fprintf(&b, "  %-22s %15d %15d %9.1f%%\n", "bytes/op", r.InternedBytesPerOp, r.LegacyBytesPerOp, r.BytesReductionPct)
	fmt.Fprintf(&b, "  %-22s %15.1f %15.1f\n", "ms/op", r.InternedMSPerOp, r.LegacyMSPerOp)
	fmt.Fprintf(&b, "  shared term DAG: %d nodes\n", r.TermNodes)
	return b.String()
}
