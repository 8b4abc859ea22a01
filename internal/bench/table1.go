// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§7): the comparative analysis on the
// Calcite-style benchmark (Table 1), the production-workload overlap study
// (Table 2), and the query-complexity distribution (Figure 7).
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spes/internal/corpus"
	"spes/internal/equitas"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/udp"
	"spes/internal/verify"
)

// VerifierID names a configuration under test.
type VerifierID string

const (
	SPES       VerifierID = "SPES"
	SPESNoNorm VerifierID = "SPES (w/o norm.)"
	EQUITAS    VerifierID = "EQUITAS"
	UDP        VerifierID = "UDP"
)

// Table1Verifiers is the paper's row order.
var Table1Verifiers = []VerifierID{EQUITAS, UDP, SPESNoNorm, SPES}

// Semantics returns the semantics each verifier guarantees.
func (v VerifierID) Semantics() string {
	if v == EQUITAS {
		return "Set"
	}
	return "Bag"
}

// CategoryStat aggregates per query category.
type CategoryStat struct {
	Proved  int
	AvgTime time.Duration
}

// Table1Row is one verifier's results.
type Table1Row struct {
	Verifier    VerifierID
	Semantics   string
	Supported   int
	Proved      int
	AvgTime     time.Duration
	PerCategory map[corpus.Category]CategoryStat
}

// PairOutcome records one pair × verifier cell, for drill-down reports.
type PairOutcome struct {
	Pair     corpus.Pair
	Proved   bool
	Support  bool
	Duration time.Duration
}

// Table1Result is the full experiment output.
type Table1Result struct {
	Rows     []Table1Row
	Outcomes map[VerifierID][]PairOutcome
}

// RunTable1 executes the comparative analysis over the given pairs.
func RunTable1(pairs []corpus.Pair) *Table1Result {
	res := &Table1Result{Outcomes: make(map[VerifierID][]PairOutcome)}
	for _, id := range Table1Verifiers {
		row := Table1Row{
			Verifier:    id,
			Semantics:   id.Semantics(),
			PerCategory: make(map[corpus.Category]CategoryStat),
		}
		catTime := map[corpus.Category]time.Duration{}
		var provedTime time.Duration
		for _, p := range pairs {
			out := runPair(id, p)
			res.Outcomes[id] = append(res.Outcomes[id], out)
			if !out.Support {
				continue
			}
			row.Supported++
			if out.Proved {
				row.Proved++
				provedTime += out.Duration
				cs := row.PerCategory[p.Category]
				cs.Proved++
				row.PerCategory[p.Category] = cs
				catTime[p.Category] += out.Duration
			}
		}
		if row.Proved > 0 {
			row.AvgTime = provedTime / time.Duration(row.Proved)
		}
		for cat, cs := range row.PerCategory {
			if cs.Proved > 0 {
				cs.AvgTime = catTime[cat] / time.Duration(cs.Proved)
				row.PerCategory[cat] = cs
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// runPair runs one verifier on one pair.
func runPair(id VerifierID, p corpus.Pair) PairOutcome {
	cat := corpus.Catalog()
	b := plan.NewBuilder(cat)
	q1, err1 := b.BuildSQL(p.SQL1)
	q2, err2 := b.BuildSQL(p.SQL2)
	if err1 != nil || err2 != nil {
		return PairOutcome{Pair: p}
	}
	start := time.Now()
	proved, supported := false, true
	switch id {
	case SPES:
		nz := normalize.New(normalize.Options{})
		proved = verify.New().VerifyPlans(nz.Normalize(q1), nz.Normalize(q2))
	case SPESNoNorm:
		proved = verify.New().VerifyPlans(q1, q2)
	case EQUITAS:
		proved = equitas.New().VerifyPlans(q1, q2)
	case UDP:
		switch udp.New().VerifyPlans(q1, q2) {
		case udp.Proved:
			proved = true
		case udp.Unsupported:
			supported = false
		}
	}
	return PairOutcome{Pair: p, Proved: proved, Support: supported, Duration: time.Since(start)}
}

// RenderTable1 formats the result the way Table 1 presents it.
func RenderTable1(r *Table1Result, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: comparative analysis on the Calcite-style benchmark (%d pairs)\n\n", total)
	fmt.Fprintf(&b, "%-18s %-9s %-10s %-8s %-10s %-12s %-12s %-12s\n",
		"QE Verifier", "Semantics", "Supported", "Proved", "Avg(ms)", "USPJ", "Aggregate", "Outer-Join")
	for _, row := range r.Rows {
		cell := func(c corpus.Category) string {
			cs := row.PerCategory[c]
			if cs.Proved == 0 {
				return "0"
			}
			return fmt.Sprintf("%d/%.2fms", cs.Proved, ms(cs.AvgTime))
		}
		fmt.Fprintf(&b, "%-18s %-9s %-10d %-8d %-10.2f %-12s %-12s %-12s\n",
			row.Verifier, row.Semantics, row.Supported, row.Proved, ms(row.AvgTime),
			cell(corpus.USPJ), cell(corpus.Aggregate), cell(corpus.OuterJoin))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// RenderLimitations summarizes the supported-but-unproved pairs by
// limitation class (the §7.4 breakdown).
func RenderLimitations(r *Table1Result) string {
	var spes []PairOutcome
	for _, o := range r.Outcomes[SPES] {
		if o.Support && !o.Proved {
			spes = append(spes, o)
		}
	}
	counts := map[string]int{}
	for _, o := range spes {
		note := o.Pair.Note
		if note == "" {
			note = "other:" + o.Pair.Rule
		}
		counts[note]++
	}
	// Largest class first, ties by name, so the breakdown prints the same
	// on every run.
	notes := make([]string, 0, len(counts))
	for note := range counts {
		notes = append(notes, note)
	}
	sort.Slice(notes, func(i, j int) bool {
		if counts[notes[i]] != counts[notes[j]] {
			return counts[notes[i]] > counts[notes[j]]
		}
		return notes[i] < notes[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "SPES: %d supported pairs unproved, by limitation class:\n", len(spes))
	for _, note := range notes {
		fmt.Fprintf(&b, "  %-32s %d\n", note, counts[note])
	}
	return b.String()
}
