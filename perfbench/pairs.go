package main

import (
	"fmt"
	"strings"

	"spes/internal/corpus"
	"spes/internal/plan"
	"spes/internal/schema"
)

// catalogID names the schema a pair is verified against. Each library or
// engine workload holds one catalog per ID; the service workload has only
// the production catalog.
type catalogID int

const (
	calciteCat    catalogID = iota // corpus.Catalog: the constraint-free Calcite schema
	constraintCat                  // corpus.ConstraintCatalog: the same tables with FK/UNIQUE/NOT NULL
	productionCat                  // corpus.WorkloadCatalog: the fraud-detection star schema
	numCatalogs
)

func (c catalogID) String() string {
	return [...]string{"calcite", "constraint", "production"}[c]
}

// catalogs builds one fresh catalog per ID: the set-up every workload pays
// before its first pair.
func catalogs() [numCatalogs]*schema.Catalog {
	return [numCatalogs]*schema.Catalog{corpus.Catalog(), corpus.ConstraintCatalog(), corpus.WorkloadCatalog()}
}

// pair is one verification request of a workload's fixed pair list.
type pair struct {
	ID         string
	Cat        catalogID
	SQL1, SQL2 string
	// Equivalent marks pairs equivalent by construction: the Calcite
	// rewrite pairs, the constraint tier under its own catalog, pairs of
	// one production cluster, and cross-cluster pairs whose cores (the
	// queries without their identity wrappers) are the same text.
	Equivalent bool
	// Unsupported marks pairs the corpus tags "unsupported:"; a parse or
	// build error on them is their expected outcome.
	Unsupported bool
}

// key identifies a pair by content, for deduplication across workloads.
func (p pair) key() string {
	return fmt.Sprintf("%d\x00%s\x00%s", p.Cat, p.SQL1, p.SQL2)
}

// Scales of the synthetic production workload: 0.1 for the routed
// service stream (about a thousand queries, the cluster bench's scale),
// 1.0 for overlap detection across clusters (the paper's 9,486 queries).
const (
	routedScale  = 0.1
	overlapScale = 1.0
)

// calcitePairs is the calcite-cold list: the 232 Calcite pairs, the
// 10-pair constraint tier under its own catalog, and the same tier under
// the constraint-free twin, where the pairs are generally inequivalent —
// the workload's refutable controls.
func calcitePairs() []pair {
	var out []pair
	for _, p := range corpus.CalcitePairs() {
		out = append(out, pair{ID: p.ID, Cat: calciteCat, SQL1: p.SQL1, SQL2: p.SQL2,
			Equivalent: p.Equivalent, Unsupported: p.Unsupported()})
	}
	for _, p := range corpus.ConstraintPairs() {
		out = append(out, pair{ID: p.ID, Cat: constraintCat, SQL1: p.SQL1, SQL2: p.SQL2,
			Equivalent: p.Equivalent, Unsupported: p.Unsupported()})
	}
	for _, p := range corpus.ConstraintPairs() {
		out = append(out, pair{ID: p.ID + "-free", Cat: calciteCat, SQL1: p.SQL1, SQL2: p.SQL2})
	}
	return out
}

// clustered groups a workload's queries by generation cluster, clusters in
// first-appearance order.
func clustered(qs []corpus.WorkloadQuery) [][]corpus.WorkloadQuery {
	idx := map[int]int{}
	var out [][]corpus.WorkloadQuery
	for _, q := range qs {
		i, ok := idx[q.Cluster]
		if !ok {
			i = len(out)
			idx[q.Cluster] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], q)
	}
	return out
}

// routedPairs is the production-routed stream: every ordered pair of one
// cluster's members, recurrences included, in bench.BatchPairs order
// within a cluster, followed by Table 2's cross-cluster representative
// pairs (up to twenty per table set and query set), the overlap candidates
// the same service receives and the stream's refutable controls. The
// clusters, and the cross-cluster pairs, come in orderSeed's order.
func routedPairs(orderSeed int64) []pair {
	w := corpus.ProductionWorkload(corpusSeed, routedScale)
	b := plan.NewBuilder(w.Catalog)
	buildable := map[string]bool{}
	ok := func(sql string) bool {
		v, seen := buildable[sql]
		if !seen {
			_, err := b.BuildSQL(sql)
			v = err == nil
			buildable[sql] = v
		}
		return v
	}
	var out []pair
	clusters := clustered(w.Queries)
	for _, k := range shuffled(len(clusters), orderSeed) {
		members := clusters[k]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, c := members[i], members[j]
				if ok(a.SQL) && ok(c.SQL) {
					out = append(out, pair{ID: fmt.Sprintf("w%d-%d", a.ID, c.ID), Cat: productionCat,
						SQL1: a.SQL, SQL2: c.SQL, Equivalent: true})
				}
			}
		}
	}
	var cross []pair
	for set := 0; set < 3; set++ {
		for _, p := range crossPairs(w.Queries, set, 20) {
			if ok(p.SQL1) && ok(p.SQL2) {
				cross = append(cross, p)
			}
		}
	}
	return append(out, permute(cross, orderSeed)...)
}

// overlapPairs is the overlap-refute list: §7.3's overlap candidates
// between clusters at full scale — consecutive cluster representatives
// over the same table set, paired off, with no per-table-set cap.
func overlapPairs() []pair {
	w := corpus.ProductionWorkload(corpusSeed, overlapScale)
	var out []pair
	for set := 0; set < 3; set++ {
		out = append(out, crossPairs(w.Queries, set, 0)...)
	}
	return out
}

// crossPairs pairs off the representatives (first members) of one query
// set's clusters within each table set, in cluster order: representatives
// 0-1, 2-3, and so on, at most perTables pairs per table set when
// perTables > 0.
func crossPairs(qs []corpus.WorkloadQuery, set, perTables int) []pair {
	reps := map[string][]corpus.WorkloadQuery{}
	var order []string
	for _, members := range clustered(qs) {
		q := members[0]
		if q.Set != set {
			continue
		}
		k := q.TableKey()
		if _, ok := reps[k]; !ok {
			order = append(order, k)
		}
		reps[k] = append(reps[k], q)
	}
	var out []pair
	for _, k := range order {
		rs := reps[k]
		for i := 0; i+1 < len(rs) && (perTables <= 0 || i/2 < perTables); i += 2 {
			a, c := rs[i], rs[i+1]
			out = append(out, pair{ID: fmt.Sprintf("x%d-%d", a.ID, c.ID), Cat: productionCat,
				SQL1: a.SQL, SQL2: c.SQL, Equivalent: unwrap(a.SQL) == unwrap(c.SQL)})
		}
	}
	return out
}

// unwrap strips the identity derived tables the production generator nests
// a query in ("SELECT * FROM (q) W<n>"), leaving the query's core.
func unwrap(sql string) string {
	const prefix = "SELECT * FROM ("
	for strings.HasPrefix(sql, prefix) {
		i := strings.LastIndex(sql, ") W")
		if i < 0 || strings.Trim(sql[i+3:], "0123456789") != "" {
			break
		}
		sql = sql[len(prefix):i]
	}
	return sql
}

// distinct keeps the first occurrence of each pair by content.
func distinct(ps []pair) []pair {
	seen := map[string]bool{}
	var out []pair
	for _, p := range ps {
		if k := p.key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}
