package plan_test

import (
	"testing"

	"spes/internal/corpus"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/schema"
)

// productionSeed is the seed the benchmark and spes-bench generate the
// production workload with.
const productionSeed = 2022

// corpusPlans is one corpus's buildable plans, each distinct SQL text
// once, and the plan pairs it yields.
type corpusPlans struct {
	name  string
	plans []plan.Node
	pairs [][2]plan.Node
}

// buildCorpus builds each distinct SQL text of a corpus once. pairs
// lists index pairs into sqls; a pair is kept when both sides build.
func buildCorpus(name string, cat *schema.Catalog, sqls []string, pairs [][2]int) corpusPlans {
	b := plan.NewBuilder(cat)
	c := corpusPlans{name: name}
	built := make([]plan.Node, len(sqls))
	seen := map[string]plan.Node{}
	for i, sql := range sqls {
		if n, ok := seen[sql]; ok {
			built[i] = n
			continue
		}
		n, err := b.BuildSQL(sql)
		if err != nil {
			n = nil // unsupported SQL: nothing to encode
		} else {
			c.plans = append(c.plans, n)
		}
		seen[sql], built[i] = n, n
	}
	for _, p := range pairs {
		if a, b := built[p[0]], built[p[1]]; a != nil && b != nil {
			c.pairs = append(c.pairs, [2]plan.Node{a, b})
		}
	}
	return c
}

func pairCorpus(name string, cat *schema.Catalog, ps []corpus.Pair) corpusPlans {
	var sqls []string
	var pairs [][2]int
	for _, p := range ps {
		pairs = append(pairs, [2]int{len(sqls), len(sqls) + 1})
		sqls = append(sqls, p.SQL1, p.SQL2)
	}
	return buildCorpus(name, cat, sqls, pairs)
}

// productionCorpus pairs each distinct production query with the next.
func productionCorpus(scale float64) corpusPlans {
	w := corpus.ProductionWorkload(productionSeed, scale)
	var sqls []string
	seen := map[string]bool{}
	for _, q := range w.Queries {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			sqls = append(sqls, q.SQL)
		}
	}
	var pairs [][2]int
	for i := 0; i+1 < len(sqls); i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	name := "production-0.1"
	if scale == 1.0 {
		name = "production-1.0"
	}
	return buildCorpus(name, w.Catalog, sqls, pairs)
}

// versions returns the corpus three ways: as built, after CanonNode, and
// normalized.
func (c corpusPlans) versions() []corpusPlans {
	canon := corpusPlans{name: c.name + "/canon"}
	norm := corpusPlans{name: c.name + "/normalized"}
	nz := normalize.New(normalize.Options{})
	canonOf, normOf := map[plan.Node]plan.Node{}, map[plan.Node]plan.Node{}
	for _, n := range c.plans {
		canonOf[n], normOf[n] = plan.CanonNode(n), nz.Normalize(n)
		canon.plans = append(canon.plans, canonOf[n])
		norm.plans = append(norm.plans, normOf[n])
	}
	for _, p := range c.pairs {
		canon.pairs = append(canon.pairs, [2]plan.Node{canonOf[p[0]], canonOf[p[1]]})
		norm.pairs = append(norm.pairs, [2]plan.Node{normOf[p[0]], normOf[p[1]]})
	}
	return []corpusPlans{{name: c.name + "/raw", plans: c.plans, pairs: c.pairs}, canon, norm}
}

// eachExpr calls fn on every top-level expression of every node in n,
// subquery plans included.
func eachExpr(n plan.Node, fn func(plan.Expr)) {
	var node func(plan.Node)
	expr := func(e plan.Expr) {
		if e == nil {
			return
		}
		fn(e)
		plan.WalkExpr(e, func(x plan.Expr) bool {
			switch v := x.(type) {
			case *plan.Exists:
				node(v.Sub)
			case *plan.ScalarSub:
				node(v.Sub)
			}
			return true
		})
	}
	node = func(n plan.Node) {
		switch v := n.(type) {
		case *plan.SPJ:
			expr(v.Pred)
			for _, p := range v.Proj {
				expr(p.E)
			}
		case *plan.Agg:
			for _, g := range v.GroupBy {
				expr(g.E)
			}
			for _, a := range v.Aggs {
				expr(a.Arg)
			}
		}
		for _, c := range plan.Children(n) {
			node(c)
		}
	}
	node(n)
}

// TestCanonicalEncodingMatchesReference pins the encoder to the fmt
// renderer it replaced: on every plan of the Calcite pairs, the constraint
// tier and the production workload at scales 0.1 and 1.0 — as built, after
// CanonNode, and normalized — Format and every expression's String are
// byte-identical to the reference, and the fingerprints hash exactly the
// key bytes. Nothing in these corpora needs the encoder's escaping, so
// verdicts, store bytes, refutation seeds and routing are unchanged.
func TestCanonicalEncodingMatchesReference(t *testing.T) {
	corpora := []corpusPlans{
		pairCorpus("calcite", corpus.Catalog(), corpus.CalcitePairs()),
		pairCorpus("constraints", corpus.ConstraintCatalog(), corpus.ConstraintPairs()),
		productionCorpus(0.1),
		productionCorpus(1.0),
	}
	for _, c := range corpora {
		if len(c.plans) == 0 || len(c.pairs) == 0 {
			t.Fatalf("%s: no plans built", c.name)
		}
		for _, v := range c.versions() {
			exprs := 0
			for _, n := range v.plans {
				key := plan.Key(n)
				if want := plan.RefFormat(n); key != want || plan.Format(n) != want {
					t.Fatalf("%s: Format differs from the reference\n got %s\nwant %s", v.name, key, want)
				}
				if plan.Fingerprint(n) != plan.HashKey(key) {
					t.Fatalf("%s: Fingerprint != HashKey(Key) for %s", v.name, key)
				}
				eachExpr(n, func(e plan.Expr) {
					exprs++
					if got, want := e.String(), plan.RefString(e); got != want {
						t.Fatalf("%s: String differs from the reference\n got %s\nwant %s", v.name, got, want)
					}
				})
			}
			for _, p := range v.pairs {
				pk := plan.PairKey(p[0], p[1])
				if want := plan.RefFormat(p[0]) + "\x00" + plan.RefFormat(p[1]); pk != want {
					t.Fatalf("%s: PairKey differs from the reference", v.name)
				}
				if plan.PairFingerprint(p[0], p[1]) != plan.HashKey(pk) {
					t.Fatalf("%s: PairFingerprint != HashKey(PairKey)", v.name)
				}
			}
			t.Logf("%s: %d plans, %d pairs, %d expressions identical", v.name, len(v.plans), len(v.pairs), exprs)
		}
	}
}

// TestPlanKeysAllocationFree pins the encoder's allocation profile on the
// production plans: appending into a buffer that is already large enough
// and computing either fingerprint allocate nothing.
func TestPlanKeysAllocationFree(t *testing.T) {
	c := productionCorpus(0.1)
	buf := make([]byte, 0, 1<<16)
	for _, v := range c.versions() {
		for i, p := range v.pairs {
			if i%16 != 0 {
				continue // a sample keeps the test fast under -race
			}
			a, b := p[0], p[1]
			if allocs := testing.AllocsPerRun(10, func() { buf = plan.AppendNode(buf[:0], a) }); allocs != 0 {
				t.Fatalf("%s: AppendNode into a large buffer allocated %.1f times", v.name, allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() { plan.Fingerprint(a) }); allocs != 0 {
				t.Fatalf("%s: Fingerprint allocated %.1f times", v.name, allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() { plan.PairFingerprint(a, b) }); allocs != 0 {
				t.Fatalf("%s: PairFingerprint allocated %.1f times", v.name, allocs)
			}
		}
	}
}

// BenchmarkPlanKeys measures the plan keys the engine builds per pair,
// over the production workload at scale 0.1: the raw plan's Key (the
// normalization memo), and the normalized pair's PairKey and
// PairFingerprint (the pair dedupe and the refutation seed). One op is
// one plan or pair.
func BenchmarkPlanKeys(b *testing.B) {
	vs := productionCorpus(0.1).versions()
	raw, norm := vs[0], vs[2]
	b.Run("Key/raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = plan.Key(raw.plans[i%len(raw.plans)])
		}
	})
	b.Run("PairKey/normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := norm.pairs[i%len(norm.pairs)]
			_ = plan.PairKey(p[0], p[1])
		}
	})
	b.Run("PairFingerprint/normalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := norm.pairs[i%len(norm.pairs)]
			_ = plan.PairFingerprint(p[0], p[1])
		}
	})
}
