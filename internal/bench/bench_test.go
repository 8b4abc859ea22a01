package bench

import (
	"strings"
	"testing"

	"spes/internal/corpus"
	"spes/internal/exec"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/verify"
)

// TestTable1Shape runs the full comparative analysis and asserts the
// paper's qualitative results hold:
//   - SPES proves the largest set of pairs under bag semantics;
//   - normalization matters (SPES > SPES w/o normalization), most visibly
//     on outer joins;
//   - UDP proves the fewest and no outer joins;
//   - EQUITAS proves pairs only under set semantics.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 232-pair × 4-verifier run")
	}
	pairs := corpus.CalcitePairs()
	res := RunTable1(pairs)
	byID := map[VerifierID]Table1Row{}
	for _, r := range res.Rows {
		byID[r.Verifier] = r
	}
	spes, noNorm, eq, udp := byID[SPES], byID[SPESNoNorm], byID[EQUITAS], byID[UDP]

	t.Logf("\n%s", RenderTable1(res, len(pairs)))
	t.Logf("\n%s", RenderLimitations(res))

	if spes.Proved <= noNorm.Proved {
		t.Errorf("normalization should increase proved pairs: %d vs %d", spes.Proved, noNorm.Proved)
	}
	if spes.Proved <= udp.Proved {
		t.Errorf("SPES (%d) should prove more than UDP (%d)", spes.Proved, udp.Proved)
	}
	if udp.Proved >= eq.Proved {
		t.Errorf("UDP (%d) should prove fewer than EQUITAS (%d)", udp.Proved, eq.Proved)
	}
	if got := udp.PerCategory[corpus.OuterJoin].Proved; got != 0 {
		t.Errorf("UDP should prove no outer-join pairs (NULL semantics unsupported), got %d", got)
	}
	ojWith := spes.PerCategory[corpus.OuterJoin].Proved
	ojWithout := noNorm.PerCategory[corpus.OuterJoin].Proved
	if ojWith <= ojWithout {
		t.Errorf("normalization should matter most for outer joins: %d vs %d", ojWith, ojWithout)
	}
	// The supported/proved split must stay in the paper's bands.
	if spes.Supported < 110 || spes.Supported > 160 {
		t.Errorf("supported = %d, want ≈120–150", spes.Supported)
	}
	ratio := float64(spes.Proved) / float64(spes.Supported)
	if ratio < 0.7 || ratio > 0.95 {
		t.Errorf("SPES proves %.0f%% of supported pairs, want ≈80%%", 100*ratio)
	}
	// Every SPES-unproved supported pair must carry a limitation tag:
	// anything untagged is a regression, not a known limitation.
	for _, o := range res.Outcomes[SPES] {
		if o.Support && !o.Proved && !strings.HasPrefix(o.Pair.Note, "limit:") {
			t.Errorf("%s (%s) unproved without a limitation tag", o.Pair.ID, o.Pair.Rule)
		}
		// And tagged limitation pairs must indeed stay unproved (they
		// document incompleteness; proving one means the tag is stale).
		if o.Support && o.Proved && strings.HasPrefix(o.Pair.Note, "limit:") {
			t.Errorf("%s (%s) is tagged %q but was proved — retag it", o.Pair.ID, o.Pair.Rule, o.Pair.Note)
		}
	}
}

// TestRenderLimitationsDeterministic pins the §7.4 breakdown's order:
// largest class first, ties by class name, identical on every call. Only
// SPES's supported-but-unproved pairs count.
func TestRenderLimitationsDeterministic(t *testing.T) {
	unproved := func(note, rule string) PairOutcome {
		return PairOutcome{Pair: corpus.Pair{Note: note, Rule: rule}, Support: true}
	}
	res := &Table1Result{Outcomes: map[VerifierID][]PairOutcome{
		SPES: {
			unproved("limit:integer-semantics", "R1"),
			unproved("limit:union+aggregate", "R2"),
			unproved("limit:join+aggregate", "R3"),
			unproved("", "FilterMerge"),
			unproved("limit:union+aggregate", "R4"),
			unproved("limit:join+aggregate", "R5"),
			unproved("limit:union+aggregate", "R6"),
			{Pair: corpus.Pair{Note: "limit:join+aggregate"}, Support: true, Proved: true},
			{Pair: corpus.Pair{Note: "unsupported:cast"}},
		},
		EQUITAS: {unproved("limit:equitas-only", "R7")},
	}}
	want := "SPES: 7 supported pairs unproved, by limitation class:\n" +
		"  limit:union+aggregate            3\n" +
		"  limit:join+aggregate             2\n" +
		"  limit:integer-semantics          1\n" +
		"  other:FilterMerge                1\n"
	for i := 0; i < 20; i++ {
		if got := RenderLimitations(res); got != want {
			t.Fatalf("call %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestEquitasAcceptsBagDifferentPairs demonstrates why set semantics is not
// enough (§2): EQUITAS proves the Figure 1 pair, SPES refuses it.
func TestEquitasAcceptsBagDifferentPairs(t *testing.T) {
	fig1 := corpus.Pair{
		Category: corpus.USPJ,
		SQL1:     "SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID > 10",
		SQL2:     "SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID + 5 > 15 GROUP BY DEPT_ID, LOCATION",
	}
	eq := runPair(EQUITAS, fig1)
	sp := runPair(SPES, fig1)
	if !eq.Proved {
		t.Error("EQUITAS should prove the Figure 1 pair under set semantics")
	}
	if sp.Proved {
		t.Error("SPES must refuse the Figure 1 pair under bag semantics")
	}
}

// TestFigure1 reproduces the concrete counterexample database of Figure 1.
func TestFigure1(t *testing.T) {
	cat := corpus.Catalog()
	b := plan.NewBuilder(cat)
	q1, err := b.BuildSQL("SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID > 10")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := b.BuildSQL("SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID + 5 > 15 GROUP BY DEPT_ID, LOCATION")
	if err != nil {
		t.Fatal(err)
	}
	num := plan.IntDatum
	str := plan.StrDatum
	db := exec.Database{
		"EMP": exec.NewTable(
			exec.R(num(1), str("a"), num(10), num(11), str("NY"), num(0)),
			exec.R(num(2), str("b"), num(12), num(11), str("NY"), num(0)),
			exec.R(num(3), str("c"), num(9), num(11), str("NY"), num(0)),
		),
		"DEPT": exec.NewTable(), "BONUS": exec.NewTable(), "ACCOUNT": exec.NewTable(),
	}
	r1, err := exec.Run(db, q1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(db, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 3 || len(r2) != 1 {
		t.Fatalf("Figure 1 cardinalities: |q1|=%d |q2|=%d, want 3 and 1", len(r1), len(r2))
	}
	if !exec.SetEqual(r1, r2) || exec.BagEqual(r1, r2) {
		t.Error("Figure 1: set-equal but bag-different expected")
	}
}

// TestFigure2 exhibits a cardinally-equivalent-but-not-fully-equivalent
// pair (the bijective-but-not-identity map of Figure 2a): the same rows are
// returned with different contents.
func TestFigure2(t *testing.T) {
	p := corpus.Pair{
		Category: corpus.USPJ,
		SQL1:     "SELECT SALARY FROM EMP WHERE DEPT_ID > 10",
		SQL2:     "SELECT SALARY + 1 FROM EMP WHERE DEPT_ID + 5 > 15",
	}
	out := runPair(SPES, p)
	if out.Proved {
		t.Error("cardinally equivalent queries with different projections must not be fully equivalent")
	}
	// Same cardinality on any database: check one concrete case.
	cat := corpus.Catalog()
	b := plan.NewBuilder(cat)
	q1, _ := b.BuildSQL(p.SQL1)
	q2, _ := b.BuildSQL(p.SQL2)
	db := exec.Database{
		"EMP": exec.NewTable(
			exec.R(plan.IntDatum(1), plan.StrDatum("a"), plan.IntDatum(5), plan.IntDatum(11), plan.StrDatum("NY"), plan.IntDatum(0)),
			exec.R(plan.IntDatum(2), plan.StrDatum("b"), plan.IntDatum(7), plan.IntDatum(12), plan.StrDatum("SF"), plan.IntDatum(0)),
		),
		"DEPT": exec.NewTable(), "BONUS": exec.NewTable(), "ACCOUNT": exec.NewTable(),
	}
	r1, _ := exec.Run(db, q1)
	r2, _ := exec.Run(db, q2)
	if len(r1) != len(r2) {
		t.Errorf("cardinal equivalence violated: %d vs %d rows", len(r1), len(r2))
	}
	if exec.BagEqual(r1, r2) {
		t.Error("contents should differ (bijection is not an identity)")
	}
}

// TestTable2Shape runs the overlap study at a small scale and checks the
// qualitative claims of §7.3.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload verification run")
	}
	w := corpus.ProductionWorkload(2022, 0.05)
	rows := RunTable2(w)
	t.Logf("\n%s", RenderTable2(rows))
	total := rows[len(rows)-1]
	if total.Set != "Total" {
		t.Fatal("missing totals row")
	}
	if total.OverlapSPES <= total.OverlapEQUITAS {
		t.Errorf("SPES should find more overlap than EQUITAS: %d vs %d",
			total.OverlapSPES, total.OverlapEQUITAS)
	}
	frac := float64(total.OverlapSPES) / float64(total.Queries)
	if frac < 0.10 || frac > 0.75 {
		t.Errorf("overlap fraction %.0f%% outside plausible band", 100*frac)
	}
	if total.EquivalentPairs == 0 || total.JoinAggPairs == 0 {
		t.Error("expected equivalent pairs including join/aggregate ones")
	}
	pct := float64(total.JoinAggPairs) / float64(total.EquivalentPairs)
	if pct < 0.25 {
		t.Errorf("join/agg share of equivalent pairs %.0f%%, want a substantial share (paper: 48%%)", 100*pct)
	}
	if total.MaxFrequency < 2 {
		t.Error("workload should contain recurring queries")
	}
}

// TestFigure7Shape checks the complexity ratio between the workloads.
func TestFigure7Shape(t *testing.T) {
	w := corpus.ProductionWorkload(2022, 0.05)
	f := RunFigure7(corpus.CalcitePairs(), w)
	t.Logf("\n%s", RenderFigure7(f))
	ratio := f.ProdMean / f.CalciteMean
	if ratio < 5 || ratio > 13 {
		t.Errorf("complexity ratio %.1fx outside the paper's ≈8x band", ratio)
	}
}

// TestSubqueryDecomposition verifies the §7.3 protocol step directly:
// queries that differ as wholes but share an equivalent constituent
// sub-query count as overlapping.
func TestSubqueryDecomposition(t *testing.T) {
	cat := corpus.WorkloadCatalog()
	b := plan.NewBuilder(cat)
	// Same filtered scan, different aggregates on top: not equivalent as
	// wholes, but the shared sub-query overlaps.
	q1, err := b.BuildSQL("SELECT MERCH_ID, SUM(AMOUNT) FROM (SELECT MERCH_ID, AMOUNT FROM TXN WHERE DAY > 100 AND STATUS = 1) T GROUP BY MERCH_ID")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := b.BuildSQL("SELECT MERCH_ID, MAX(AMOUNT) FROM (SELECT MERCH_ID, AMOUNT FROM TXN WHERE STATUS = 1 AND DAY + 1 > 101) T GROUP BY MERCH_ID")
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b plan.Node) bool {
		nz := normalize.New(normalize.Options{})
		return verify.New().VerifyPlans(nz.Normalize(a), nz.Normalize(b))
	}
	if check(q1, q2) {
		t.Fatal("wholes must not be equivalent (SUM vs MAX)")
	}
	if !subqueriesOverlap(q1, q2, check) {
		t.Error("the shared filtered scan should be detected as overlap")
	}
	// Queries over different tables never decompose into overlap.
	q3, err := b.BuildSQL("SELECT CUST_ID, COUNT(*) FROM (SELECT CUST_ID, REGION FROM CUSTOMER WHERE RISK_LEVEL > 2) T GROUP BY CUST_ID")
	if err != nil {
		t.Fatal(err)
	}
	if subqueriesOverlap(q1, q3, check) {
		t.Error("different tables cannot overlap")
	}
}
