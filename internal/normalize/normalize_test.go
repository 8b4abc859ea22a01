package normalize

import (
	"math/rand"
	"strings"
	"testing"

	"spes/internal/datagen"
	"spes/internal/exec"
	"spes/internal/plan"
	"spes/internal/schema"
)

func testCatalog(t testing.TB) *schema.Catalog {
	cat := schema.NewCatalog()
	add := func(tbl *schema.Table) {
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	add(&schema.Table{
		Name: "EMP",
		Columns: []schema.Column{
			{Name: "EMP_ID", Type: schema.Int, NotNull: true},
			{Name: "SALARY", Type: schema.Int},
			{Name: "DEPT_ID", Type: schema.Int},
			{Name: "LOCATION", Type: schema.String},
		},
		PrimaryKey: []string{"EMP_ID"},
	})
	add(&schema.Table{
		Name: "DEPT",
		Columns: []schema.Column{
			{Name: "DEPT_ID", Type: schema.Int, NotNull: true},
			{Name: "DEPT_NAME", Type: schema.String},
			{Name: "BUDGET", Type: schema.Int},
		},
		PrimaryKey: []string{"DEPT_ID"},
	})
	return cat
}

func buildPlan(t *testing.T, sql string) plan.Node {
	t.Helper()
	n, err := plan.NewBuilder(testCatalog(t)).BuildSQL(sql)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return n
}

// checkPreserves runs a plan before and after normalization on random
// databases and demands identical bags — the package's core invariant.
func checkPreserves(t *testing.T, sql string) plan.Node {
	t.Helper()
	n := buildPlan(t, sql)
	nz := New(Options{})
	out := nz.Normalize(n)
	cat := testCatalog(t)
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		db := datagen.Random(cat, r, datagen.Options{MaxRows: 5})
		before, err := exec.Run(db, n)
		if err != nil {
			t.Fatalf("exec before: %v", err)
		}
		after, err := exec.Run(db, out)
		if err != nil {
			t.Fatalf("exec after: %v\nplan:\n%s", err, plan.Indent(out))
		}
		if !exec.BagEqual(before, after) {
			t.Fatalf("normalization changed semantics for %q\nbefore:\n%s\nafter:\n%s\nplan:\n%s",
				sql, exec.FormatRows(before), exec.FormatRows(after), plan.Indent(out))
		}
	}
	return out
}

func TestSPJMergeFlattens(t *testing.T) {
	out := checkPreserves(t, `SELECT EMP_ID FROM
		(SELECT * FROM (SELECT * FROM EMP WHERE SALARY > 5) A WHERE DEPT_ID < 9) B`)
	spj, ok := out.(*plan.SPJ)
	if !ok {
		t.Fatalf("got %T, want flat SPJ:\n%s", out, plan.Indent(out))
	}
	if len(spj.Inputs) != 1 {
		t.Fatalf("inputs = %d, want 1", len(spj.Inputs))
	}
	if _, ok := spj.Inputs[0].(*plan.Table); !ok {
		t.Fatalf("input = %T, want Table after full merge:\n%s", spj.Inputs[0], plan.Indent(out))
	}
}

func TestJoinMergeKeepsAllTables(t *testing.T) {
	out := checkPreserves(t, `SELECT E.EMP_ID FROM
		(SELECT * FROM EMP WHERE SALARY > 1) E,
		(SELECT * FROM DEPT WHERE DEPT_ID > 2) D
		WHERE E.DEPT_ID = D.DEPT_ID`)
	spj := out.(*plan.SPJ)
	if len(spj.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2:\n%s", len(spj.Inputs), plan.Indent(out))
	}
	for _, in := range spj.Inputs {
		if _, ok := in.(*plan.Table); !ok {
			t.Errorf("input %T, want Table", in)
		}
	}
}

func TestUnionFlatten(t *testing.T) {
	out := checkPreserves(t,
		`SELECT DEPT_ID FROM EMP UNION ALL (SELECT DEPT_ID FROM DEPT UNION ALL SELECT DEPT_ID FROM EMP)`)
	u, ok := out.(*plan.Union)
	if !ok {
		t.Fatalf("got %T:\n%s", out, plan.Indent(out))
	}
	if len(u.Inputs) != 3 {
		t.Fatalf("union branches = %d, want 3", len(u.Inputs))
	}
}

func TestEmptyTableRule(t *testing.T) {
	out := checkPreserves(t, "SELECT EMP_ID FROM EMP WHERE SALARY > 5 AND SALARY < 3")
	if _, ok := out.(*plan.Empty); !ok {
		t.Fatalf("unsatisfiable filter should normalize to Empty, got:\n%s", plan.Indent(out))
	}
	// A satisfiable predicate must survive.
	out = checkPreserves(t, "SELECT EMP_ID FROM EMP WHERE SALARY > 3 AND SALARY < 5")
	if _, ok := out.(*plan.Empty); ok {
		t.Fatal("satisfiable filter wrongly removed")
	}
}

// TestPredSatisfiableHitAllocationFree pins the satisfiability cache's hit
// path: the key is built in the Normalizer's reused buffer and looked up
// without becoming a string, so a hit allocates nothing.
func TestPredSatisfiableHitAllocationFree(t *testing.T) {
	for _, sql := range []string{
		"SELECT EMP_ID FROM EMP WHERE SALARY > 3 AND SALARY < 5",
		"SELECT EMP_ID FROM EMP WHERE SALARY > 5 AND SALARY < 3",
		"SELECT E.EMP_ID FROM EMP E, DEPT D WHERE E.DEPT_ID = D.DEPT_ID AND D.DEPT_NAME = 'it''s'",
	} {
		s, ok := buildPlan(t, sql).(*plan.SPJ)
		if !ok || s.Pred == nil {
			t.Fatalf("%q: want an SPJ with a predicate", sql)
		}
		nz := New(Options{})
		want := nz.predSatisfiable(s) // the miss fills the cache
		if allocs := testing.AllocsPerRun(100, func() {
			if nz.predSatisfiable(s) != want {
				t.Fatal("cache hit changed the answer")
			}
		}); allocs != 0 {
			t.Errorf("%q: a predSatisfiable cache hit allocated %.1f times", sql, allocs)
		}
	}
}

func TestEmptyBranchDropped(t *testing.T) {
	out := checkPreserves(t,
		"SELECT DEPT_ID FROM EMP WHERE 1 = 2 UNION ALL SELECT DEPT_ID FROM DEPT")
	if spj, ok := out.(*plan.SPJ); !ok || len(spj.Inputs) != 1 {
		t.Fatalf("union with one empty branch should collapse, got:\n%s", plan.Indent(out))
	}
}

// TestOuterJoinSimplification is the flagship normalization interaction: a
// null-rejecting filter above a LEFT JOIN makes the anti branch
// unsatisfiable, reducing the outer join to an inner join.
func TestOuterJoinSimplification(t *testing.T) {
	out := checkPreserves(t, `SELECT EMP_ID, DEPT_NAME FROM EMP LEFT JOIN DEPT
		ON EMP.DEPT_ID = DEPT.DEPT_ID WHERE DEPT.DEPT_NAME IS NOT NULL`)
	// After simplification no Union should remain.
	hasUnion := false
	plan.Walk(out, func(n plan.Node) bool {
		if _, ok := n.(*plan.Union); ok {
			hasUnion = true
		}
		return true
	})
	if hasUnion {
		t.Fatalf("LOJ + null-rejecting filter should lose the outer branch:\n%s", plan.Indent(out))
	}
}

func TestPushdownThroughAggregate(t *testing.T) {
	out := checkPreserves(t, `SELECT * FROM
		(SELECT DEPT_ID, SUM(SALARY) AS S FROM EMP GROUP BY DEPT_ID) T
		WHERE T.DEPT_ID > 5`)
	// The filter must sit below the Agg afterwards.
	var agg *plan.Agg
	plan.Walk(out, func(n plan.Node) bool {
		if a, ok := n.(*plan.Agg); ok {
			agg = a
		}
		return true
	})
	if agg == nil {
		t.Fatalf("no aggregate left:\n%s", plan.Indent(out))
	}
	inner, ok := agg.Input.(*plan.SPJ)
	if !ok || inner.Pred == nil {
		t.Fatalf("predicate was not pushed below the aggregate:\n%s", plan.Indent(out))
	}
	if !strings.Contains(inner.Pred.String(), ">") {
		t.Fatalf("pushed predicate looks wrong: %v", inner.Pred)
	}
}

func TestPushdownSkipsAggColumns(t *testing.T) {
	// HAVING on the aggregate output cannot be pushed below the Agg.
	out := checkPreserves(t, `SELECT DEPT_ID, SUM(SALARY) FROM EMP GROUP BY DEPT_ID HAVING SUM(SALARY) > 10`)
	spj, ok := out.(*plan.SPJ)
	if !ok || spj.Pred == nil {
		t.Fatalf("HAVING over aggregate column must stay above the Agg:\n%s", plan.Indent(out))
	}
}

func TestSelfJoinPKCollapse(t *testing.T) {
	out := checkPreserves(t,
		"SELECT E1.SALARY, E2.LOCATION FROM EMP E1, EMP E2 WHERE E1.EMP_ID = E2.EMP_ID")
	spj, ok := out.(*plan.SPJ)
	if !ok || len(spj.Inputs) != 1 {
		t.Fatalf("self-join on PK should collapse to one scan:\n%s", plan.Indent(out))
	}
}

func TestSelfJoinNonPKKept(t *testing.T) {
	out := checkPreserves(t,
		"SELECT E1.SALARY, E2.LOCATION FROM EMP E1, EMP E2 WHERE E1.DEPT_ID = E2.DEPT_ID")
	spj, ok := out.(*plan.SPJ)
	if !ok || len(spj.Inputs) != 2 {
		t.Fatalf("self-join on non-key must not collapse:\n%s", plan.Indent(out))
	}
}

func TestGroupByPKRemoved(t *testing.T) {
	out := checkPreserves(t, "SELECT EMP_ID, SALARY FROM EMP GROUP BY EMP_ID, SALARY")
	hasAgg := false
	plan.Walk(out, func(n plan.Node) bool {
		if _, ok := n.(*plan.Agg); ok {
			hasAgg = true
		}
		return true
	})
	if hasAgg {
		t.Fatalf("grouping covering the PK should drop the Agg:\n%s", plan.Indent(out))
	}
	// Without PK coverage the Agg must stay.
	out = checkPreserves(t, "SELECT SALARY FROM EMP GROUP BY SALARY")
	hasAgg = false
	plan.Walk(out, func(n plan.Node) bool {
		if _, ok := n.(*plan.Agg); ok {
			hasAgg = true
		}
		return true
	})
	if !hasAgg {
		t.Fatal("grouping on non-key must keep the Agg")
	}
}

func TestAggregateMerge(t *testing.T) {
	out := checkPreserves(t, `SELECT LOCATION, SUM(S) FROM
		(SELECT LOCATION, DEPT_ID, SUM(SALARY) AS S FROM EMP GROUP BY LOCATION, DEPT_ID) T
		GROUP BY LOCATION`)
	count := 0
	plan.Walk(out, func(n plan.Node) bool {
		if _, ok := n.(*plan.Agg); ok {
			count++
		}
		return true
	})
	if count != 1 {
		t.Fatalf("nested SUM should merge into one Agg (got %d):\n%s", count, plan.Indent(out))
	}
}

func TestAggregateMergeSumCount(t *testing.T) {
	checkPreserves(t, `SELECT LOCATION, SUM(C) FROM
		(SELECT LOCATION, DEPT_ID, COUNT(*) AS C FROM EMP GROUP BY LOCATION, DEPT_ID) T
		GROUP BY LOCATION`)
}

func TestAggregateMergeGlobalSumCountNotMerged(t *testing.T) {
	// Global SUM over grouped COUNT must NOT merge (NULL vs 0 on empty).
	out := checkPreserves(t, `SELECT SUM(C) FROM
		(SELECT DEPT_ID, COUNT(*) AS C FROM EMP GROUP BY DEPT_ID) T`)
	count := 0
	plan.Walk(out, func(n plan.Node) bool {
		if _, ok := n.(*plan.Agg); ok {
			count++
		}
		return true
	})
	if count != 2 {
		t.Fatalf("global SUM over grouped COUNT must keep both Aggs (got %d):\n%s", count, plan.Indent(out))
	}
}

func TestDisabledRules(t *testing.T) {
	n := buildPlan(t, "SELECT EMP_ID FROM (SELECT * FROM EMP WHERE SALARY > 5) T")
	nz := New(Options{NoSPJMerge: true})
	out := nz.Normalize(n)
	spj := out.(*plan.SPJ)
	if _, ok := spj.Inputs[0].(*plan.SPJ); !ok {
		t.Fatalf("with NoSPJMerge the nesting must remain:\n%s", plan.Indent(out))
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	sqls := []string{
		"SELECT EMP_ID FROM EMP WHERE SALARY > 5",
		"SELECT DEPT_ID, COUNT(*) FROM EMP GROUP BY DEPT_ID",
		"SELECT EMP_ID, DEPT_NAME FROM EMP LEFT JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
		"SELECT DEPT_ID FROM EMP UNION ALL SELECT DEPT_ID FROM DEPT",
	}
	for _, sql := range sqls {
		n := buildPlan(t, sql)
		nz := New(Options{})
		once := nz.Normalize(n)
		twice := nz.Normalize(once)
		if plan.Format(once) != plan.Format(twice) {
			t.Errorf("normalization not idempotent for %q:\nonce:  %s\ntwice: %s",
				sql, plan.Format(once), plan.Format(twice))
		}
	}
}

// TestRandomizedPreservation runs a battery of varied queries through
// normalization and the differential harness.
func TestRandomizedPreservation(t *testing.T) {
	sqls := []string{
		"SELECT EMP_ID, SALARY + 1 FROM EMP WHERE SALARY > 2 OR DEPT_ID IS NULL",
		"SELECT E.LOCATION, D.DEPT_NAME FROM EMP E JOIN DEPT D ON E.DEPT_ID = D.DEPT_ID WHERE E.SALARY > 1",
		"SELECT LOCATION, COUNT(*), MIN(SALARY) FROM EMP GROUP BY LOCATION HAVING COUNT(*) > 1",
		"SELECT EMP_ID FROM EMP WHERE DEPT_ID IN (SELECT DEPT_ID FROM DEPT)",
		"SELECT EMP_ID, DEPT_NAME FROM EMP FULL OUTER JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
		"SELECT DISTINCT LOCATION FROM EMP WHERE SALARY > 0",
		"SELECT CASE WHEN SALARY > 5 THEN LOCATION ELSE 'none' END FROM EMP",
		"SELECT DEPT_ID FROM EMP WHERE SALARY > 3 UNION SELECT DEPT_ID FROM DEPT",
		"SELECT EMP_ID FROM EMP WHERE NOT EXISTS (SELECT 1 FROM DEPT WHERE DEPT.DEPT_ID = EMP.DEPT_ID)",
	}
	for _, sql := range sqls {
		checkPreserves(t, sql)
	}
}
