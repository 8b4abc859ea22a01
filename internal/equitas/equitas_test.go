package equitas

import (
	"testing"

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
		},
		PrimaryKey: []string{"DEPT_ID"},
	})
	return cat
}

func check(t *testing.T, sql1, sql2 string, want bool) {
	t.Helper()
	b := plan.NewBuilder(testCatalog(t))
	q1, err := b.BuildSQL(sql1)
	if err != nil {
		t.Fatalf("build q1: %v", err)
	}
	q2, err := b.BuildSQL(sql2)
	if err != nil {
		t.Fatalf("build q2: %v", err)
	}
	v := New()
	if got := v.VerifyPlans(q1, q2); got != want {
		t.Errorf("EQUITAS(%q, %q) = %v, want %v", sql1, sql2, got, want)
	}
}

func TestIdentity(t *testing.T) {
	check(t,
		"SELECT DEPT_ID FROM EMP WHERE SALARY > 5",
		"SELECT DEPT_ID FROM EMP WHERE SALARY > 5",
		true)
}

func TestPredicateReasoning(t *testing.T) {
	// EQUITAS shares SPES's symbolic predicate power.
	check(t,
		"SELECT DEPT_ID FROM EMP WHERE DEPT_ID > 10",
		"SELECT DEPT_ID FROM EMP WHERE DEPT_ID + 5 > 15",
		true)
}

// TestFigure1SetSemantics is the paper's motivating example: EQUITAS
// accepts the filter/group pair because it only guarantees set semantics.
func TestFigure1SetSemantics(t *testing.T) {
	check(t,
		"SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID > 10",
		"SELECT DEPT_ID, LOCATION FROM EMP WHERE DEPT_ID + 5 > 15 GROUP BY DEPT_ID, LOCATION",
		true)
}

func TestFilterSplit(t *testing.T) {
	check(t,
		"SELECT EMP_ID FROM EMP WHERE SALARY > 5 AND DEPT_ID < 9",
		"SELECT EMP_ID FROM (SELECT * FROM EMP WHERE SALARY > 5) T WHERE DEPT_ID < 9",
		true)
}

func TestJoinCommute(t *testing.T) {
	// Scan-order alignment: EMP is occurrence 0 in both queries, DEPT too,
	// so commuted joins still align.
	check(t,
		"SELECT EMP_ID, DEPT_NAME FROM EMP, DEPT WHERE EMP.DEPT_ID = DEPT.DEPT_ID",
		"SELECT EMP_ID, DEPT_NAME FROM DEPT, EMP WHERE DEPT.DEPT_ID = EMP.DEPT_ID",
		true)
}

func TestSelfJoinAlignmentLimit(t *testing.T) {
	// Swapped self-join roles defeat occurrence-order alignment — a known
	// EQUITAS-style limitation SPES's VeriVec search does not share.
	check(t,
		"SELECT E1.EMP_ID FROM EMP E1, EMP E2 WHERE E1.SALARY < E2.SALARY",
		"SELECT E2.EMP_ID FROM EMP E1, EMP E2 WHERE E2.SALARY < E1.SALARY",
		false)
}

func TestDifferentConstants(t *testing.T) {
	check(t,
		"SELECT EMP_ID FROM EMP WHERE SALARY > 5",
		"SELECT EMP_ID FROM EMP WHERE SALARY > 6",
		false)
}

func TestAggregateSameShape(t *testing.T) {
	check(t,
		"SELECT LOCATION, SUM(SALARY) FROM EMP GROUP BY LOCATION",
		"SELECT LOCATION, SUM(SALARY) FROM EMP GROUP BY LOCATION",
		true)
}

func TestAggregateDifferentGroupsRejected(t *testing.T) {
	// Different group keys change the aggregate UF arguments.
	check(t,
		"SELECT LOCATION, SUM(SALARY) FROM EMP GROUP BY LOCATION",
		"SELECT LOCATION, SUM(SALARY) FROM EMP GROUP BY LOCATION, DEPT_ID",
		false)
}

func TestUnionBranches(t *testing.T) {
	check(t,
		"SELECT DEPT_ID FROM EMP UNION ALL SELECT DEPT_ID FROM DEPT",
		"SELECT DEPT_ID FROM EMP UNION ALL SELECT DEPT_ID FROM DEPT",
		true)
}

func TestArityMismatch(t *testing.T) {
	check(t, "SELECT EMP_ID, SALARY FROM EMP", "SELECT EMP_ID FROM EMP", false)
}

// TestGlobalCountSelfEquivalent covers the zero-argument application: a
// global COUNT(*) has no operand and no group key, so its symbolic column
// is an uninterpreted constant, built through the verifier's interner.
func TestGlobalCountSelfEquivalent(t *testing.T) {
	check(t, "SELECT COUNT(*) FROM EMP", "SELECT COUNT(*) FROM EMP", true)
}
