package sqlparser

import "math/big"

// Statement is a parsed SQL statement: a query (Select / SetOp) or a
// CreateTable.
type Statement interface{ isStatement() }

// Query is a statement that produces rows.
type Query interface {
	Statement
	isQuery()
}

// Select is a single SELECT block.
type Select struct {
	Distinct bool
	Exprs    []SelectExpr
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem // parsed; equivalence ignores order
}

func (*Select) isStatement() {}
func (*Select) isQuery()     {}

// SelectExpr is one projection item.
type SelectExpr struct {
	Star  bool   // SELECT * or alias.*
	Table string // qualifier for alias.*
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetOp combines two queries with UNION or UNION ALL.
type SetOp struct {
	All         bool // UNION ALL keeps duplicates
	Left, Right Query
}

func (*SetOp) isStatement() {}
func (*SetOp) isQuery()     {}

// CreateTable declares a table for the catalog.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	PK          []string
	Unique      [][]string // table-level and column-level UNIQUE keys
	ForeignKeys []ForeignKeyDef
}

func (*CreateTable) isStatement() {}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    string
	NotNull bool
	PK      bool
	Unique  bool
	// References carries a column-level REFERENCES clause; nil otherwise.
	References *ForeignKeyDef
}

// ForeignKeyDef is a FOREIGN KEY ... REFERENCES constraint. For a
// column-level REFERENCES clause, Columns holds just that column; empty
// ParentColumns means "the parent's primary key".
type ForeignKeyDef struct {
	Columns       []string
	ParentTable   string
	ParentColumns []string
}

// TableRef is an item in a FROM clause.
type TableRef interface{ isTableRef() }

// TableName references a base table, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) isTableRef() {}

// SubqueryRef is a derived table.
type SubqueryRef struct {
	Query Query
	Alias string
}

func (*SubqueryRef) isTableRef() {}

// JoinType distinguishes join flavours.
type JoinType uint8

const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinRef joins two table references.
type JoinRef struct {
	Type        JoinType
	Left, Right TableRef
	On          Expr // nil for CROSS JOIN
}

func (*JoinRef) isTableRef() {}

// Expr is a scalar or boolean SQL expression.
type Expr interface{ isExpr() }

// ColRef references a column, optionally qualified.
type ColRef struct {
	Table string // "" when unqualified
	Name  string
}

func (*ColRef) isExpr() {}

// NumLit is a numeric literal (exact rational).
type NumLit struct{ Val *big.Rat }

func (*NumLit) isExpr() {}

// StrLit is a string literal.
type StrLit struct{ Val string }

func (*StrLit) isExpr() {}

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) isExpr() {}

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) isExpr() {}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpConcat
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpConcat: "||",
}

func (o BinOp) String() string { return binOpNames[o] }

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (*BinExpr) isExpr() {}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

func (*NotExpr) isExpr() {}

// NegExpr is arithmetic negation.
type NegExpr struct{ E Expr }

func (*NegExpr) isExpr() {}

// IsNullExpr tests nullability; Negate selects IS NOT NULL.
type IsNullExpr struct {
	E      Expr
	Negate bool
}

func (*IsNullExpr) isExpr() {}

// CaseExpr is a searched CASE (an operand form is desugared by the parser
// into comparisons).
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // nil means ELSE NULL
}

func (*CaseExpr) isExpr() {}

// WhenClause is one WHEN ... THEN ... arm.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// FuncExpr is a function call: an aggregate (SUM/COUNT/MIN/MAX/AVG) or a
// scalar user-defined function.
type FuncExpr struct {
	Name     string // uppercased
	Star     bool   // COUNT(*)
	Distinct bool
	Args     []Expr
}

func (*FuncExpr) isExpr() {}

// ExistsExpr is an EXISTS (subquery) predicate.
type ExistsExpr struct {
	Query  Query
	Negate bool
}

func (*ExistsExpr) isExpr() {}

// InExpr is expr [NOT] IN (list | subquery); exactly one of List and Query
// is set.
type InExpr struct {
	E      Expr
	List   []Expr
	Query  Query
	Negate bool
}

func (*InExpr) isExpr() {}

// ScalarSubquery is a subquery used as a scalar value.
type ScalarSubquery struct{ Query Query }

func (*ScalarSubquery) isExpr() {}

// CastExpr is CAST(expr AS type). Parsed but unsupported by the verifier,
// mirroring the paper's unsupported-feature set.
type CastExpr struct {
	E    Expr
	Type string
}

func (*CastExpr) isExpr() {}
