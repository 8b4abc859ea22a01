// Package schema defines the catalog SPES verifies queries against: table
// definitions with typed, optionally non-nullable columns, primary keys,
// UNIQUE keys, and foreign keys. Keys feed the integrity-constraint
// normalization rules (§4.2 of the paper) and the functional-dependency
// axioms the verifier conjoins into COND; foreign keys feed the
// referential-containment axioms and the constraint-respecting data
// generator; NOT NULL feeds the three-valued-logic encoding.
package schema

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Type is a column type. SPES's symbolic encoding models every non-boolean
// type as a numeric sort (strings are interned), so types mainly matter to
// the executor and the data generator.
type Type uint8

const (
	Int Type = iota
	Float
	String
	Bool
)

func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps a SQL type name to a Type.
//
// The mapping is deliberately lossy: DECIMAL and NUMERIC alias to Float
// with no precision or scale — the symbolic encoding models every numeric
// column as an exact rational, so width never affects a verdict, and the
// executor and data generator both treat Float columns as exact
// half-integer rationals (big.Rat), never IEEE floats. Declared widths in
// the DDL (e.g. DECIMAL(10,2)) are parsed and discarded.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "DATE", "TIMESTAMP":
		return Int, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return Float, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return String, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	}
	return Int, fmt.Errorf("schema: unknown type %q", s)
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// ForeignKey declares that the tuple of Columns in the child table must,
// when fully non-NULL, match the key tuple of Parent.ParentColumns in some
// row of the parent table (SQL's MATCH SIMPLE semantics for the common
// single-column case: a NULL component exempts the row).
type ForeignKey struct {
	Columns       []string // child columns, in declaration order
	ParentTable   string
	ParentColumns []string // must align 1:1 with Columns
}

// Table describes a base table.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string   // column names; empty means no key declared
	Unique      [][]string // declared UNIQUE keys, each a column-name set
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// IsPrimaryKey reports whether the given column positions exactly cover the
// primary key (order-insensitive).
func (t *Table) IsPrimaryKey(cols []int) bool {
	return t.coversKey(cols, t.PrimaryKey)
}

// IsUniqueKey reports whether the given column positions exactly cover the
// primary key or any declared UNIQUE key (order-insensitive).
func (t *Table) IsUniqueKey(cols []int) bool {
	if t.coversKey(cols, t.PrimaryKey) {
		return true
	}
	for _, u := range t.Unique {
		if t.coversKey(cols, u) {
			return true
		}
	}
	return false
}

// UniqueKeys returns every key that makes rows distinct: the primary key
// (if declared) followed by the declared UNIQUE keys. Callers must not
// mutate the returned slices.
func (t *Table) UniqueKeys() [][]string {
	var keys [][]string
	if len(t.PrimaryKey) > 0 {
		keys = append(keys, t.PrimaryKey)
	}
	return append(keys, t.Unique...)
}

func (t *Table) coversKey(cols []int, key []string) bool {
	if len(key) == 0 || len(cols) != len(key) {
		return false
	}
	want := make(map[int]bool, len(key))
	for _, name := range key {
		idx := t.ColumnIndex(name)
		if idx < 0 {
			return false
		}
		want[idx] = true
	}
	for _, c := range cols {
		if !want[c] {
			return false
		}
	}
	return true
}

// Catalog is a set of table definitions.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers t; it returns an error on duplicate names or invalid
// primary keys.
func (c *Catalog) AddTable(t *Table) error {
	key := strings.ToUpper(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		u := strings.ToUpper(col.Name)
		if seen[u] {
			return fmt.Errorf("schema: duplicate column %q in table %q", col.Name, t.Name)
		}
		seen[u] = true
	}
	for _, pk := range t.PrimaryKey {
		if t.ColumnIndex(pk) < 0 {
			return fmt.Errorf("schema: primary key column %q not in table %q", pk, t.Name)
		}
	}
	for _, u := range t.Unique {
		if len(u) == 0 {
			return fmt.Errorf("schema: empty UNIQUE key in table %q", t.Name)
		}
		for _, col := range u {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("schema: unique key column %q not in table %q", col, t.Name)
			}
		}
	}
	for _, fk := range t.ForeignKeys {
		if len(fk.Columns) == 0 || len(fk.Columns) != len(fk.ParentColumns) {
			return fmt.Errorf("schema: foreign key in table %q must pair equal, non-empty column lists", t.Name)
		}
		for _, col := range fk.Columns {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("schema: foreign key column %q not in table %q", col, t.Name)
			}
		}
	}
	c.tables[key] = t
	return nil
}

// CheckForeignKeys validates the parent side of every declared foreign
// key: the referenced table exists and the referenced columns exactly
// cover its primary key or one of its UNIQUE keys. It is a separate pass
// from AddTable so DDL may forward-reference tables; ParseCatalog calls it
// once the whole catalog is loaded.
func (c *Catalog) CheckForeignKeys() error {
	for _, name := range c.Names() {
		t, _ := c.Table(name)
		for _, fk := range t.ForeignKeys {
			parent, ok := c.Table(fk.ParentTable)
			if !ok {
				return fmt.Errorf("schema: foreign key in table %q references unknown table %q", t.Name, fk.ParentTable)
			}
			idx := make([]int, len(fk.ParentColumns))
			for i, col := range fk.ParentColumns {
				if idx[i] = parent.ColumnIndex(col); idx[i] < 0 {
					return fmt.Errorf("schema: foreign key in table %q references unknown column %q.%q", t.Name, fk.ParentTable, col)
				}
			}
			if !parent.IsUniqueKey(idx) {
				return fmt.Errorf("schema: foreign key in table %q must reference a primary or unique key of %q", t.Name, fk.ParentTable)
			}
		}
	}
	return nil
}

// Table looks a table up by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToUpper(name)]
	return t, ok
}

// MustTable looks a table up and panics when absent; for tests and fixed
// benchmark schemas.
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.Table(name)
	if !ok {
		panic(fmt.Sprintf("schema: no table %q", name))
	}
	return t
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ConstraintDigest returns a short deterministic fingerprint of every
// integrity constraint the catalog declares — primary keys, NOT NULL,
// UNIQUE keys, and foreign keys. The digest namespaces obligation-cache
// and durable-store keys: a verdict proved under one constraint set must
// never be served under another, because constraints add equivalences
// (join elimination, key-based DISTINCT removal) that do not hold on
// unconstrained databases.
//
// A catalog that declares no constraints of any kind digests to the empty
// string, guaranteeing that constraint-free catalogs produce keys — and
// therefore cache entries and store records — byte-identical to builds
// that predate constraint support.
func (c *Catalog) ConstraintDigest() string {
	var b strings.Builder
	for _, name := range c.Names() {
		t, _ := c.Table(name)
		var parts []string
		if len(t.PrimaryKey) > 0 {
			parts = append(parts, "pk("+joinUpper(t.PrimaryKey)+")")
		}
		var nn []string
		for _, col := range t.Columns {
			if col.NotNull {
				nn = append(nn, strings.ToUpper(col.Name))
			}
		}
		if len(nn) > 0 {
			sort.Strings(nn)
			parts = append(parts, "nn("+strings.Join(nn, ",")+")")
		}
		uniq := make([]string, 0, len(t.Unique))
		for _, u := range t.Unique {
			uniq = append(uniq, "u("+joinUpper(u)+")")
		}
		sort.Strings(uniq)
		parts = append(parts, uniq...)
		fks := make([]string, 0, len(t.ForeignKeys))
		for _, fk := range t.ForeignKeys {
			fks = append(fks, "fk("+joinUpper(fk.Columns)+"->"+strings.ToUpper(fk.ParentTable)+"("+joinUpper(fk.ParentColumns)+"))")
		}
		sort.Strings(fks)
		parts = append(parts, fks...)
		if len(parts) > 0 {
			b.WriteString(strings.ToUpper(name))
			b.WriteByte('{')
			b.WriteString(strings.Join(parts, ";"))
			b.WriteString("}\n")
		}
	}
	if b.Len() == 0 {
		return ""
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func joinUpper(names []string) string {
	up := make([]string, len(names))
	for i, n := range names {
		up[i] = strings.ToUpper(n)
	}
	return strings.Join(up, ",")
}
