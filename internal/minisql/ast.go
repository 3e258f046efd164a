package minisql

import (
	"repro/internal/relation"
)

// Query is a full statement: optional WITH, a set-expression body, optional
// ORDER BY.
type Query struct {
	With    []CTE
	Body    SetExpr
	OrderBy []OrderItem
}

// CTE is one WITH entry.
type CTE struct {
	Name  string
	Query *Query
}

// OrderItem is one ORDER BY column.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetExpr is a SELECT or a set operation over two SetExprs.
type SetExpr interface{ isSetExpr() }

// SetOpKind discriminates set operations.
type SetOpKind uint8

// Set operations.
const (
	OpUnion SetOpKind = iota
	OpExcept
)

// SetOp combines two set expressions.
type SetOp struct {
	Op   SetOpKind
	All  bool // UNION ALL
	L, R SetExpr
}

func (*SetOp) isSetExpr() {}

// Select is one SELECT block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr
}

func (*Select) isSetExpr() {}

// SelectItem is a projection item: a star (optionally qualified), or an
// expression with an optional alias.
type SelectItem struct {
	Star      bool
	Qualifier string // for "alias.*"; empty for bare "*"
	Expr      Expr
	Alias     string
}

// JoinKind is how a FROM item attaches to the items before it.
type JoinKind uint8

// Join kinds.
const (
	JoinComma JoinKind = iota // FROM a, b (inner via WHERE)
	JoinInner                 // JOIN ... ON
	JoinLeft                  // LEFT [OUTER] JOIN ... ON
)

// FromItem is a base table, or a subquery, with an alias and a join spec.
type FromItem struct {
	Table string // empty if subquery
	Sub   *Query
	Alias string
	Join  JoinKind
	On    Expr // for JoinInner / JoinLeft
}

// Expr is a scalar or boolean expression.
type Expr interface{ isExpr() }

// ColRef references a column, optionally qualified by a FROM alias.
type ColRef struct {
	Qual string // lowercased alias or ""
	Name string // lowercased column name
}

func (*ColRef) isExpr() {}

// Lit is a literal (int, string or NULL).
type Lit struct{ V relation.Value }

func (*Lit) isExpr() {}

// BinOpKind is a binary operator.
type BinOpKind uint8

// Binary operators.
const (
	BEq BinOpKind = iota
	BNe
	BLt
	BLe
	BGt
	BGe
	BAnd
	BOr
	BAdd
	BSub
	BMul
	BDiv
	BMod
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOpKind
	L, R Expr
}

func (*Binary) isExpr() {}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (*Not) isExpr() {}

// IsNull is E IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (*IsNull) isExpr() {}

// Exists is [NOT] EXISTS (subquery).
type Exists struct {
	Negate bool
	Sub    *Query
}

func (*Exists) isExpr() {}

// InList is E [NOT] IN (literal, ...).
type InList struct {
	E      Expr
	Vals   []relation.Value
	Negate bool
}

func (*InList) isExpr() {}
