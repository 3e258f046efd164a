// Package ra holds the scalar expressions of the mini-SQL executor, under
// SQL's three-valued logic, and the specs its plan nodes carry beside them:
// equi-join key pairs, projection items and sort keys. The relational
// operators are the view cache's delta rules (minisql's IVM), the one
// evaluator of a SQL plan.
//
// The mini-SQL planner compiles paper Listing 1 onto them (the Datalog
// engine joins through its own indexed rule steps). This mirrors the paper's
// claim that "optimization techniques from declarative query processing can
// be used to improve scheduler performance without affecting the scheduler
// specification".
package ra

import (
	"fmt"

	"repro/internal/relation"
)

// TV is a three-valued logic truth value (SQL semantics for NULL).
type TV int8

const (
	// False is definitely false.
	False TV = iota
	// Unknown arises from comparisons involving NULL.
	Unknown
	// True is definitely true.
	True
)

// And implements Kleene conjunction.
func (a TV) And(b TV) TV {
	if a < b {
		return a
	}
	return b
}

// Or implements Kleene disjunction.
func (a TV) Or(b TV) TV {
	if a > b {
		return a
	}
	return b
}

// Not implements Kleene negation.
func (a TV) Not() TV { return True - a }

// Expr is a scalar expression evaluated against a tuple.
type Expr interface {
	// Eval returns the expression value for tuple t. Boolean-valued
	// expressions return Int(1), Int(0) or Null (unknown).
	Eval(t relation.Tuple) relation.Value
	fmt.Stringer
}

// Truth converts a value to a TV: NULL -> Unknown, 0 -> False, else True.
func Truth(v relation.Value) TV {
	if v.IsNull() {
		return Unknown
	}
	if v.Kind() == relation.KindInt && v.AsInt() == 0 {
		return False
	}
	return True
}

func tvValue(tv TV) relation.Value {
	switch tv {
	case True:
		return relation.Int(1)
	case False:
		return relation.Int(0)
	default:
		return relation.Null()
	}
}

// Col references a column by position.
type Col struct {
	Pos  int
	Name string // for display only
}

// Eval returns the referenced column.
func (c Col) Eval(t relation.Tuple) relation.Value { return t[c.Pos] }

func (c Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Pos)
}

// Lit is a literal value.
type Lit struct{ V relation.Value }

// Eval returns the literal.
func (l Lit) Eval(relation.Tuple) relation.Value { return l.V }

func (l Lit) String() string { return l.V.Encode() }

// CmpOp is a comparison operator.
type CmpOp int8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Cmp compares two sub-expressions under SQL semantics: any NULL operand
// yields Unknown.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval evaluates the comparison.
func (c Cmp) Eval(t relation.Tuple) relation.Value {
	l := c.L.Eval(t)
	r := c.R.Eval(t)
	if l.IsNull() || r.IsNull() {
		return relation.Null()
	}
	// = and <> test equality, which never looks a symbol's string up.
	var ok bool
	switch c.Op {
	case EQ:
		ok = l.Equal(r)
	case NE:
		ok = !l.Equal(r)
	case LT:
		ok = l.Compare(r) < 0
	case LE:
		ok = l.Compare(r) <= 0
	case GT:
		ok = l.Compare(r) > 0
	default:
		ok = l.Compare(r) >= 0
	}
	return tvValue(b2tv(ok))
}

func (c Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

func b2tv(b bool) TV {
	if b {
		return True
	}
	return False
}

// And is Kleene conjunction of sub-expressions.
type And struct{ L, R Expr }

// Eval evaluates the conjunction.
func (a And) Eval(t relation.Tuple) relation.Value {
	return tvValue(Truth(a.L.Eval(t)).And(Truth(a.R.Eval(t))))
}

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is Kleene disjunction of sub-expressions.
type Or struct{ L, R Expr }

// Eval evaluates the disjunction.
func (o Or) Eval(t relation.Tuple) relation.Value {
	return tvValue(Truth(o.L.Eval(t)).Or(Truth(o.R.Eval(t))))
}

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is Kleene negation.
type Not struct{ E Expr }

// Eval evaluates the negation.
func (n Not) Eval(t relation.Tuple) relation.Value {
	return tvValue(Truth(n.E.Eval(t)).Not())
}

func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// IsNull tests a sub-expression for NULL (two-valued result).
type IsNull struct {
	E      Expr
	Negate bool // IS NOT NULL
}

// Eval evaluates the null test.
func (i IsNull) Eval(t relation.Tuple) relation.Value {
	isNull := i.E.Eval(t).IsNull()
	if i.Negate {
		isNull = !isNull
	}
	return tvValue(b2tv(isNull))
}

func (i IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// ArithOp is an arithmetic operator.
type ArithOp int8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith is integer arithmetic; NULL operands propagate NULL, division by zero
// yields NULL (rather than an error) to keep expression evaluation total.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval evaluates the arithmetic expression.
func (a Arith) Eval(t relation.Tuple) relation.Value {
	l := a.L.Eval(t)
	r := a.R.Eval(t)
	if l.IsNull() || r.IsNull() || l.Kind() != relation.KindInt || r.Kind() != relation.KindInt {
		return relation.Null()
	}
	x, y := l.AsInt(), r.AsInt()
	switch a.Op {
	case Add:
		return relation.Int(x + y)
	case Sub:
		return relation.Int(x - y)
	case Mul:
		return relation.Int(x * y)
	case Div:
		if y == 0 {
			return relation.Null()
		}
		return relation.Int(x / y)
	default:
		if y == 0 {
			return relation.Null()
		}
		return relation.Int(x % y)
	}
}

func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// InList tests membership of the left expression in a literal list.
type InList struct {
	E      Expr
	Values []relation.Value
	Negate bool
}

// Eval evaluates the membership test with SQL NULL semantics: a NULL
// operand is Unknown, and so is a miss on a list holding NULL (v IN (1, NULL)
// is v = 1 OR v = NULL).
func (in InList) Eval(t relation.Tuple) relation.Value {
	v := in.E.Eval(t)
	if v.IsNull() {
		return relation.Null()
	}
	tv := False
	for _, w := range in.Values {
		if w.IsNull() {
			tv = Unknown
		} else if v.Equal(w) {
			tv = True
			break
		}
	}
	if in.Negate {
		tv = tv.Not()
	}
	return tvValue(tv)
}

func (in InList) String() string {
	neg := ""
	if in.Negate {
		neg = "NOT "
	}
	return fmt.Sprintf("(%s %sIN list[%d])", in.E, neg, len(in.Values))
}

// MapCols returns e with every column reference c replaced by f(c), the rest
// of the expression unchanged. A planner reads, rebinds and compares
// predicates by column position through it.
func MapCols(e Expr, f func(Col) Col) Expr {
	switch x := e.(type) {
	case Col:
		return f(x)
	case Lit:
		return x
	case Cmp:
		x.L, x.R = MapCols(x.L, f), MapCols(x.R, f)
		return x
	case Arith:
		x.L, x.R = MapCols(x.L, f), MapCols(x.R, f)
		return x
	case And:
		return And{L: MapCols(x.L, f), R: MapCols(x.R, f)}
	case Or:
		return Or{L: MapCols(x.L, f), R: MapCols(x.R, f)}
	case Not:
		return Not{E: MapCols(x.E, f)}
	case IsNull:
		x.E = MapCols(x.E, f)
		return x
	case InList:
		x.E = MapCols(x.E, f)
		return x
	}
	panic(fmt.Sprintf("ra: MapCols: unknown expression %T", e))
}

// EquiKey names one pair of join columns (left position, right position).
type EquiKey struct{ L, R int }

// NamedExpr is a projection item with its output column name and kind.
type NamedExpr struct {
	Name string
	Kind relation.Kind
	E    Expr
}

// SortSpec orders by one column.
type SortSpec struct {
	Pos  int
	Desc bool
}
