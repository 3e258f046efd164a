package minisql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Interpret is the SQL reference the executor and the view cache are tested
// against. It evaluates the parsed query as written, by SQL's own rules, and
// shares nothing with the planner or the view cache (no CompilePlan,
// compileExpr, rewrite or delta rule):
//
//   - the FROM items run as nested loops, in order; JOIN ... ON keeps the
//     combinations its condition makes true, LEFT JOIN pads a left row no
//     right row matched with NULLs;
//   - WHERE keeps the combined rows it makes true under three-valued logic;
//   - [NOT] EXISTS, anywhere in a condition and at any depth, runs its
//     subquery again for every row of the enclosing one, which it sees as
//     the outer scope (a column resolves in the innermost scope that has it);
//   - CTEs and FROM subqueries are evaluated in declaration order, a CTE
//     visible to the CTEs after it and to the body;
//   - comparisons with NULL are unknown, arithmetic with NULL is NULL and so
//     is division by zero, IN against a list holding NULL is unknown when it
//     misses;
//   - DISTINCT, UNION and EXCEPT compare whole rows, NULL equal to NULL;
//     UNION ALL concatenates;
//   - ORDER BY sorts stably by output columns (NULL first, ints before
//     strings, as relation.Value.Compare orders them).
//
// The result's columns are untyped (relation.KindNull). A name error shows
// when the expression holding it is first evaluated, so a query over empty
// tables may return no rows where the executor refuses it. It is exported so
// that the external test package can time it on Listing 1.
func Interpret(q *Query, cat Catalog) (rel *relation.Relation, err error) {
	in := &interp{tables: make(map[string]*table, len(cat)), binds: map[*Select]*binds{}}
	for name, r := range cat {
		cols := make([]string, r.Schema().Len())
		for i := range cols {
			cols[i] = r.Schema().Col(i).Name
		}
		in.tables[strings.ToLower(name)] = &table{cols: cols, rows: r.Rows()}
	}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(interpError)
			if !ok {
				panic(r)
			}
			rel, err = nil, e
		}
	}()
	t := in.query(q, nil)
	cols := make([]relation.Column, len(t.cols))
	seen := map[string]int{}
	for i, c := range t.cols {
		// Output names may repeat in SQL; a schema's may not.
		if seen[c]++; seen[c] > 1 {
			c = fmt.Sprintf("%s#%d", c, seen[c])
		}
		cols[i] = relation.Column{Name: c, Kind: relation.KindNull}
	}
	out := relation.New(relation.NewSchema(cols...))
	out.AppendTrusted(t.rows...)
	return out, nil
}

// interpError carries a query error out of the recursive evaluation.
type interpError struct{ error }

func fail(format string, args ...any) {
	panic(interpError{fmt.Errorf("interpret: "+format, args...)})
}

// table is a relation as the interpreter sees it: column names and rows.
type table struct {
	cols []string
	rows []relation.Tuple
}

// frame is one SELECT's FROM clause in scope: per FROM item its alias, its
// columns and its current row, the enclosing SELECT's frame, and where the
// SELECT's column references resolved.
type frame struct {
	aliases []string
	cols    [][]string
	rows    []relation.Tuple
	outer   *frame
	binds   *binds
}

// binds records where a SELECT's column references resolved. A reference
// always meets the same frame layout, so it is resolved once per query.
type binds struct {
	refs []*ColRef
	at   []binding
}

// binding is a resolved column: depth frames out, FROM item item, column
// col.
type binding struct{ depth, item, col int }

type interp struct {
	tables map[string]*table
	ctes   []cte // the CTEs in scope, innermost last
	binds  map[*Select]*binds
}

type cte struct {
	name string
	t    *table
}

// query evaluates a full statement: its CTEs in order, the body, ORDER BY.
func (in *interp) query(q *Query, outer *frame) *table {
	defer func(n int) { in.ctes = in.ctes[:n] }(len(in.ctes))
	for _, c := range q.With {
		in.ctes = append(in.ctes, cte{name: c.Name, t: in.query(c.Query, outer)})
	}
	t := in.setExpr(q.Body, outer)
	if len(q.OrderBy) == 0 {
		return t
	}
	type key struct {
		col  int
		desc bool
	}
	keys := make([]key, len(q.OrderBy))
	for i, o := range q.OrderBy {
		c, ok := o.Expr.(*ColRef)
		if !ok {
			fail("ORDER BY takes output columns only")
		}
		// Output columns carry no qualifier: ORDER BY r.ta names ta.
		keys[i] = key{col: -1, desc: o.Desc}
		for j, name := range t.cols {
			if name == c.Name {
				if keys[i].col >= 0 {
					fail("ambiguous ORDER BY column %q", c.Name)
				}
				keys[i].col = j
			}
		}
		if keys[i].col < 0 {
			fail("unknown ORDER BY column %q", c.Name)
		}
	}
	rows := append([]relation.Tuple(nil), t.rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			if c := rows[a][k.col].Compare(rows[b][k.col]); c != 0 {
				return c < 0 != k.desc
			}
		}
		return false
	})
	return &table{cols: t.cols, rows: rows}
}

func (in *interp) setExpr(se SetExpr, outer *frame) *table {
	switch n := se.(type) {
	case *Select:
		return in.sel(n, outer)
	case *SetOp:
		l, r := in.setExpr(n.L, outer), in.setExpr(n.R, outer)
		if len(l.cols) != len(r.cols) {
			fail("set operation over %d and %d columns", len(l.cols), len(r.cols))
		}
		out := &table{cols: l.cols}
		switch {
		case n.Op == OpExcept:
			drop := map[string]bool{}
			for _, t := range r.rows {
				drop[rowKey(t)] = true
			}
			for _, t := range distinct(l.rows) {
				if !drop[rowKey(t)] {
					out.rows = append(out.rows, t)
				}
			}
		case n.All:
			out.rows = append(append(out.rows, l.rows...), r.rows...)
		default:
			out.rows = distinct(append(append(out.rows, l.rows...), r.rows...))
		}
		return out
	}
	fail("unknown set expression %T", se)
	return nil
}

// rowKey renders a row as a map key in which NULL equals NULL (Encode quotes
// strings, so the joined form is unambiguous).
func rowKey(t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Encode()
	}
	return strings.Join(parts, ",")
}

// distinct keeps the first occurrence of every row.
func distinct(rows []relation.Tuple) []relation.Tuple {
	seen := map[string]bool{}
	var out []relation.Tuple
	for _, t := range rows {
		if k := rowKey(t); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// sel evaluates one SELECT block: the rows scan finds, projected, and
// DISTINCT.
func (in *interp) sel(s *Select, outer *frame) *table {
	f, items := in.from(s, outer)
	out := &table{}
	for _, it := range s.Items {
		switch {
		case it.Star:
			found := false
			for i, alias := range f.aliases {
				if it.Qualifier == "" || it.Qualifier == alias {
					out.cols = append(out.cols, f.cols[i]...)
					found = true
				}
			}
			if it.Qualifier != "" && !found {
				fail("unknown alias %q in %s.*", it.Qualifier, it.Qualifier)
			}
		case it.Alias != "":
			out.cols = append(out.cols, it.Alias)
		default:
			name := "col"
			if c, ok := it.Expr.(*ColRef); ok {
				name = c.Name
			}
			out.cols = append(out.cols, name)
		}
	}
	in.scan(s, f, items, func(f *frame) bool {
		row := make(relation.Tuple, 0, len(out.cols))
		for _, it := range s.Items {
			if !it.Star {
				row = append(row, in.value(it.Expr, f))
				continue
			}
			for i, alias := range f.aliases {
				if it.Qualifier == "" || it.Qualifier == alias {
					row = append(row, f.rows[i]...)
				}
			}
		}
		out.rows = append(out.rows, row)
		return true
	})
	if s.Distinct {
		out.rows = distinct(out.rows)
	}
	return out
}

// from evaluates s's FROM items (each CTE, table or subquery once) and lays
// out the frame its rows will fill. A subquery sees the enclosing SELECT's
// outer scope, not its sibling FROM items.
func (in *interp) from(s *Select, outer *frame) (*frame, []*table) {
	f := &frame{outer: outer, rows: make([]relation.Tuple, len(s.From)), binds: in.binds[s]}
	if f.binds == nil {
		f.binds = &binds{}
		in.binds[s] = f.binds
	}
	items := make([]*table, len(s.From))
	for i, item := range s.From {
		for _, a := range f.aliases {
			if a == item.Alias {
				fail("duplicate table alias %q", a)
			}
		}
		items[i] = in.fromTable(item, outer)
		f.aliases = append(f.aliases, item.Alias)
		f.cols = append(f.cols, items[i].cols)
	}
	return f, items
}

// fromTable evaluates one FROM item: a subquery, a CTE in scope, or a base
// table.
func (in *interp) fromTable(item FromItem, outer *frame) *table {
	if item.Sub != nil {
		return in.query(item.Sub, outer)
	}
	for i := len(in.ctes) - 1; i >= 0; i-- {
		if in.ctes[i].name == item.Table {
			return in.ctes[i].t
		}
	}
	if t, ok := in.tables[item.Table]; ok {
		return t
	}
	fail("unknown table %q", item.Table)
	return nil
}

// scan runs the FROM items as nested loops over frame f and calls emit with
// f at every combination the WHERE clause makes true, until emit returns
// false. Each combination overwrites f's rows. It reports whether emit
// asked to stop.
func (in *interp) scan(s *Select, f *frame, items []*table, emit func(*frame) bool) bool {
	var loop func(i int) bool
	loop = func(i int) bool {
		if i == len(items) {
			return (s.Where != nil && in.truth(s.Where, f) != tvTrue) || emit(f)
		}
		item := s.From[i]
		// The ON condition sees the FROM items up to its own.
		on := &frame{aliases: f.aliases[:i+1], cols: f.cols[:i+1], rows: f.rows[:i+1], outer: f.outer, binds: f.binds}
		matched := false
		for _, r := range items[i].rows {
			f.rows[i] = r
			if item.Join != JoinComma && in.truth(item.On, on) != tvTrue {
				continue
			}
			matched = true
			if !loop(i + 1) {
				return false
			}
		}
		if item.Join == JoinLeft && !matched {
			f.rows[i] = make(relation.Tuple, len(items[i].cols)) // the zero Value is NULL
			return loop(i + 1)
		}
		return true
	}
	return !loop(0)
}

// lookup returns the value of a column reference in frame f.
func (in *interp) lookup(c *ColRef, f *frame) relation.Value {
	bs := f.binds
	k := slices.Index(bs.refs, c)
	if k < 0 {
		k = len(bs.refs)
		bs.refs = append(bs.refs, c)
		bs.at = append(bs.at, resolve(c, f))
	}
	at := bs.at[k]
	for d := at.depth; d > 0; d-- {
		f = f.outer
	}
	return f.rows[at.item][at.col]
}

// resolve finds a column in the innermost scope that has it: a qualified
// reference by alias and name, an unqualified one by name, which must then
// be unique in that scope.
func resolve(c *ColRef, f *frame) (at binding) {
	for ; f != nil; at.depth++ {
		found := false
		for i, alias := range f.aliases {
			if c.Qual != "" && c.Qual != alias {
				continue
			}
			for j, name := range f.cols[i] {
				if name != c.Name {
					continue
				}
				if found {
					fail("ambiguous column %q", c.Name)
				}
				found, at.item, at.col = true, i, j
			}
		}
		if found {
			return at
		}
		f = f.outer
	}
	if c.Qual != "" {
		fail("unknown column %s.%s", c.Qual, c.Name)
	}
	fail("unknown column %q", c.Name)
	return at
}

// value evaluates a scalar expression; a condition used as a value is 1
// when true, 0 when false and NULL when unknown.
func (in *interp) value(e Expr, f *frame) relation.Value {
	switch n := e.(type) {
	case *ColRef:
		return in.lookup(n, f)
	case *Lit:
		return n.V
	case *Binary:
		if n.Op >= BAdd {
			return arith(n.Op, in.value(n.L, f), in.value(n.R, f))
		}
	}
	switch in.truth(e, f) {
	case tvTrue:
		return relation.Int(1)
	case tvFalse:
		return relation.Int(0)
	}
	return relation.Null()
}

// arith is integer arithmetic: NULL, a string or a zero divisor makes NULL.
func arith(op BinOpKind, l, r relation.Value) relation.Value {
	if l.Kind() != relation.KindInt || r.Kind() != relation.KindInt {
		return relation.Null()
	}
	x, y := l.AsInt(), r.AsInt()
	switch op {
	case BAdd:
		return relation.Int(x + y)
	case BSub:
		return relation.Int(x - y)
	case BMul:
		return relation.Int(x * y)
	}
	if y == 0 {
		return relation.Null()
	}
	if op == BDiv {
		return relation.Int(x / y)
	}
	return relation.Int(x % y)
}

// truth evaluates a condition under three-valued logic. A value used as a
// condition is unknown when NULL and false when the integer 0.
func (in *interp) truth(e Expr, f *frame) tv {
	switch n := e.(type) {
	case *Binary:
		switch {
		case n.Op == BAnd:
			l := in.truth(n.L, f)
			if l == tvFalse {
				return tvFalse
			}
			return min(l, in.truth(n.R, f))
		case n.Op == BOr:
			l := in.truth(n.L, f)
			if l == tvTrue {
				return tvTrue
			}
			return max(l, in.truth(n.R, f))
		case n.Op < BAnd:
			return cmpTV(in.value(n.L, f), cmpOps[n.Op], in.value(n.R, f))
		}
	case *Not:
		return tvTrue - in.truth(n.E, f)
	case *IsNull:
		return tvOf(in.value(n.E, f).IsNull() != n.Negate)
	case *InList:
		v := in.value(n.E, f)
		out := tvFalse
		for _, w := range n.Vals {
			out = max(out, cmpTV(v, "=", w))
		}
		if n.Negate {
			return tvTrue - out
		}
		return out
	case *Exists:
		return tvOf(in.exists(n.Sub, f) != n.Negate)
	case *ColRef, *Lit:
	default:
		fail("unsupported expression %T", e)
	}
	v := in.value(e, f)
	switch {
	case v.IsNull():
		return tvUnknown
	case v.Kind() == relation.KindInt && v.AsInt() == 0:
		return tvFalse
	}
	return tvTrue
}

// exists reports whether the subquery returns a row with f as its outer
// scope. A plain SELECT stops at its first row.
func (in *interp) exists(q *Query, f *frame) bool {
	if s, ok := q.Body.(*Select); ok && len(q.With) == 0 {
		sf, items := in.from(s, f)
		return in.scan(s, sf, items, func(*frame) bool { return false })
	}
	return len(in.query(q, f).rows) > 0
}

// tv is SQL's three-valued truth.
type tv int8

const (
	tvFalse tv = iota
	tvUnknown
	tvTrue
)

func tvOf(b bool) tv {
	if b {
		return tvTrue
	}
	return tvFalse
}

// cmpOps are the comparison operators' SQL spellings, indexed by BinOpKind.
var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// cmpTV is `a op b` under SQL semantics: UNKNOWN when either side is NULL.
func cmpTV(a relation.Value, op string, b relation.Value) tv {
	if a.IsNull() || b.IsNull() {
		return tvUnknown
	}
	c := a.Compare(b)
	switch op {
	case "=":
		return tvOf(c == 0)
	case "<>":
		return tvOf(c != 0)
	case "<":
		return tvOf(c < 0)
	case "<=":
		return tvOf(c <= 0)
	case ">":
		return tvOf(c > 0)
	default:
		return tvOf(c >= 0)
	}
}
