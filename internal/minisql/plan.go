package minisql

import (
	"fmt"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// The executor is a compile-then-maintain pipeline: CompilePlan lowers a
// parsed Query against the base-table schemas into a graph of relational
// operator nodes (all name resolution, conjunct placement, join-key
// extraction and EXISTS rewriting happens here, once), rewrites it as an
// optimiser would (rewrite.go: semi- and anti-joins, identity projections as
// renames, one shared node per repeated filter, DISTINCTs no reader needs
// dropped, column projections folded into the joins that read them), and
// the view cache (ivm.go) is the graph's one evaluator: it starts every view
// empty and takes the base tables as its first delta, so a one-off query
// (Run) and every round after a build run the same delta rules, and every
// node keeps a materialised view only where a delta rule reads one (the
// inputs of joins, EXCEPT and DISTINCT, and an unordered root).

// planOp discriminates plan node types.
type planOp uint8

// Plan node operators.
const (
	opScan     planOp = iota // base table (cte < 0) or CTE slot output
	opRename                 // alias-qualified column names over the child
	opSelect                 // filter by every pred (ANDed)
	opProject                // projection items
	opJoin                   // inner hash equi-join + residual
	opLeftJoin               // left outer equi-join (residual joins matching)
	opSemi                   // hash semi- (anti=false) or anti-join (anti=true)
	opUnionAll               // bag concatenation
	opExcept                 // SQL EXCEPT (set semantics)
	opDistinct               // duplicate elimination
	opOrderBy                // sort (content-neutral)
	opConst                  // one zero-column row (SELECT without FROM)
)

// planNode is one relational operator with its compile-time output schema.
// l is the only child of unary operators; binary operators use l and r. A
// node may have several parents (a shared filter, see rewrite).
type planNode struct {
	op     planOp
	id     int // position in Plan.nodes (children precede parents)
	schema *relation.Schema
	l, r   *planNode

	table string         // opScan: lower-cased base table name
	cte   int            // opScan: CTE slot, -1 for base tables
	names []string       // opRename
	preds []ra.Expr      // opSelect, applied in order
	pred  ra.Expr        // opJoin/opLeftJoin/opSemi residual (may be nil)
	keys  []ra.EquiKey   // opJoin/opLeftJoin/opSemi equi-keys
	anti  bool           // opSemi: NOT EXISTS
	items []ra.NamedExpr // opProject
	sorts []ra.SortSpec  // opOrderBy
}

// Plan is a query compiled against fixed base-table schemas. It is immutable
// after compilation and may back any number of view caches (the SQL
// protocol compiles its qualification query once and builds its view cache
// over the plan whenever it needs a new one).
type Plan struct {
	root  *planNode
	ctes  []*planNode // CTE bodies in declaration order; slot i may use j < i
	names []string    // CTE names by slot, for String
	nodes []*planNode // every node the root reads once, children before parents
}

// CompilePlan lowers q against the given base-table schemas (keys are
// lower-cased table names). All static errors — unknown tables or columns,
// unsupported constructs — surface here; evaluation can then only fail on
// data-dependent conditions.
func CompilePlan(q *Query, tables map[string]*relation.Schema) (*Plan, error) {
	c := &compiler{plan: &Plan{}, scope: make(map[string]scopeEntry, len(tables))}
	for name, s := range tables {
		c.scope[strings.ToLower(name)] = scopeEntry{schema: s, cte: -1}
	}
	root, err := c.query(q)
	if err != nil {
		return nil, err
	}
	c.plan.root = root
	c.plan.rewrite()
	return c.plan, nil
}

// scopeEntry is one name visible to FROM: a base table or an earlier CTE.
type scopeEntry struct {
	schema *relation.Schema
	cte    int // -1 for base tables
}

type compiler struct {
	plan  *Plan
	scope map[string]scopeEntry
}

// add registers a node in evaluation (topological) order.
func (c *compiler) add(n *planNode) *planNode {
	n.id = len(c.plan.nodes)
	c.plan.nodes = append(c.plan.nodes, n)
	return n
}

func (c *compiler) query(q *Query) (*planNode, error) {
	// CTEs extend the scope for the rest of this query (and are visible to
	// later CTEs, as in SQL).
	if len(q.With) > 0 {
		saved := c.scope
		c.scope = make(map[string]scopeEntry, len(saved)+len(q.With))
		for k, v := range saved {
			c.scope[k] = v
		}
		defer func() { c.scope = saved }()
		for _, cte := range q.With {
			n, err := c.query(cte.Query)
			if err != nil {
				return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
			}
			slot := len(c.plan.ctes)
			c.plan.ctes = append(c.plan.ctes, n)
			c.plan.names = append(c.plan.names, cte.Name)
			c.scope[cte.Name] = scopeEntry{schema: n.schema, cte: slot}
		}
	}
	n, err := c.setExpr(q.Body)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		specs := make([]ra.SortSpec, len(q.OrderBy))
		for i, o := range q.OrderBy {
			cr, ok := o.Expr.(*ColRef)
			if !ok {
				return nil, fmt.Errorf("minisql: ORDER BY supports column references only")
			}
			pos, _, err := resolveCol(n.schema, cr)
			if err != nil && cr.Qual != "" {
				// Output columns are unqualified; a qualified ORDER BY ref
				// (ORDER BY r.ta) falls back to the bare name.
				pos, _, err = resolveCol(n.schema, &ColRef{Name: cr.Name})
			}
			if err != nil {
				return nil, err
			}
			specs[i] = ra.SortSpec{Pos: pos, Desc: o.Desc}
		}
		n = c.add(&planNode{op: opOrderBy, schema: n.schema, l: n, sorts: specs})
	}
	return n, nil
}

func (c *compiler) setExpr(se SetExpr) (*planNode, error) {
	switch n := se.(type) {
	case *Select:
		return c.sel(n)
	case *SetOp:
		l, err := c.setExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := c.setExpr(n.R)
		if err != nil {
			return nil, err
		}
		if l.schema.Len() != r.schema.Len() {
			return nil, fmt.Errorf("minisql: set operation arity mismatch %d vs %d", l.schema.Len(), r.schema.Len())
		}
		switch n.Op {
		case OpUnion:
			u := c.add(&planNode{op: opUnionAll, schema: l.schema, l: l, r: r})
			if !n.All {
				u = c.add(&planNode{op: opDistinct, schema: u.schema, l: u})
			}
			return u, nil
		default:
			return c.add(&planNode{op: opExcept, schema: l.schema, l: l, r: r}), nil
		}
	default:
		return nil, fmt.Errorf("minisql: unknown set expression %T", se)
	}
}

func (c *compiler) sel(sel *Select) (*planNode, error) {
	if len(sel.From) == 0 {
		// SELECT of constants: one row, no FROM.
		one := c.add(&planNode{op: opConst, schema: relation.NewSchema()})
		return c.project(sel, one)
	}
	conjs := splitConjuncts(sel.Where, nil)
	var plain, existsConjs []*conjunct
	for _, cj := range conjs {
		if hasExists(cj.e) {
			existsConjs = append(existsConjs, cj)
		} else {
			plain = append(plain, cj)
		}
	}
	cur, leftover, err := c.joinChain(sel.From, plain)
	if err != nil {
		return nil, err
	}
	if len(leftover) > 0 {
		return nil, fmt.Errorf("minisql: predicate %v references unknown columns", leftover[0].e)
	}
	for _, cj := range existsConjs {
		cur, err = c.applyExists(cur, cj.e)
		if err != nil {
			return nil, err
		}
	}
	return c.project(sel, cur)
}

// joinChain compiles the FROM items left to right, consuming WHERE conjuncts
// as early filters, hash-join keys and join residuals where possible, and
// applying all remaining resolvable conjuncts at the end. Conjuncts it cannot
// resolve are returned for the caller (correlated predicates of an EXISTS
// subquery).
func (c *compiler) joinChain(from []FromItem, conjs []*conjunct) (*planNode, []*conjunct, error) {
	cur, err := c.fromItem(from[0])
	if err != nil {
		return nil, nil, err
	}
	cur = c.applyResolvable(cur, conjs)
	for _, item := range from[1:] {
		next, err := c.fromItem(item)
		if err != nil {
			return nil, nil, err
		}
		if err := checkDisjointAliases(cur.schema, next.schema); err != nil {
			return nil, nil, err
		}
		// A comma join reads its keys and residual from the WHERE clause,
		// after the right side's own filters went below it; JOIN ... ON from
		// its ON clause, every conjunct of which must resolve here.
		op, on, strict := opJoin, conjs, false
		if item.Join != JoinComma {
			on, strict = splitConjuncts(item.On, nil), true
			if item.Join == JoinLeft {
				op = opLeftJoin
			}
		} else {
			next = c.applyResolvable(next, conjs)
		}
		if cur, err = c.join(op, cur, next, on, strict); err != nil {
			return nil, nil, err
		}
		cur = c.applyResolvable(cur, conjs)
	}
	var leftover []*conjunct
	for _, cj := range conjs {
		if !cj.done {
			leftover = append(leftover, cj)
		}
	}
	return cur, leftover, nil
}

// join emits op(l, r) over the pending conjuncts: equalities between the two
// sides become hash keys and every other conjunct that resolves over both
// sides joins the residual, so a pair the WHERE clause drops is never
// materialised. strict makes an unresolvable conjunct an error; otherwise it
// is left pending for a later join or the caller.
func (c *compiler) join(op planOp, l, r *planNode, conjs []*conjunct, strict bool) (*planNode, error) {
	keys := extractKeys(l.schema, r.schema, conjs)
	both := concat(l.schema, r.schema)
	var residual ra.Expr
	for _, cj := range conjs {
		if cj.done {
			continue
		}
		cc, err := compileExpr(cj.e, both)
		if err != nil {
			if strict {
				return nil, err
			}
			continue
		}
		if residual == nil {
			residual = cc
		} else {
			residual = ra.And{L: residual, R: cc}
		}
		cj.done = true
	}
	return c.add(&planNode{
		op: op, schema: joinSchema(l.schema, r.schema),
		l: l, r: r, keys: keys, pred: residual,
	}), nil
}

// applyResolvable wraps n in a filter by every pending conjunct whose columns
// all resolve in n's schema, marking them consumed.
func (c *compiler) applyResolvable(n *planNode, conjs []*conjunct) *planNode {
	var preds []ra.Expr
	for _, cj := range conjs {
		if cj.done {
			continue
		}
		compiled, err := compileExpr(cj.e, n.schema)
		if err != nil {
			continue // not yet resolvable; a later join may provide columns
		}
		preds = append(preds, compiled)
		cj.done = true
	}
	if len(preds) == 0 {
		return n
	}
	return c.add(&planNode{op: opSelect, schema: n.schema, l: n, preds: preds})
}

func (c *compiler) fromItem(item FromItem) (*planNode, error) {
	var base *planNode
	if item.Table != "" {
		ent, ok := c.scope[item.Table]
		if !ok {
			return nil, fmt.Errorf("minisql: unknown table %q", item.Table)
		}
		base = c.add(&planNode{op: opScan, schema: ent.schema, table: item.Table, cte: ent.cte})
	} else {
		sub, err := c.query(item.Sub)
		if err != nil {
			return nil, err
		}
		base = sub
	}
	// Qualify every column as alias.col.
	names := make([]string, base.schema.Len())
	for i := 0; i < base.schema.Len(); i++ {
		n := base.schema.Col(i).Name
		if j := strings.LastIndexByte(n, '.'); j >= 0 {
			n = n[j+1:]
		}
		names[i] = item.Alias + "." + n
	}
	cols := base.schema.Columns()
	for i := range cols {
		cols[i].Name = names[i]
	}
	return c.add(&planNode{
		op: opRename, schema: relation.NewSchema(cols...), l: base, names: names,
	}), nil
}

// applyExists rewrites a [NOT] EXISTS conjunct into hash semi/anti joins of
// the current node against the subquery's FROM. EXISTS becomes one semi-join;
// NOT EXISTS becomes a chain of anti-joins, one per disjunct of its WHERE
// (see antiJoins).
func (c *compiler) applyExists(cur *planNode, e Expr) (*planNode, error) {
	negate := false
	for {
		if n, ok := e.(*Not); ok {
			negate = !negate
			e = n.E
			continue
		}
		break
	}
	x, ok := e.(*Exists)
	if !ok {
		return nil, fmt.Errorf("minisql: unsupported EXISTS placement in %T", e)
	}
	if x.Negate {
		negate = !negate
	}
	sub := x.Sub
	if len(sub.With) > 0 {
		return nil, fmt.Errorf("minisql: WITH inside EXISTS not supported")
	}
	innerSel, ok := sub.Body.(*Select)
	if !ok {
		return nil, fmt.Errorf("minisql: set operations inside EXISTS not supported")
	}
	var where []Expr
	for _, cj := range splitConjuncts(innerSel.Where, nil) {
		if hasExists(cj.e) {
			return nil, fmt.Errorf("minisql: nested EXISTS not supported")
		}
		where = append(where, cj.e)
	}
	if len(innerSel.From) == 0 {
		return nil, fmt.Errorf("minisql: EXISTS subquery without FROM not supported")
	}
	if negate {
		budget := maxAntiJoins - 1 // the unsplit NOT EXISTS is one already
		return c.antiJoins(cur, innerSel.From, where, &budget)
	}
	inner, leftover, err := c.joinChain(innerSel.From, newConjuncts(where))
	if err != nil {
		return nil, err
	}
	return c.semiJoin(cur, inner, leftover, false)
}

// maxAntiJoins bounds the anti-joins one NOT EXISTS may be split into: the
// split is a disjunctive-normal-form expansion, exponential on inputs like
// (p OR q) AND (r OR s) AND ... Past the bound the remaining ORs stay
// residuals of the anti-joins already emitted.
const maxAntiJoins = 16

// antiJoins lowers NOT EXISTS (SELECT ... FROM from WHERE where[0] AND ...)
// over cur. When a correlated conjunct is a disjunction D1 OR D2 OR ..., the
// subquery is split on it:
//
//	NOT EXISTS(S WHERE C AND (D1 OR D2)) = NOT EXISTS(S WHERE C AND D1)
//	                                    AND NOT EXISTS(S WHERE C AND D2)
//
// which is exact under three-valued logic (a row makes C AND (D1 OR D2) TRUE
// iff it makes C AND D1 or C AND D2 TRUE, and NOT EXISTS only asks whether
// some row is TRUE). Each branch goes back through joinChain, so a disjunct's
// inner-only conjuncts become filters below the anti-join and its correlated
// equalities become hash keys: Listing 1's RLockedObjects turns from one
// anti-join on ta with the whole OR interpreted per candidate pair into an
// anti-join on (ta, object) against the writes and one on (ta) against the
// terminations, neither with a residual. ORs over inner columns only never
// reach here — joinChain consumes them as filters.
//
// budget is how many more anti-joins the enclosing NOT EXISTS may still add.
func (c *compiler) antiJoins(cur *planNode, from []FromItem, where []Expr, budget *int) (*planNode, error) {
	nodes, ctes := len(c.plan.nodes), len(c.plan.ctes)
	conjs := newConjuncts(where)
	inner, leftover, err := c.joinChain(from, conjs)
	if err != nil {
		return nil, err
	}
	for i, cj := range conjs {
		if cj.done {
			continue // consumed inside the subquery: not correlated
		}
		ds := splitDisjuncts(cj.e, nil)
		if len(ds) < 2 || len(ds)-1 > *budget {
			continue
		}
		*budget -= len(ds) - 1
		// Compiling the subquery's FROM only served to tell correlated
		// conjuncts from inner ones; each branch compiles its own.
		c.plan.nodes, c.plan.ctes, c.plan.names = c.plan.nodes[:nodes], c.plan.ctes[:ctes], c.plan.names[:ctes]
		for _, d := range ds {
			branch := make([]Expr, 0, len(where)+1)
			branch = append(append(branch, where[:i]...), where[i+1:]...)
			for _, dc := range splitConjuncts(d, nil) {
				branch = append(branch, dc.e)
			}
			if cur, err = c.antiJoins(cur, from, branch, budget); err != nil {
				return nil, err
			}
		}
		return cur, nil
	}
	return c.semiJoin(cur, inner, leftover, true)
}

func newConjuncts(es []Expr) []*conjunct {
	out := make([]*conjunct, len(es))
	for i, e := range es {
		out[i] = &conjunct{e: e}
	}
	return out
}

func splitDisjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == BOr {
		out = splitDisjuncts(b.L, out)
		return splitDisjuncts(b.R, out)
	}
	return append(out, e)
}

// semiJoin emits the semi- or anti-join of cur against a compiled subquery
// FROM. The correlated conjuncts joinChain left over become its predicate:
// direct equalities are hash keys; everything else is a residual over
// (outer ++ inner). Equalities implied by every disjunct of an OR are
// additionally hoisted as keys (the residual keeps the OR, which is redundant
// but harmless).
func (c *compiler) semiJoin(cur, inner *planNode, leftover []*conjunct, anti bool) (*planNode, error) {
	if err := checkDisjointAliases(cur.schema, inner.schema); err != nil {
		return nil, err // a subquery alias shadowing an outer one
	}
	both := concat(cur.schema, inner.schema)
	var keys []ra.EquiKey
	var residual ra.Expr
	for _, cj := range leftover {
		if b, ok := cj.e.(*Binary); ok && b.Op == BEq {
			if k, ok2 := correlatedKey(cur.schema, inner.schema, b); ok2 {
				keys = append(keys, k)
				continue
			}
		}
		keys = append(keys, hoistImpliedKeys(cur.schema, inner.schema, cj.e)...)
		cc, err := compileExpr(cj.e, both)
		if err != nil {
			return nil, fmt.Errorf("minisql: correlated predicate %v: %w", cj.e, err)
		}
		if residual == nil {
			residual = cc
		} else {
			residual = ra.And{L: residual, R: cc}
		}
	}
	return c.add(&planNode{
		op: opSemi, schema: cur.schema, l: cur, r: inner,
		keys: keys, pred: residual, anti: anti,
	}), nil
}

// project compiles the SELECT list and DISTINCT.
func (c *compiler) project(sel *Select, n *planNode) (*planNode, error) {
	var items []ra.NamedExpr
	usedNames := make(map[string]int)
	uniq := func(name string) string {
		if name == "" {
			name = "col"
		}
		k := usedNames[name]
		usedNames[name] = k + 1
		if k == 0 {
			return name
		}
		return name + "_" + fmt.Sprint(k+1)
	}
	for _, it := range sel.Items {
		if it.Star {
			s := n.schema
			for i := 0; i < s.Len(); i++ {
				full := s.Col(i).Name
				alias, col, hasDot := strings.Cut(full, ".")
				if !hasDot {
					col = full
					alias = ""
				}
				if it.Qualifier != "" && alias != it.Qualifier {
					continue
				}
				items = append(items, ra.NamedExpr{
					Name: uniq(col),
					Kind: s.Col(i).Kind,
					E:    ra.Col{Pos: i, Name: full},
				})
			}
			if it.Qualifier != "" {
				found := false
				for i := 0; i < n.schema.Len(); i++ {
					if strings.HasPrefix(n.schema.Col(i).Name, it.Qualifier+".") {
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("minisql: unknown alias %q in %s.*", it.Qualifier, it.Qualifier)
				}
			}
			continue
		}
		compiled, err := compileExpr(it.Expr, n.schema)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = "col"
			}
		}
		items = append(items, ra.NamedExpr{
			Name: uniq(name),
			Kind: exprKind(it.Expr, n.schema),
			E:    compiled,
		})
	}
	cols := make([]relation.Column, len(items))
	for i, it := range items {
		cols[i] = relation.Column{Name: it.Name, Kind: it.Kind}
	}
	out := c.add(&planNode{op: opProject, schema: relation.NewSchema(cols...), l: n, items: items})
	if sel.Distinct {
		out = c.add(&planNode{op: opDistinct, schema: out.schema, l: out})
	}
	return out, nil
}

// joinSchema is a join's output schema: left columns, then right columns
// with name clashes disambiguated by an "r." prefix (the SQL planner always
// pre-qualifies names, so clashes only arise in hand-built plans).
func joinSchema(l, r *relation.Schema) *relation.Schema {
	cols := make([]relation.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns()...)
	for _, c := range r.Columns() {
		if _, clash := l.Index(c.Name); clash {
			c.Name = "r." + c.Name
		}
		cols = append(cols, c)
	}
	return relation.NewSchema(cols...)
}

// String renders the plan as an indented operator tree, CTE bodies first
// under their names: one line per node with its operator, equi-keys, residual
// predicate and filters, children indented below it (a join's left child
// first). A node with several parents (a filter the rewrite shared) is
// marked "(shared)" and printed under each; a CTE body the root does not
// read (a projection the rewrite folded into its reader, say) prints as
// "(unread)". It shows what the planner did with a query — which conjuncts
// became hash keys, which were pushed below a join as filters, which stayed
// an interpreted residual:
//
//	with finished:
//	  project ta=h.ta
//	    select (h.op = "c")
//	      rename h
//	        scan h
//	project ta=a.ta
//	  anti-join on a.ta = finished.ta
//	    ...
func (p *Plan) String() string { return p.render(nil) }

// render is String with note's text, when note is not nil, appended to each
// node's line.
func (p *Plan) render(note func(n *planNode) string) string {
	parents := make([]int, len(p.nodes))
	for _, n := range p.nodes {
		for _, ch := range [2]*planNode{n.l, n.r} {
			if ch != nil {
				parents[ch.id]++
			}
		}
	}
	var b strings.Builder
	for i, n := range p.ctes {
		if n.id < 0 {
			fmt.Fprintf(&b, "with %s: (unread)\n", p.names[i])
			continue
		}
		fmt.Fprintf(&b, "with %s:\n", p.names[i])
		p.write(&b, n, 1, parents, note)
	}
	p.write(&b, p.root, 0, parents, note)
	return b.String()
}

func (p *Plan) write(b *strings.Builder, n *planNode, depth int, parents []int, note func(n *planNode) string) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(p.describe(n))
	if parents[n.id] > 1 {
		b.WriteString(" (shared)")
	}
	if note != nil {
		b.WriteString(note(n))
	}
	b.WriteByte('\n')
	if n.l != nil {
		p.write(b, n.l, depth+1, parents, note)
	}
	if n.r != nil {
		p.write(b, n.r, depth+1, parents, note)
	}
}

// describe renders one node without its children.
func (p *Plan) describe(n *planNode) string {
	join := func(name string) string {
		var b strings.Builder
		b.WriteString(name)
		for i, k := range n.keys {
			if i == 0 {
				b.WriteString(" on ")
			} else {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", n.l.schema.Col(k.L).Name, n.r.schema.Col(k.R).Name)
		}
		if n.pred != nil {
			fmt.Fprintf(&b, " residual %s", n.pred)
		}
		return b.String()
	}
	list := func(name string, k int, item func(i int) string) string {
		parts := make([]string, k)
		for i := range parts {
			parts[i] = item(i)
		}
		return name + " " + strings.Join(parts, ", ")
	}
	switch n.op {
	case opScan:
		if n.cte >= 0 {
			return "scan cte " + p.names[n.cte]
		}
		return "scan " + n.table
	case opRename:
		// An alias qualifying every column names the rename; otherwise (an
		// identity projection's output names) the columns do.
		alias := ""
		if len(n.names) > 0 {
			alias, _, _ = strings.Cut(n.names[0], ".")
		}
		for _, name := range n.names {
			if !strings.HasPrefix(name, alias+".") {
				return "rename " + strings.Join(n.names, ", ")
			}
		}
		return "rename " + alias
	case opSelect:
		return list("select", len(n.preds), func(i int) string { return fmt.Sprint(n.preds[i]) })
	case opProject:
		return list("project", len(n.items), func(i int) string { return fmt.Sprintf("%s=%s", n.items[i].Name, n.items[i].E) })
	case opJoin:
		return join("join")
	case opLeftJoin:
		return join("left-join")
	case opSemi:
		if n.anti {
			return join("anti-join")
		}
		return join("semi-join")
	case opUnionAll:
		return "union-all"
	case opExcept:
		return "except"
	case opDistinct:
		return "distinct"
	case opOrderBy:
		return list("order-by", len(n.sorts), func(i int) string {
			name := n.schema.Col(n.sorts[i].Pos).Name
			if n.sorts[i].Desc {
				name += " desc"
			}
			return name
		})
	case opConst:
		return "const"
	default:
		return fmt.Sprintf("op(%d)", n.op)
	}
}
