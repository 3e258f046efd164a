package minisql

import (
	"fmt"
	"slices"

	"repro/internal/ra"
	"repro/internal/relation"
)

// rewrite is the last step of CompilePlan: the rewrites an optimiser applies
// to a literal lowering, each only under the precondition that makes it
// exact, so every query keeps its answer whether the view cache builds it
// once (Run) or maintains it round after round.
//
//  1. (compiler.join) A WHERE conjunct that reads both sides of a comma join
//     is the join's residual, not a filter above it: a filter left above a
//     join materialises every pair it drops.
//  2. A join becomes a semi-join when it is read only by projections of left
//     columns, its right input is duplicate-free (EXCEPT or DISTINCT, seen
//     through renames and CTE scans) and its equi-keys cover every right
//     column: each left row then meets at most one right row, and the pairs
//     projected to the left are the left rows with a match.
//  3. A left join becomes an anti-join when the only filter above it is a
//     non-negated IS NULL on a right key column and that filter is read only
//     by projections of left columns. NULL keys never match, so the key
//     column is NULL exactly in the pad of an unmatched left row.
//  4. A projection onto every child column, in order and with the same
//     kinds, becomes a rename, which the view cache passes through.
//  5. Filters with the same positional predicates over the same base table,
//     each under its own alias, become one filter over the table's scan with
//     a rename per alias above it: the plan turns into a DAG, and the filter
//     is evaluated, and maintained, once.
//  6. A DISTINCT whose duplicates no reader can see becomes a rename. A node
//     is set-read when each of its readers is EXCEPT (either input), a
//     DISTINCT or a semi-/anti-join that reads it as its right input, or
//     passes its rows on — a rename, filter, projection, UNION ALL, inner
//     join, a semi-/anti-join's left input or a CTE scan — to readers that
//     are set-read in turn. Each of those passes a row's presence on and
//     nothing but its count, so the readers at the end ask only whether a
//     row is there. The root and a left join's inputs are never set-read.
//  7. A projection onto columns alone, over rows a base table holds (its
//     scan, or a filter, rename or semi-/anti-join over one), whose only
//     reader is an inner join's input (through renames and CTE scans) while
//     that join is read only by projections, folds into the join: the join
//     reads the projection's input, and its keys, its residual and its
//     readers' items read the columns the projection picked. The view cache
//     then keeps the base table's own rows on that side instead of a copy of
//     each, narrowed (Listing 1's lock views).
//  8. A semi- or anti-join A = S ▷ T whose only reader is an inner join J
//     with at least one equi-key (reached directly or through renames and
//     CTE scans, A on either side of J) moves above J: J(R, A) becomes
//     A'(J(R, S), T). J keeps its keys and residual, since S has A's
//     columns; A' keeps A's kind and its keys and residual, their S columns
//     shifted by |R| when S is J's right input; and A' has J's schema, so
//     J's readers do not change. The reassociation is exact under bag
//     semantics and three-valued logic: a pair (r, s) survives, counted
//     m_r·m_s, on both sides exactly when s has no match in T (some match,
//     for a semi-join). Which side to keep materialised is a heuristic, for
//     the plan has no statistics: a keyed join is taken to be selective, so
//     its output — a key join of the pending requests is pending × matches
//     — is smaller than the anti-join's input, which over a history-derived
//     view is as large as the history. The view cache then keeps the join's
//     output, not a copy of S (Listing 1's lock views: each join reads the
//     history or its write filter, and the anti-joins probe its pairs).
//     The rule runs after rule 7, to a fixpoint, so a chain of anti-joins
//     rises one link at a time.
//  9. A semi-join L ⋉_K E without a residual, where E (through renames and
//     CTE scans) is π(T) EXCEPT B, becomes σ_{k IS NOT NULL, …}(L ▷_K B),
//     one IS NOT NULL per left key column, when L and π(T) are each the rows
//     of one base table narrowed to columns (through renames, CTE scans and
//     projections onto columns; no filter), the same table; every key pairs
//     L's column with the very table column π picked for its E column; the
//     keys cover every E column; and B's columns have E's kinds, so the
//     anti-join's = compares what EXCEPT's row equality compared. An L row
//     whose key columns are all non-NULL then names a row of π(T), which is
//     in E exactly when it is not in B; an L row with a NULL key matches
//     nothing in the semi-join, and the filter drops it. The rewrite is exact
//     under bags (the L row keeps its count either way) and three-valued
//     logic. Listing 1's last step, requests ⋉ (π_{ta,intrata} requests
//     EXCEPT blocked), becomes one anti-join of requests against the blocked
//     arms: the projection, the EXCEPT and their bags go.
//
// Rules 2-4, 6 and 9 rewrite nodes in place, so the CTE slots and the root
// keep their pointers; rules 7 and 8 rewire a join, and rule 8 turns it into
// the lifted semi-/anti-join in place. The node list is then rebuilt from the
// root, without the nodes nothing reads any more — a CTE body among them.
func (p *Plan) rewrite() {
	consumers := p.readers()
	// leftOnly: only projections read n, none at or past column width.
	leftOnly := func(n *planNode, width int) bool {
		if n == p.root {
			return false
		}
		for _, c := range consumers[n.id] {
			if c.op != opProject {
				return false
			}
			for _, it := range c.items {
				if maxCol(it.E) >= width {
					return false
				}
			}
		}
		return true
	}
	// Children precede parents, so a projection sees its child rewritten.
	for _, n := range p.nodes {
		switch n.op {
		case opJoin:
			if p.duplicateFree(n.r) && coversRight(n) && leftOnly(n, n.l.schema.Len()) {
				n.op, n.schema = opSemi, n.l.schema
			}
		case opSelect:
			lj := n.l
			if lj.op == opLeftJoin && len(consumers[lj.id]) == 1 && isNullOnRightKey(n, lj) && leftOnly(n, lj.l.schema.Len()) {
				*n = planNode{
					op: opSemi, id: n.id, schema: lj.l.schema, l: lj.l, r: lj.r,
					keys: lj.keys, pred: lj.pred, anti: true,
				}
			}
		case opProject:
			if isIdentity(n) {
				n.op, n.names, n.items = opRename, columnNames(n.schema), nil
			}
		}
	}
	p.shareFilters()
	p.renumber()
	p.dropSetReadDistincts()
	for p.foldProjection() {
		p.renumber()
	}
	for p.liftSemiJoin() {
		p.renumber()
	}
	p.exceptsToAntiJoins()
	p.renumber()
}

// readers lists, by node id, the nodes that read each node: its parents,
// and for a CTE body the scans of its slot.
func (p *Plan) readers() [][]*planNode {
	rs := make([][]*planNode, len(p.nodes))
	for _, n := range p.nodes {
		for _, ch := range [2]*planNode{n.l, n.r} {
			if ch != nil {
				rs[ch.id] = append(rs[ch.id], n)
			}
		}
		if n.op == opScan && n.cte >= 0 {
			body := p.ctes[n.cte]
			rs[body.id] = append(rs[body.id], n)
		}
	}
	return rs
}

// dropSetReadDistincts applies rule 6.
func (p *Plan) dropSetReadDistincts() {
	rs := p.readers()
	setRead := make([]bool, len(p.nodes))
	// Every reader follows what it reads in the node list, so a backward walk
	// decides a node's readers before the node.
	for i := len(p.nodes) - 1; i >= 0; i-- {
		n := p.nodes[i]
		ok := n != p.root && len(rs[i]) > 0
		for _, c := range rs[i] {
			ok = ok && readsAsSet(c, n, setRead)
		}
		setRead[i] = ok
	}
	for _, n := range p.nodes {
		if n.op == opDistinct && setRead[n.id] {
			n.op, n.names = opRename, columnNames(n.schema)
		}
	}
}

// readsAsSet: reader c asks only whether each row of n is present, or passes
// n's rows on to readers that do (setRead, by node id).
func readsAsSet(c, n *planNode, setRead []bool) bool {
	switch c.op {
	case opExcept, opDistinct:
		return true
	case opSemi:
		return c.l != n || setRead[c.id]
	case opRename, opSelect, opProject, opUnionAll, opJoin, opScan:
		return setRead[c.id]
	}
	return false
}

// foldProjection applies rule 7 to the first projection it fits and reports
// whether there was one.
func (p *Plan) foldProjection() bool {
	rs := p.readers()
	for _, n := range p.nodes {
		if n.op != opProject || !columnsOnly(n) || !p.emitsHeld(n.l) {
			continue
		}
		// Climb n's one reader at a time through renames and CTE scans.
		from := n
		for len(rs[from.id]) == 1 {
			c := rs[from.id][0]
			if c.op == opJoin {
				if c != p.root && !slices.ContainsFunc(rs[c.id], func(r *planNode) bool { return r.op != opProject }) {
					foldInto(c, n, c.r == from, rs[c.id])
					return true
				}
				break
			}
			if c.op != opRename && c.op != opScan {
				break
			}
			from = c
		}
	}
	return false
}

// columnsOnly: every item of projection n is one of its input's columns,
// with that column's kind.
func columnsOnly(n *planNode) bool {
	for _, it := range n.items {
		c, ok := it.E.(ra.Col)
		if !ok || it.Kind != n.l.schema.Col(c.Pos).Kind {
			return false
		}
	}
	return true
}

// emitsHeld: n's rows are a base table's own rows — its scan, or a filter,
// rename or semi-/anti-join over rows that are, seen through CTE scans.
func (p *Plan) emitsHeld(n *planNode) bool {
	for {
		switch {
		case n.op == opScan && n.cte < 0:
			return true
		case n.op == opScan:
			n = p.ctes[n.cte]
		case n.op == opSelect, n.op == opRename, n.op == opSemi:
			n = n.l
		default:
			return false
		}
	}
}

// foldInto makes join j read the input of projection proj, which reached j
// as its right input when right and its left one otherwise, and rewrites
// what reads j's columns — its keys, its residual and the items of its
// readers, all projections — to the columns proj picked, under the names the
// new join schema gives them.
func foldInto(j, proj *planNode, right bool, readers []*planNode) {
	picked := func(i int) int { return proj.items[i].E.(ra.Col).Pos }
	oldL := j.l.schema.Len()
	keys := slices.Clone(j.keys)
	if right {
		j.r = proj.l
		for i := range keys {
			keys[i].R = picked(keys[i].R)
		}
	} else {
		j.l = proj.l
		for i := range keys {
			keys[i].L = picked(keys[i].L)
		}
	}
	j.keys, j.schema = keys, joinSchema(j.l.schema, j.r.schema)
	newL := j.l.schema.Len()
	remap := func(e ra.Expr) ra.Expr {
		return ra.MapCols(e, func(c ra.Col) ra.Col {
			pos := c.Pos
			switch {
			case right && pos >= oldL:
				pos = oldL + picked(pos-oldL)
			case !right && pos < oldL:
				pos = picked(pos)
			case !right:
				pos += newL - oldL
			}
			return ra.Col{Pos: pos, Name: j.schema.Col(pos).Name}
		})
	}
	if j.pred != nil {
		j.pred = remap(j.pred)
	}
	for _, r := range readers {
		for i := range r.items {
			r.items[i].E = remap(r.items[i].E)
		}
	}
}

// liftSemiJoin applies rule 8 to the first semi- or anti-join it fits and
// reports whether there was one.
func (p *Plan) liftSemiJoin() bool {
	rs := p.readers()
	for _, a := range p.nodes {
		if a.op != opSemi {
			continue
		}
		// Climb a's one reader at a time through renames and CTE scans.
		from := a
		for len(rs[from.id]) == 1 {
			c := rs[from.id][0]
			if c.op == opJoin {
				if len(c.keys) > 0 {
					p.lift(a, rs[a.id][0], c, c.r == from)
					return true
				}
				break
			}
			if c.op != opRename && c.op != opScan {
				break
			}
			from = c
		}
	}
	return false
}

// lift moves semi-/anti-join a above join j, which reads it as its right
// input when right and its left one otherwise. first is a's one reader: j,
// or the rename or CTE scan that starts the path up to j. first is rewired
// to read a's left input, and j becomes the lifted semi-/anti-join in place,
// over a new join with j's inputs, keys and residual.
func (p *Plan) lift(a, first, j *planNode, right bool) {
	s, width := a.l, a.l.schema.Len()
	switch {
	case first.op == opScan:
		p.ctes[first.cte] = s
	case first.l == a:
		first.l = s
	default:
		first.r = s
	}
	inner := &planNode{op: opJoin, id: -1, schema: j.schema, l: j.l, r: j.r, keys: j.keys, pred: j.pred}
	shift := 0
	if right {
		shift = j.l.schema.Len()
	}
	keys := slices.Clone(a.keys)
	for i := range keys {
		keys[i].L += shift
	}
	var pred ra.Expr
	if a.pred != nil {
		both := joinSchema(j.schema, a.r.schema)
		pred = ra.MapCols(a.pred, func(c ra.Col) ra.Col {
			pos := c.Pos + shift
			if c.Pos >= width {
				pos = c.Pos - width + j.schema.Len()
			}
			return ra.Col{Pos: pos, Name: both.Col(pos).Name}
		})
	}
	*j = planNode{op: opSemi, id: j.id, schema: j.schema, l: inner, r: a.r, keys: keys, pred: pred, anti: a.anti}
}

// exceptsToAntiJoins applies rule 9.
func (p *Plan) exceptsToAntiJoins() {
	for _, n := range p.nodes {
		if n.op != opSemi || n.anti || n.pred != nil {
			continue
		}
		e := n.r
		for e.op == opRename || e.op == opScan && e.cte >= 0 {
			if e.op == opScan {
				e = p.ctes[e.cte]
			} else {
				e = e.l
			}
		}
		if e.op != opExcept {
			continue
		}
		lScan, lCols := p.tableColumns(n.l)
		tScan, tCols := p.tableColumns(e.l)
		if lScan == nil || tScan == nil || lScan.table != tScan.table {
			continue
		}
		covered := make([]bool, len(tCols))
		fits := true
		for _, k := range n.keys {
			fits = fits && lCols[k.L] == tCols[k.R]
			covered[k.R] = true
		}
		for j, c := range covered {
			fits = fits && c && e.r.schema.Col(j).Kind == e.schema.Col(j).Kind
		}
		if !fits {
			continue
		}
		var preds []ra.Expr
		for i, k := range n.keys {
			if !slices.ContainsFunc(n.keys[:i], func(o ra.EquiKey) bool { return o.L == k.L }) {
				col := ra.Col{Pos: k.L, Name: n.l.schema.Col(k.L).Name}
				preds = append(preds, ra.IsNull{E: col, Negate: true})
			}
		}
		anti := &planNode{op: opSemi, id: -1, schema: n.schema, l: n.l, r: e.r, keys: n.keys, anti: true}
		*n = planNode{op: opSelect, id: n.id, schema: n.schema, l: anti, preds: preds}
	}
}

// tableColumns: n's rows are a base table's rows narrowed to columns, seen
// through renames, CTE scans and projections onto columns. It returns the
// table's scan and, for each column of n, the table column it holds; nil
// when n is anything else (a filter, a join, ...).
func (p *Plan) tableColumns(n *planNode) (*planNode, []int) {
	switch {
	case n.op == opScan && n.cte < 0:
		cols := make([]int, n.schema.Len())
		for i := range cols {
			cols[i] = i
		}
		return n, cols
	case n.op == opScan:
		return p.tableColumns(p.ctes[n.cte])
	case n.op == opRename:
		return p.tableColumns(n.l)
	case n.op == opProject && columnsOnly(n):
		scan, inner := p.tableColumns(n.l)
		if scan == nil {
			return nil, nil
		}
		cols := make([]int, len(n.items))
		for i, it := range n.items {
			cols[i] = inner[it.E.(ra.Col).Pos]
		}
		return scan, cols
	}
	return nil, nil
}

// isNullOnRightKey: s's one predicate is `col IS NULL` on a right column of
// left join lj that is one of its equi-keys.
func isNullOnRightKey(s, lj *planNode) bool {
	if len(s.preds) != 1 {
		return false
	}
	in, ok := s.preds[0].(ra.IsNull)
	if !ok || in.Negate {
		return false
	}
	col, ok := in.E.(ra.Col)
	width := lj.l.schema.Len()
	return ok && col.Pos >= width &&
		slices.ContainsFunc(lj.keys, func(k ra.EquiKey) bool { return k.R == col.Pos-width })
}

// duplicateFree: n, seen through renames and CTE scans, is an EXCEPT or a
// DISTINCT.
func (p *Plan) duplicateFree(n *planNode) bool {
	for {
		switch {
		case n.op == opRename:
			n = n.l
		case n.op == opScan && n.cte >= 0:
			n = p.ctes[n.cte]
		default:
			return n.op == opExcept || n.op == opDistinct
		}
	}
}

// coversRight: join j's equi-keys name every column of its right input.
func coversRight(j *planNode) bool {
	covered := make([]bool, j.r.schema.Len())
	for _, k := range j.keys {
		covered[k.R] = true
	}
	return !slices.Contains(covered, false)
}

// isIdentity: projection n emits its child's columns unchanged, in order.
func isIdentity(n *planNode) bool {
	if len(n.items) != n.l.schema.Len() {
		return false
	}
	for i, it := range n.items {
		c, ok := it.E.(ra.Col)
		if !ok || c.Pos != i || it.Kind != n.l.schema.Col(i).Kind {
			return false
		}
	}
	return true
}

// maxCol returns the highest column position e reads, -1 for none.
func maxCol(e ra.Expr) int {
	hi := -1
	ra.MapCols(e, func(c ra.Col) ra.Col {
		hi = max(hi, c.Pos)
		return c
	})
	return hi
}

// shareFilters applies rule 5: filters over the same base table, each
// through its own renames, whose predicates agree position by position
// become renames of one filter over the table's scan.
func (p *Plan) shareFilters() {
	groups := map[string][]*planNode{}
	var keys []string
	for _, n := range p.nodes {
		if n.op != opSelect {
			continue
		}
		scan := belowRenames(n.l)
		if scan.op != opScan || scan.cte >= 0 {
			continue
		}
		positional := make([]ra.Expr, len(n.preds))
		for i, e := range n.preds {
			positional[i] = ra.MapCols(e, func(c ra.Col) ra.Col { return ra.Col{Pos: c.Pos} })
		}
		key := fmt.Sprintf("%s %#v", scan.table, positional)
		if groups[key] == nil {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], n)
	}
	for _, key := range keys {
		g := groups[key]
		if len(g) < 2 {
			continue
		}
		scan := belowRenames(g[0].l)
		preds := make([]ra.Expr, len(g[0].preds))
		for i, e := range g[0].preds {
			preds[i] = ra.MapCols(e, func(c ra.Col) ra.Col { return ra.Col{Pos: c.Pos, Name: scan.schema.Col(c.Pos).Name} })
		}
		shared := &planNode{op: opSelect, id: -1, schema: scan.schema, l: scan, preds: preds}
		for _, s := range g {
			s.op, s.names, s.preds, s.l = opRename, columnNames(s.schema), nil, shared
		}
	}
}

func belowRenames(n *planNode) *planNode {
	for n.op == opRename {
		n = n.l
	}
	return n
}

func columnNames(s *relation.Schema) []string {
	names := make([]string, s.Len())
	for i := range names {
		names[i] = s.Col(i).Name
	}
	return names
}

// renumber rebuilds the node list from the root, children before parents
// and a CTE body before its scans, each node once; ids follow the new
// positions. A node the root does not reach, directly or through CTE scans —
// an unread CTE body among them — keeps id -1 and is neither evaluated nor
// maintained.
func (p *Plan) renumber() {
	for _, n := range p.nodes {
		n.id = -1
	}
	nodes := make([]*planNode, 0, len(p.nodes))
	var visit func(n *planNode)
	visit = func(n *planNode) {
		if n == nil || n.id >= 0 {
			return
		}
		if n.op == opScan && n.cte >= 0 {
			visit(p.ctes[n.cte])
		}
		visit(n.l)
		visit(n.r)
		n.id = len(nodes)
		nodes = append(nodes, n)
	}
	visit(p.root)
	p.nodes = nodes
}
