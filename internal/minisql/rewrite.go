package minisql

import (
	"fmt"
	"slices"

	"repro/internal/ra"
	"repro/internal/relation"
)

// rewrite is the last step of CompilePlan: the rewrites an optimiser applies
// to a literal lowering, each only under the precondition that makes it
// exact, so every query keeps its answer and the cold evaluator and the IVM
// keep running one plan.
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
//     kinds, becomes a rename, which both executors pass through.
//  5. Filters with the same positional predicates over the same base table,
//     each under its own alias, become one filter over the table's scan with
//     a rename per alias above it: the plan turns into a DAG, and the filter
//     is evaluated, and maintained, once.
//
// Rules 2-4 rewrite nodes in place, so the CTE slots and the root keep their
// pointers; the node list is then rebuilt in evaluation order, without the
// nodes nothing reaches any more.
func (p *Plan) rewrite() {
	consumers := make([][]*planNode, len(p.nodes))
	for _, n := range p.nodes {
		for _, ch := range [2]*planNode{n.l, n.r} {
			if ch != nil {
				consumers[ch.id] = append(consumers[ch.id], n)
			}
		}
	}
	// The root and the CTE bodies have readers outside the node graph.
	exported := make([]bool, len(p.nodes))
	exported[p.root.id] = true
	for _, n := range p.ctes {
		exported[n.id] = true
	}
	// leftOnly: only projections read n, none at or past column width.
	leftOnly := func(n *planNode, width int) bool {
		if exported[n.id] {
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

// renumber rebuilds the node list from the CTE bodies and the root, children
// before parents, each node once; ids follow the new positions.
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
		visit(n.l)
		visit(n.r)
		n.id = len(nodes)
		nodes = append(nodes, n)
	}
	for _, n := range p.ctes {
		visit(n)
	}
	visit(p.root)
	p.nodes = nodes
}
