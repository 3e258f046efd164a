package minisql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The plan rewrites (rewrite.go) are checked against Go loops that never see
// a plan, and against the interpreter, which never sees one either: random
// queries of each rewritten shape, and near misses that must keep their
// literal lowering, over the tables t1, t2 (ints) and t3 (NULLs in b and c).

// rewriteCase is one generated query with its meaning in Go.
type rewriteCase struct {
	shape     string
	src       string
	rewritten bool             // whether the plan must show the rewrite
	applied   func(*Plan) bool // whether it does
	want      func(db map[string][]relation.Tuple) []relation.Tuple
}

var rewriteShapes = []func(*rand.Rand) rewriteCase{
	rwResidual, rwSemiJoin, rwAntiJoin, rwIdentity, rwSharedFilter, rwSetRead, rwFold, rwLift, rwExceptAnti,
}

// sqlEq is an equi-join key match: NULL matches nothing.
func sqlEq(a, b relation.Value) bool { return cmpTV(a, "=", b) == tvTrue }

// distinctRows drops repeated tuples, keeping first occurrences.
func distinctRows(rows []relation.Tuple) []relation.Tuple {
	seen := map[string]bool{}
	var out []relation.Tuple
	for _, t := range rows {
		if k := t.String(); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

func hasNode(p *Plan, f func(n *planNode) bool) bool { return countNodes(p, f) > 0 }

func countNodes(p *Plan, f func(n *planNode) bool) int {
	k := 0
	for _, n := range p.nodes {
		if f(n) {
			k++
		}
	}
	return k
}

// setOf drops repeated tuples and those in minus: SQL EXCEPT.
func setOf(rows, minus []relation.Tuple) []relation.Tuple {
	drop := map[string]bool{}
	for _, t := range minus {
		drop[t.String()] = true
	}
	var out []relation.Tuple
	for _, t := range distinctRows(rows) {
		if !drop[t.String()] {
			out = append(out, t)
		}
	}
	return out
}

// rwResidual: a comma join whose WHERE compares the two sides beyond the
// equi-key (rule 1). Always rewritten: the comparison must be the join's
// residual and no filter may sit directly above the join.
func rwResidual(rng *rand.Rand) rewriteCase {
	cols := []string{"a", "b", "c"}
	zc, xc := 1+rng.Intn(2), rng.Intn(3)
	op := cmpOps[1+rng.Intn(len(cmpOps)-1)] // not "=": never a key
	atoms := []corrAtom{{
		sql:  fmt.Sprintf("z.%s %s x.%s", cols[zc], op, cols[xc]),
		eval: func(x, z relation.Tuple) tv { return cmpTV(z[zc], op, x[xc]) },
	}}
	if rng.Intn(4) > 0 {
		atoms = append(atoms, randCorrAtom(rng, true))
	}
	for k := rng.Intn(3); k > 0; k-- {
		atoms = append(atoms, randCorrAtom(rng, false))
	}
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	where := make([]string, len(atoms))
	for i, a := range atoms {
		where[i] = a.sql
	}
	return rewriteCase{
		shape:     "residual",
		src:       "SELECT x.a, x.b, z.c FROM t1 x, t3 z WHERE " + strings.Join(where, " AND "),
		rewritten: true,
		applied: func(p *Plan) bool {
			return !hasNode(p, func(n *planNode) bool { return n.op == opSelect && n.l.op == opJoin }) &&
				hasNode(p, func(n *planNode) bool { return n.op == opJoin && n.pred != nil })
		},
		want: func(db map[string][]relation.Tuple) []relation.Tuple {
			var out []relation.Tuple
			for _, x := range db["t1"] {
				for _, z := range db["t3"] {
					pass := true
					for _, a := range atoms {
						pass = pass && a.eval(x, z) == tvTrue
					}
					if pass {
						out = append(out, relation.Tuple{x[0], x[1], z[2]})
					}
				}
			}
			return out
		},
	}
}

// rwSemiJoin: t1 joined with a two-column subquery (rule 2). Near misses: a
// right side with duplicates, keys that miss a right column, a projection
// that reads a right column.
func rwSemiJoin(rng *rand.Rand) rewriteCase {
	k := int64(rng.Intn(8))
	kind := rng.Intn(4) // DISTINCT, EXCEPT, DISTINCT through a CTE, duplicates
	cover, leftOnly, residual := rng.Intn(3) > 0, rng.Intn(3) > 0, rng.Intn(2) == 0
	var with, right string
	switch kind {
	case 0:
		right = fmt.Sprintf("(SELECT DISTINCT z.a, z.b FROM t3 z WHERE z.c >= %d) y", k)
	case 1:
		right = fmt.Sprintf("((SELECT z.a, z.b FROM t3 z) EXCEPT (SELECT w.a, w.b FROM t2 w WHERE w.c < %d)) y", k)
	case 2:
		with, right = fmt.Sprintf("WITH d AS (SELECT DISTINCT z.a, z.b FROM t3 z WHERE z.c >= %d) ", k), "d y"
	default:
		right = fmt.Sprintf("(SELECT z.a, z.b FROM t3 z WHERE z.c >= %d) y", k)
	}
	conds := []string{"x.a = y.a"}
	if cover {
		conds = append(conds, "x.b = y.b")
	}
	if residual {
		conds = append(conds, "x.c > y.a")
	}
	proj := "x.a, x.b, x.c"
	if !leftOnly {
		proj = "x.a, y.b"
	}
	from := "t1 x, " + right + " WHERE " + strings.Join(conds, " AND ")
	if rng.Intn(2) == 0 {
		from = "t1 x JOIN " + right + " ON " + strings.Join(conds, " AND ")
	}
	return rewriteCase{
		shape:     "semi-join",
		src:       with + "SELECT " + proj + " FROM " + from,
		rewritten: kind != 3 && cover && leftOnly,
		applied:   func(p *Plan) bool { return hasNode(p, func(n *planNode) bool { return n.op == opSemi }) },
		want: func(db map[string][]relation.Tuple) []relation.Tuple {
			var ys []relation.Tuple
			for _, z := range db["t3"] {
				if kind == 1 || cmpTV(z[2], ">=", relation.Int(k)) == tvTrue {
					ys = append(ys, relation.Tuple{z[0], z[1]})
				}
			}
			if kind != 3 {
				ys = distinctRows(ys)
			}
			if kind == 1 {
				drop := map[string]bool{}
				for _, w := range db["t2"] {
					if cmpTV(w[2], "<", relation.Int(k)) == tvTrue {
						drop[relation.Tuple{w[0], w[1]}.String()] = true
					}
				}
				kept := ys[:0]
				for _, y := range ys {
					if !drop[y.String()] {
						kept = append(kept, y)
					}
				}
				ys = kept
			}
			var out []relation.Tuple
			for _, x := range db["t1"] {
				for _, y := range ys {
					if !sqlEq(x[0], y[0]) || cover && !sqlEq(x[1], y[1]) ||
						residual && cmpTV(x[2], ">", y[0]) != tvTrue {
						continue
					}
					if leftOnly {
						out = append(out, x)
					} else {
						out = append(out, relation.Tuple{x[0], y[1]})
					}
				}
			}
			return out
		},
	}
}

// rwAntiJoin: t1 LEFT JOIN t3 (or a filtered subquery of it) under an IS
// NULL test (rule 3). Near misses: IS NULL on a right column that is not a
// key, IS NOT NULL, a projection that reads a right column. The key may be
// t3's NULL-able b.
func rwAntiJoin(rng *rand.Rand) rewriteCase {
	cols := []string{"a", "b", "c"}
	xc, fc := rng.Intn(3), rng.Intn(2)
	tc := fc // the column the WHERE tests
	if rng.Intn(3) == 0 {
		tc = []int{1, 2, 0}[fc+rng.Intn(2)] // another column of f
	}
	negate, leftOnly := rng.Intn(5) == 0, rng.Intn(3) > 0
	k, k2 := int64(rng.Intn(8)), int64(rng.Intn(8))
	sub := rng.Intn(2) == 0
	right := "t3 f"
	if sub {
		right = fmt.Sprintf("(SELECT z.a, z.b, z.c FROM t3 z WHERE z.c <> %d) AS f", k)
	}
	extra, extraEval := "", func(x, f relation.Tuple) bool { return true }
	switch rng.Intn(3) {
	case 0:
		extra, extraEval = " AND x.b <> f.c", func(x, f relation.Tuple) bool { return cmpTV(x[1], "<>", f[2]) == tvTrue }
	case 1:
		extra = fmt.Sprintf(" AND f.c >= %d", k2)
		extraEval = func(x, f relation.Tuple) bool { return cmpTV(f[2], ">=", relation.Int(k2)) == tvTrue }
	}
	test := "IS NULL"
	if negate {
		test = "IS NOT NULL"
	}
	proj := "x.a, x.b, x.c"
	if !leftOnly {
		proj = "x.a, f.c"
	}
	return rewriteCase{
		shape: "anti-join",
		src: fmt.Sprintf("SELECT %s FROM t1 x LEFT JOIN %s ON x.%s = f.%s%s WHERE f.%s %s",
			proj, right, cols[xc], cols[fc], extra, cols[tc], test),
		rewritten: tc == fc && !negate && leftOnly,
		applied:   func(p *Plan) bool { return hasNode(p, func(n *planNode) bool { return n.op == opSemi && n.anti }) },
		want: func(db map[string][]relation.Tuple) []relation.Tuple {
			var fs []relation.Tuple
			for _, z := range db["t3"] {
				if !sub || cmpTV(z[2], "<>", relation.Int(k)) == tvTrue {
					fs = append(fs, z)
				}
			}
			var out []relation.Tuple
			for _, x := range db["t1"] {
				var matched []relation.Tuple
				for _, f := range fs {
					if sqlEq(x[xc], f[fc]) && extraEval(x, f) {
						matched = append(matched, f)
					}
				}
				if len(matched) == 0 {
					matched = []relation.Tuple{{relation.Null(), relation.Null(), relation.Null()}}
				}
				for _, f := range matched {
					if f[tc].IsNull() == negate {
						continue
					}
					if leftOnly {
						out = append(out, x)
					} else {
						out = append(out, relation.Tuple{x[0], f[2]})
					}
				}
			}
			return out
		},
	}
}

// rwIdentity: a projection onto every child column in order (rule 4), over a
// filter. Near misses: reordered columns and a subset.
func rwIdentity(rng *rand.Rand) rewriteCase {
	op, k := cmpOps[rng.Intn(len(cmpOps))], int64(rng.Intn(6))
	where := fmt.Sprintf(" FROM t1 x WHERE x.b %s %d", op, k)
	filtered := func(db map[string][]relation.Tuple, emit func(x relation.Tuple)) {
		for _, x := range db["t1"] {
			if cmpTV(x[1], op, relation.Int(k)) == tvTrue {
				emit(x)
			}
		}
	}
	c := rewriteCase{
		shape: "rename",
		applied: func(p *Plan) bool {
			n := p.root
			for n.op == opOrderBy || n.op == opDistinct {
				n = n.l
			}
			return n.op == opRename
		},
	}
	switch rng.Intn(4) {
	case 0, 1:
		c.src, c.rewritten = "SELECT x.a, x.b, x.c"+where, true
		c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			filtered(db, func(x relation.Tuple) { out = append(out, x) })
			return out
		}
	case 2:
		c.src = "SELECT x.b, x.a, x.c" + where
		c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			filtered(db, func(x relation.Tuple) { out = append(out, relation.Tuple{x[1], x[0], x[2]}) })
			return out
		}
	default:
		c.src = "SELECT x.a, x.b" + where
		c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			filtered(db, func(x relation.Tuple) { out = append(out, relation.Tuple{x[0], x[1]}) })
			return out
		}
	}
	return c
}

// rwSharedFilter: the same filter over t1 under two aliases (rule 5), in a
// self-join or on both sides of a NOT EXISTS. Near misses: a different
// constant, a different column.
func rwSharedFilter(rng *rand.Rand) rewriteCase {
	cols := []string{"a", "b", "c"}
	col, op, k := rng.Intn(3), cmpOps[rng.Intn(len(cmpOps))], int64(rng.Intn(6))
	col2, k2 := col, k
	shared := rng.Intn(3) > 0
	if !shared {
		if rng.Intn(2) == 0 {
			k2++
		} else {
			col2 = (col + 1) % 3
		}
	}
	first := func(x relation.Tuple) bool { return cmpTV(x[col], op, relation.Int(k)) == tvTrue }
	second := func(y relation.Tuple) bool { return cmpTV(y[col2], op, relation.Int(k2)) == tvTrue }
	c := rewriteCase{
		shape:     "shared filter",
		rewritten: shared,
		applied: func(p *Plan) bool {
			selects := 0
			for _, n := range p.nodes {
				if n.op != opSelect {
					continue
				}
				if scan := belowRenames(n.l); scan.op == opScan && scan.table == "t1" {
					selects++
				}
			}
			return selects == 1
		},
	}
	if rng.Intn(2) == 0 {
		c.src = fmt.Sprintf("SELECT x.a, x.b, y.c FROM t1 x, t1 y WHERE x.a = y.b AND x.%s %s %d AND y.%s %s %d",
			cols[col], op, k, cols[col2], op, k2)
		c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			for _, x := range db["t1"] {
				for _, y := range db["t1"] {
					if sqlEq(x[0], y[1]) && first(x) && second(y) {
						out = append(out, relation.Tuple{x[0], x[1], y[2]})
					}
				}
			}
			return out
		}
		return c
	}
	c.src = fmt.Sprintf("SELECT x.a, x.b, x.c FROM t1 x WHERE x.%s %s %d AND NOT EXISTS (SELECT * FROM t1 z WHERE z.a = x.b AND z.%s %s %d)",
		cols[col], op, k, cols[col2], op, k2)
	c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
		for _, x := range db["t1"] {
			exists := false
			for _, z := range db["t1"] {
				exists = exists || sqlEq(z[0], x[1]) && second(z)
			}
			if first(x) && !exists {
				out = append(out, x)
			}
		}
		return out
	}
	return c
}

// rwSetRead: a DISTINCT, d, of t3's (a, b) pairs whose duplicates no reader
// sees (rule 6): read through a join and a projection by an EXCEPT's right
// input (Listing 1's WLockedObjects, where rule 7 then folds d's projection
// into the join), by an EXCEPT's left input, by an outer DISTINCT, or as a
// semi- or anti-join's right input. Near misses: d read by the root, by a
// root UNION ALL, and as a left join's right input under an EXCEPT.
func rwSetRead(rng *rand.Rand) rewriteCase {
	k := int64(rng.Intn(8))
	kind := rng.Intn(8)
	with := fmt.Sprintf("WITH d AS (SELECT DISTINCT z.a, z.b FROM t3 z WHERE z.c >= %d) ", k)
	ds := func(db map[string][]relation.Tuple) (out []relation.Tuple) {
		for _, z := range db["t3"] {
			if cmpTV(z[2], ">=", relation.Int(k)) == tvTrue {
				out = append(out, relation.Tuple{z[0], z[1]})
			}
		}
		return distinctRows(out)
	}
	cols := func(rows []relation.Tuple, pos ...int) (out []relation.Tuple) {
		for _, r := range rows {
			t := make(relation.Tuple, len(pos))
			for i, p := range pos {
				t[i] = r[p]
			}
			out = append(out, t)
		}
		return out
	}
	// joined: y.a and d.b over t2 y, d on y.b = d.a.
	joined := func(db map[string][]relation.Tuple) (out []relation.Tuple) {
		for _, y := range db["t2"] {
			for _, d := range ds(db) {
				if sqlEq(y[1], d[0]) {
					out = append(out, relation.Tuple{y[0], d[1]})
				}
			}
		}
		return out
	}
	c := rewriteCase{shape: "set-read distinct", rewritten: kind < 5}
	keep := 0 // DISTINCTs the plan keeps beside d's
	switch kind {
	case 0:
		c.src = with + "(SELECT x.a, x.c FROM t1 x) EXCEPT (SELECT y.a, d.b FROM t2 y, d WHERE y.b = d.a)"
		c.want = func(db map[string][]relation.Tuple) []relation.Tuple {
			return setOf(cols(db["t1"], 0, 2), joined(db))
		}
	case 1:
		c.src = with + "(SELECT e.b, e.a FROM d e) EXCEPT (SELECT y.a, y.b FROM t2 y)"
		c.want = func(db map[string][]relation.Tuple) []relation.Tuple {
			return setOf(cols(ds(db), 1, 0), cols(db["t2"], 0, 1))
		}
	case 2:
		c.src, keep = with+"SELECT DISTINCT y.a, d.b FROM t2 y, d WHERE y.b = d.a", 1
		c.want = func(db map[string][]relation.Tuple) []relation.Tuple { return distinctRows(joined(db)) }
	case 3, 4:
		not, exists := kind == 4, "EXISTS"
		if not {
			exists = "NOT EXISTS"
		}
		c.src = with + "SELECT x.a, x.b, x.c FROM t1 x WHERE " + exists + " (SELECT * FROM d e WHERE e.a = x.b AND e.b <> x.c)"
		c.want = func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			for _, x := range db["t1"] {
				found := false
				for _, e := range ds(db) {
					found = found || sqlEq(e[0], x[1]) && cmpTV(e[1], "<>", x[2]) == tvTrue
				}
				if found != not {
					out = append(out, x)
				}
			}
			return out
		}
	case 5:
		c.src = fmt.Sprintf("SELECT DISTINCT z.a, z.b FROM t3 z WHERE z.c >= %d", k)
		c.want = ds
	case 6:
		c.src = with + "(SELECT e.a, e.b FROM d e) UNION ALL (SELECT y.a, y.b FROM t2 y)"
		c.want = func(db map[string][]relation.Tuple) []relation.Tuple {
			return append(ds(db), cols(db["t2"], 0, 1)...)
		}
	default:
		c.src = with + "(SELECT x.a, x.c FROM t1 x) EXCEPT (SELECT x.a, e.b FROM t1 x LEFT JOIN d e ON x.b = e.a)"
		c.want = func(db map[string][]relation.Tuple) []relation.Tuple {
			var right []relation.Tuple
			for _, x := range db["t1"] {
				matched := false
				for _, e := range ds(db) {
					if sqlEq(x[1], e[0]) {
						matched = true
						right = append(right, relation.Tuple{x[0], e[1]})
					}
				}
				if !matched {
					right = append(right, relation.Tuple{x[0], relation.Null()})
				}
			}
			return setOf(cols(db["t1"], 0, 2), right)
		}
	}
	c.applied = func(p *Plan) bool {
		return countNodes(p, func(n *planNode) bool { return n.op == opDistinct }) == keep
	}
	return c
}

// rwFold: v, a projection of t3's filtered rows onto columns (c, a), joined
// with t1 on x.b = v.a and read by the root's projection (rule 7) — as the
// join's right input, its left one, or a CTE; v's rows may pass an
// anti-join first. Near misses: v computes an item, or has a NULL one; the
// join is read by a semi-join; v projects a join's built rows; the CTE v is
// read twice.
func rwFold(rng *rand.Rand) rewriteCase {
	k, kind := int64(rng.Intn(8)), rng.Intn(8)
	anti, residual := rng.Intn(2) == 0, rng.Intn(2) == 0
	where := fmt.Sprintf("z.b >= %d", k)
	if anti {
		where += " AND NOT EXISTS (SELECT * FROM t2 w WHERE w.a = z.a)"
	}
	items, from := "z.c, z.a", "t3 z"
	switch kind {
	case 3:
		items = "z.c + 1 AS c, z.a"
	case 4:
		items = "z.c, z.a, NULL AS n"
	case 6:
		items, from, where = "z.c, y.a", "t3 z, t2 y", "z.a = y.b AND "+where
	}
	v := "SELECT " + items + " FROM " + from + " WHERE " + where
	conds := "x.b = v.a"
	if residual {
		conds += " AND x.c <> v.c"
	}
	var src string
	switch kind {
	case 1:
		src = "SELECT x.a, v.c FROM (" + v + ") v, t1 x WHERE " + conds
	case 2:
		src = "WITH v AS (" + v + ") SELECT x.a, v.c FROM t1 x, v WHERE " + conds
	case 5:
		src = "SELECT x.a, v.c FROM t1 x, (" + v + ") v WHERE " + conds + " AND EXISTS (SELECT * FROM t2 w WHERE w.a = x.c)"
	case 7:
		src = "WITH v AS (" + v + ") SELECT x.a, v.c FROM t1 x, v WHERE " + conds + " AND NOT EXISTS (SELECT * FROM v u WHERE u.a = x.c)"
	default:
		src = "SELECT x.a, v.c FROM t1 x, (" + v + ") v WHERE " + conds
	}
	vs := func(db map[string][]relation.Tuple) (out []relation.Tuple) {
		for _, z := range db["t3"] {
			if cmpTV(z[1], ">=", relation.Int(k)) != tvTrue {
				continue
			}
			if anti && slices.ContainsFunc(db["t2"], func(w relation.Tuple) bool { return sqlEq(w[0], z[0]) }) {
				continue
			}
			switch kind {
			case 3:
				c := relation.Null()
				if !z[2].IsNull() {
					c = relation.Int(z[2].AsInt() + 1)
				}
				out = append(out, relation.Tuple{c, z[0]})
			case 6:
				for _, y := range db["t2"] {
					if sqlEq(z[0], y[1]) {
						out = append(out, relation.Tuple{z[2], y[0]})
					}
				}
			default:
				out = append(out, relation.Tuple{z[2], z[0]})
			}
		}
		return out
	}
	return rewriteCase{
		shape:     "fold projection",
		src:       src,
		rewritten: kind < 3,
		// Folded, the root's projection is the only one left.
		applied: func(p *Plan) bool { return countNodes(p, func(n *planNode) bool { return n.op == opProject }) == 1 },
		want: func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			rows := vs(db)
			for _, x := range db["t1"] {
				if kind == 5 && !slices.ContainsFunc(db["t2"], func(w relation.Tuple) bool { return sqlEq(w[0], x[2]) }) {
					continue
				}
				if kind == 7 && slices.ContainsFunc(rows, func(u relation.Tuple) bool { return sqlEq(u[1], x[2]) }) {
					continue
				}
				for _, r := range rows {
					if sqlEq(x[1], r[1]) && (!residual || cmpTV(x[2], "<>", r[0]) == tvTrue) {
						out = append(out, relation.Tuple{x[0], r[0]})
					}
				}
			}
			return out
		},
	}
}

// rwLift: v, t3's rows that pass a semi- or anti-join against t2 (with or
// without a residual) and optionally a second one against t1, read by an
// inner join with t1 on x.a = v.a as its right input, its left one or a CTE
// (rule 8). v's items are t3's columns (a rename) or (c, a) (a projection
// rule 7 folds first). Near misses: v read twice, by a left join, by a
// semi-join, by the root, and a join without an equi-key.
func rwLift(rng *rand.Rand) rewriteCase {
	kind := rng.Intn(9) // 0-3 lift; 4 twice, 5 left join, 6 semi-join, 7 root, 8 no key
	anti1, anti2, chained := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	res1, res2, jres := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	exists := func(anti bool) string {
		if anti {
			return "NOT EXISTS"
		}
		return "EXISTS"
	}
	cond := exists(anti1) + " (SELECT * FROM t2 w WHERE w.a = z.b"
	if res1 {
		cond += " AND w.c > z.c"
	}
	cond += ")"
	if chained {
		cond += " AND " + exists(anti2) + " (SELECT * FROM t1 u WHERE u.c = z.a"
		if res2 {
			cond += " AND u.b < z.c"
		}
		cond += ")"
	}
	items, narrow := "z.a, z.b, z.c", rng.Intn(2) == 0
	if narrow {
		items = "z.c, z.a"
	}
	v := "SELECT " + items + " FROM t3 z WHERE " + cond
	on := "x.a = v.a"
	if jres {
		on += " AND x.b <> v.c"
	}
	var src string
	switch kind {
	case 0, 1:
		src = "SELECT x.a, x.b, v.c FROM t1 x, (" + v + ") v WHERE " + on
	case 2:
		src = "SELECT x.a, x.b, v.c FROM (" + v + ") v, t1 x WHERE " + on
	case 3:
		src = "WITH v AS (" + v + ") SELECT x.a, x.b, v.c FROM t1 x, v WHERE " + on
	case 4:
		src = "WITH v AS (" + v + ") SELECT x.a, x.b, v.c FROM t1 x, v WHERE " + on +
			" AND NOT EXISTS (SELECT * FROM v y WHERE y.a = x.c)"
	case 5:
		src = "SELECT x.a, x.b, v.c FROM t1 x LEFT JOIN (" + v + ") v ON " + on
	case 6:
		src = "SELECT x.a, x.b, x.c FROM t1 x WHERE EXISTS (SELECT * FROM (" + v + ") v WHERE " + on + ")"
	case 7:
		src = v
	default:
		src = "SELECT x.a, x.b, v.c FROM t1 x, (" + v + ") v WHERE x.b < v.a"
	}
	// vs: the rows of v, as (a, b, c).
	vs := func(db map[string][]relation.Tuple) (out []relation.Tuple) {
		for _, z := range db["t3"] {
			e1 := slices.ContainsFunc(db["t2"], func(w relation.Tuple) bool {
				return sqlEq(w[0], z[1]) && (!res1 || cmpTV(w[2], ">", z[2]) == tvTrue)
			})
			e2 := slices.ContainsFunc(db["t1"], func(u relation.Tuple) bool {
				return sqlEq(u[2], z[0]) && (!res2 || cmpTV(u[1], "<", z[2]) == tvTrue)
			})
			if e1 != anti1 && (!chained || e2 != anti2) {
				out = append(out, z)
			}
		}
		return out
	}
	joins := func(x, z relation.Tuple) bool {
		if kind == 8 {
			return cmpTV(x[1], "<", z[0]) == tvTrue
		}
		return sqlEq(x[0], z[0]) && (!jres || cmpTV(x[1], "<>", z[2]) == tvTrue)
	}
	return rewriteCase{
		shape:     "lift anti-join",
		src:       src,
		rewritten: kind < 4,
		// Lifted, a semi-/anti-join reads a join and no join reads one, even
		// through renames, projections and CTE scans.
		applied: func(p *Plan) bool {
			reads := func(n *planNode) bool {
				for n.op == opRename || n.op == opProject || n.op == opScan && n.cte >= 0 {
					if n.op == opScan {
						n = p.ctes[n.cte]
					} else {
						n = n.l
					}
				}
				return n.op == opSemi
			}
			return hasNode(p, func(n *planNode) bool { return n.op == opSemi && n.l.op == opJoin }) &&
				!hasNode(p, func(n *planNode) bool { return n.op == opJoin && (reads(n.l) || reads(n.r)) })
		},
		want: func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			rows := vs(db)
			if kind == 7 {
				for _, z := range rows {
					if narrow {
						z = relation.Tuple{z[2], z[0]}
					}
					out = append(out, z)
				}
				return out
			}
			for _, x := range db["t1"] {
				if kind == 4 && slices.ContainsFunc(rows, func(y relation.Tuple) bool { return sqlEq(y[0], x[2]) }) {
					continue
				}
				matched := false
				for _, z := range rows {
					if !joins(x, z) {
						continue
					}
					matched = true
					if kind != 6 {
						out = append(out, relation.Tuple{x[0], x[1], z[2]})
					}
				}
				switch {
				case kind == 6 && matched:
					out = append(out, x)
				case kind == 5 && !matched:
					out = append(out, relation.Tuple{x[0], x[1], relation.Null()})
				}
			}
			return out
		},
	}
}

// rwExceptAnti: t3 x semi-joined, as a comma join, a JOIN or an EXISTS,
// with e = π(t3 z) EXCEPT B — π picks two of z's columns in a random order,
// B is t2's filtered (a, b) — inline or as a CTE, on keys that pair each of
// x's columns with the e column π picked from it (rule 9; Listing 1's last
// step). t3's NULLs reach the keys whenever π picks b or c. Near misses: π
// over a filter of t3, x from another table, crossed keys, a residual, B
// with a column of another kind, and keys that miss an e column.
func rwExceptAnti(rng *rand.Rand) rewriteCase {
	cols := []string{"a", "b", "c"}
	kind := rng.Intn(8) // 0-1 rewritten; 2 filter, 3 table, 4 crossed, 5 residual, 6 kind, 7 partial
	p := rng.Perm(3)[:2]
	k, k2 := int64(rng.Intn(8)), int64(rng.Intn(8))
	left, where, bItem := "t3", "", "w.b"
	switch kind {
	case 2:
		where = fmt.Sprintf(" WHERE z.c >= %d", k2)
	case 3:
		left = "t1"
	case 6:
		bItem = "'x'"
	}
	e := fmt.Sprintf("(SELECT z.%s, z.%s FROM t3 z%s) EXCEPT (SELECT w.a, %s FROM t2 w WHERE w.c < %d)",
		cols[p[0]], cols[p[1]], where, bItem, k)
	// keys pairs x's columns with e's: x.pairs[i][0] = y.(e column pairs[i][1]).
	pairs := [][2]int{{p[0], 0}, {p[1], 1}}
	switch kind {
	case 4:
		pairs = [][2]int{{p[1], 0}, {p[0], 1}}
	case 7:
		pairs = pairs[:1]
	}
	var conds []string
	for _, kp := range pairs {
		conds = append(conds, fmt.Sprintf("x.%s = y.%s", cols[kp[0]], cols[p[kp[1]]]))
	}
	if kind == 5 {
		conds = append(conds, "x.c > y."+cols[p[0]])
	}
	rng.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	with, right := "", "("+e+") y"
	if rng.Intn(2) == 0 {
		with, right = "WITH e AS ("+e+") ", "e y"
	}
	on := strings.Join(conds, " AND ")
	var src string
	switch form := rng.Intn(3); {
	case form == 0 && kind != 7: // a comma join that misses a key is no semi-join
		src = with + "SELECT x.a, x.b, x.c FROM " + left + " x, " + right + " WHERE " + on
	case form == 1 && kind != 7:
		src = with + "SELECT x.a, x.b, x.c FROM " + left + " x JOIN " + right + " ON " + on
	default:
		src = with + "SELECT x.a, x.b, x.c FROM " + left + " x WHERE EXISTS (SELECT * FROM " + right + " WHERE " + on + ")"
	}
	return rewriteCase{
		shape:     "except anti-join",
		src:       src,
		rewritten: kind < 2,
		// No near miss has a NOT EXISTS, so an anti-join is rule 9's.
		applied: func(p *Plan) bool {
			return hasNode(p, func(n *planNode) bool { return n.op == opSemi && n.anti }) &&
				!hasNode(p, func(n *planNode) bool { return n.op == opExcept || n.op == opSemi && !n.anti })
		},
		want: func(db map[string][]relation.Tuple) (out []relation.Tuple) {
			var picked, minus []relation.Tuple
			for _, z := range db["t3"] {
				if kind != 2 || cmpTV(z[2], ">=", relation.Int(k2)) == tvTrue {
					picked = append(picked, relation.Tuple{z[p[0]], z[p[1]]})
				}
			}
			for _, w := range db["t2"] {
				if cmpTV(w[2], "<", relation.Int(k)) == tvTrue {
					b := w[1]
					if kind == 6 {
						b = relation.String("x")
					}
					minus = append(minus, relation.Tuple{w[0], b})
				}
			}
			es := setOf(picked, minus)
			for _, x := range db[left] {
				if slices.ContainsFunc(es, func(y relation.Tuple) bool {
					for _, kp := range pairs {
						if !sqlEq(x[kp[0]], y[kp[1]]) {
							return false
						}
					}
					return kind != 5 || cmpTV(x[2], ">", y[0]) == tvTrue
				}) {
					out = append(out, x)
				}
			}
			return out
		},
	}
}

// runRewriteSeed draws tables and one rewrite case, checks that the plan
// shows the rewrite exactly when its preconditions hold, and compares the
// executor (a fresh build, Run), the interpreter and the IVM — across random
// trickle and bulk deltas — with the case's Go reference.
func runRewriteSeed(t testing.TB, seed int64) rewriteCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mirror := map[string][]relation.Tuple{}
	for _, name := range []string{"t1", "t2", "t3"} {
		for i, n := 0, 5+rng.Intn(25); i < n; i++ {
			mirror[name] = append(mirror[name], randRowFor(name, rng))
		}
	}
	c := rewriteShapes[rng.Intn(len(rewriteShapes))](rng)
	q, err := Parse(c.src)
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", seed, c.src, err)
	}
	cat := mirrorCatalog(mirror)
	schemas := map[string]*relation.Schema{}
	for name, rel := range cat {
		schemas[name] = rel.Schema()
	}
	plan, err := CompilePlan(q, schemas)
	if err != nil {
		t.Fatalf("seed %d: compile %q: %v", seed, c.src, err)
	}
	if got := c.applied(plan); got != c.rewritten {
		t.Fatalf("seed %d: %s rewrite applied = %v, want %v, on %q:\n%s", seed, c.shape, got, c.rewritten, c.src, plan)
	}
	m, err := NewIVM(plan, inserts(cat))
	if err != nil {
		t.Fatalf("seed %d: NewIVM %q: %v", seed, c.src, err)
	}
	check := func(step int, who string, got *relation.Relation) {
		t.Helper()
		want := relation.New(got.Schema())
		want.AppendTrusted(c.want(mirror)...)
		if !got.Equal(want) {
			t.Fatalf("seed %d step %d: %s diverged from the brute-force reference on %q\ngot:\n%s\nwant:\n%s\nplan:\n%s",
				seed, step, who, c.src, got, want, plan)
		}
	}
	for step := 0; step < 4; step++ {
		fresh := mirrorCatalog(mirror)
		got, err := Run(q, fresh)
		if err != nil {
			t.Fatalf("seed %d step %d: run %q: %v", seed, step, c.src, err)
		}
		check(step, "executor", got)
		check(step, "interpreter", interpret(t, q, fresh))
		if got, err = m.Result(); err != nil {
			t.Fatalf("seed %d step %d: ivm result %q: %v", seed, step, c.src, err)
		}
		check(step, "IVM", got)
		deltas := randDeltas
		if rng.Intn(4) == 0 {
			deltas = randBulkDeltas
		}
		if err := m.Apply(deltas(rng, mirror)); err != nil {
			t.Fatalf("seed %d step %d: apply %q: %v", seed, step, c.src, err)
		}
	}
	return c
}

// TestPlanRewritesMatchBruteForce: every rewrite fires on its shape and on
// no near miss, and either way the answer is the Go reference's — built
// afresh, by the interpreter, and view-maintained.
func TestPlanRewritesMatchBruteForce(t *testing.T) {
	seen := map[string][2]int{} // shape -> [near misses, rewritten]
	for seed := int64(0); seed < 500; seed++ {
		c := runRewriteSeed(t, seed)
		n := seen[c.shape]
		if c.rewritten {
			n[1]++
		} else {
			n[0]++
		}
		seen[c.shape] = n
	}
	for _, shape := range []string{"residual", "semi-join", "anti-join", "rename", "shared filter", "set-read distinct", "fold projection", "lift anti-join", "except anti-join"} {
		if n := seen[shape]; n[1] == 0 || shape != "residual" && n[0] == 0 {
			t.Errorf("%s: %d rewritten and %d near misses generated", shape, n[1], n[0])
		}
	}
}

// FuzzPlanRewrites drives the same generator from the fuzzer's seed.
func FuzzPlanRewrites(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runRewriteSeed(t, seed)
	})
}
