package minisql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

// The executor — CompilePlan's plan, rewrites included, built as a view
// cache from one insert delta (Run) — and the view cache maintained over
// the same plan are property-tested against Interpret (interp_test.go),
// which evaluates the parsed query by SQL's own rules and never sees a
// plan: over random catalogs and random
// queries of the shapes the scheduling protocols use (multi-table equi-joins
// via WHERE, filters, [NOT] EXISTS with correlated keys and OR-of-AND
// predicates over NULL-able columns, LEFT JOIN, DISTINCT, EXCEPT/UNION,
// CTEs, FROM subqueries, ORDER BY). Catalogs change between queries — rows
// appended and rows deleted, as the scheduler's stores change between
// rounds. So decorrelation, the EXISTS-to-semi-join lowering, the split of
// NOT EXISTS over a disjunction into anti-joins, residual placement and the
// rewrites of rewrite.go are all checked against a reference that shares
// none of them.
//
// The hand-written Go meanings of the generated shapes stay beside it, and
// every case is checked against both, so each also cross-checks the
// interpreter:
//
//   - NOT EXISTS over a disjunction (TestNotExistsOrMatchesBruteForce);
//   - the rewrites of rewrite.go (TestPlanRewritesMatchBruteForce and
//     FuzzPlanRewrites, each shape beside near misses that must not be
//     rewritten): a comma join's cross-side WHERE conjuncts as the join's
//     residual; a join read only on its left, against a duplicate-free right
//     side whose columns the keys cover, as a semi-join; a left join under a
//     non-negated IS NULL on a right key column as an anti-join; an identity
//     projection as a rename; and one shared filter per predicate list and
//     base table.

// interpret runs the query through the interpreter, failing the test on an
// error.
func interpret(t testing.TB, q *Query, cat Catalog) *relation.Relation {
	t.Helper()
	out, err := Interpret(q, cat)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	return out
}

// sameAnswer reports whether got holds the bag of rows of want, the
// interpreter's result, and, when the query orders its result, the same
// sequence of ORDER BY columns (rows that tie may come in any order).
func sameAnswer(q *Query, got, want *relation.Relation) bool {
	if !got.Equal(want) {
		return false
	}
	for _, o := range q.OrderBy {
		pos, _ := want.Schema().Index(o.Expr.(*ColRef).Name)
		for i := range want.Len() {
			if !got.Row(i)[pos].Equal(want.Row(i)[pos]) {
				return false
			}
		}
	}
	return true
}

// goldenRow builds a tuple from ints, strings and nil (NULL).
func goldenRow(vals ...any) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = relation.Int(int64(x))
		case string:
			t[i] = relation.String(x)
		}
	}
	return t
}

// TestInterpreterGoldenCases: the interpreter's answers on hand-computed
// cases of every rule it implements, three-valued logic first. Where the
// executor accepts the query (planned), it must give the same rows; nested
// and disjunctive EXISTS are the interpreter's alone.
func TestInterpreterGoldenCases(t *testing.T) {
	tt := relation.New(relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
	))
	for _, r := range [][]any{{1, 10, "x"}, {2, nil, "y"}, {3, 0, "x"}} {
		tt.MustAppend(goldenRow(r...))
	}
	u := relation.New(relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "c", Kind: relation.KindInt},
	))
	for _, r := range [][]any{{1, 5}, {1, 6}, {4, 7}} {
		u.MustAppend(goldenRow(r...))
	}
	// e starts empty: a view cache built over the catalog meets it in its
	// first delta as a table with no rows.
	e := relation.New(u.Schema())
	cat := Catalog{"t": tt, "u": u, "e": e}
	for _, c := range []struct {
		sql     string
		want    [][]any
		planned bool // the executor accepts it too
	}{
		// NOT unknown is unknown: neither b > 5 nor its negation keeps b NULL.
		{"SELECT a FROM t WHERE NOT (b > 5)", [][]any{{3}}, true},
		{"SELECT a FROM t WHERE b > 5 OR a = 2", [][]any{{1}, {2}}, true},
		{"SELECT a FROM t WHERE NOT (b > 5 AND a = 2)", [][]any{{1}, {3}}, true},
		{"SELECT a FROM t WHERE b = b", [][]any{{1}, {3}}, true},
		{"SELECT a FROM t WHERE b IS NULL", [][]any{{2}}, true},
		{"SELECT a FROM t WHERE b IS NOT NULL", [][]any{{1}, {3}}, true},
		// A miss on a list holding NULL is unknown, so NOT IN keeps nothing.
		{"SELECT a FROM t WHERE b IN (10, NULL)", [][]any{{1}}, true},
		{"SELECT a FROM t WHERE b NOT IN (10, NULL)", nil, true},
		{"SELECT a FROM t WHERE a NOT IN (1, 2)", [][]any{{3}}, true},
		{"SELECT a, b + 1, a / b, a % b, 7 / 0 FROM t", [][]any{
			{1, 11, 0, 1, nil}, {2, nil, nil, nil, nil}, {3, 1, nil, nil, nil},
		}, true},
		{"SELECT 1 + 2, NULL", [][]any{{3, nil}}, true},
		{"(SELECT 5 AS a) UNION ALL (SELECT a FROM t)", [][]any{{5}, {1}, {2}, {3}}, true},
		{"SELECT DISTINCT s FROM t", [][]any{{"x"}, {"y"}}, true},
		{"(SELECT a FROM t) UNION (SELECT a FROM u)", [][]any{{1}, {2}, {3}, {4}}, true},
		{"(SELECT a FROM t) UNION ALL (SELECT a FROM u)", [][]any{{1}, {2}, {3}, {1}, {1}, {4}}, true},
		{"(SELECT a FROM t) EXCEPT (SELECT a FROM u)", [][]any{{2}, {3}}, true},
		// An EXCEPT whose right side is empty still drops duplicates.
		{"(SELECT s FROM t) EXCEPT (SELECT s FROM t WHERE a > 5)", [][]any{{"x"}, {"y"}}, true},
		{"(SELECT b FROM t) EXCEPT (SELECT c FROM e)", [][]any{{10}, {nil}, {0}}, true},
		{"SELECT * FROM u WHERE c = 7", [][]any{{4, 7}}, true},
		{"SELECT * FROM t x, u y WHERE x.a = y.a AND y.c = 5", [][]any{{1, 10, "x", 1, 5}}, true},
		{"SELECT y.* FROM t x, u y WHERE x.a = y.a", [][]any{{1, 5}, {1, 6}}, true},
		// A self-join reads one base table twice in the same first delta.
		{"SELECT x.a, y.c FROM u x, u y WHERE x.a = y.a AND x.c < y.c", [][]any{{1, 6}}, true},
		// NULL sorts first, so last when descending.
		{"SELECT a, b FROM t ORDER BY b DESC", [][]any{{1, 10}, {3, 0}, {2, nil}}, true},
		// Ties and duplicate rows under ORDER BY.
		{"(SELECT s FROM t) UNION ALL (SELECT s FROM t) ORDER BY s DESC", [][]any{{"y"}, {"y"}, {"x"}, {"x"}, {"x"}, {"x"}}, true},
		{"SELECT x.a, y.c FROM t x LEFT JOIN u y ON x.a = y.a", [][]any{{1, 5}, {1, 6}, {2, nil}, {3, nil}}, true},
		{"SELECT x.a, y.c FROM t x LEFT JOIN e y ON x.a = y.a", [][]any{{1, nil}, {2, nil}, {3, nil}}, true},
		{"SELECT x.a, y.c FROM t x JOIN u y ON x.a = y.a AND y.c > 5", [][]any{{1, 6}}, true},
		{"SELECT x.a FROM t x WHERE NOT EXISTS (SELECT * FROM u y WHERE y.a = x.a AND y.c > x.b)", [][]any{{1}, {2}, {3}}, true},
		// A CTE shadows the base table of its name and feeds the next one.
		{"WITH u AS (SELECT a FROM t WHERE a >= 2), v AS (SELECT a FROM u WHERE a <= 2) SELECT * FROM v", [][]any{{2}}, true},
		{"SELECT s.k FROM (SELECT a * 10 AS k FROM t WHERE b IS NOT NULL) s WHERE s.k > 10", [][]any{{30}}, true},
		// The innermost EXISTS reads x two scopes out; x.b NULL is unknown.
		{"SELECT x.a FROM t x WHERE EXISTS (SELECT * FROM u y WHERE y.a = 1 AND EXISTS (SELECT * FROM u z WHERE z.c > y.c AND z.c > x.b))", [][]any{{3}}, false},
		{"SELECT a FROM t WHERE a = 2 OR EXISTS (SELECT * FROM u WHERE u.c >= 6 AND u.a = t.a)", [][]any{{1}, {2}}, false},
	} {
		query, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		got := interpret(t, query, cat)
		want := relation.New(got.Schema())
		for _, r := range c.want {
			want.MustAppend(goldenRow(r...))
		}
		if !sameAnswer(query, got, want) {
			t.Errorf("%q: the interpreter answered\n%s\nwant\n%s", c.sql, got, want)
		}
		if !c.planned {
			continue
		}
		if ran, err := Run(query, cat); err != nil {
			t.Errorf("%q: the executor refused it: %v", c.sql, err)
		} else if !sameAnswer(query, ran, want) {
			t.Errorf("%q: the executor answered\n%s\nwant\n%s", c.sql, ran, want)
		}
	}
}

// randTable builds the named table of ints over columns a, b, c with a small
// value domain (joins and EXISTS correlations hit often).
func randTable(name string, rng *rand.Rand, rows int) *relation.Relation {
	r := relation.New(relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "c", Kind: relation.KindInt},
	))
	for i := 0; i < rows; i++ {
		r.MustAppend(randRowFor(name, rng))
	}
	return r
}

func randTableRow(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		relation.Int(int64(rng.Intn(5))),
		relation.Int(int64(rng.Intn(5))),
		relation.Int(int64(rng.Intn(8))),
	}
}

// randNullableRow is randTableRow with NULLs in b and c: the rows of t3, the
// table the EXISTS subqueries read, so correlated predicates meet UNKNOWN.
func randNullableRow(rng *rand.Rand) relation.Tuple {
	t := randTableRow(rng)
	for _, col := range []int{1, 2} {
		if rng.Intn(6) == 0 {
			t[col] = relation.Null()
		}
	}
	return t
}

// randRowFor draws a row for the named test table.
func randRowFor(name string, rng *rand.Rand) relation.Tuple {
	if name == "t3" {
		return randNullableRow(rng)
	}
	return randTableRow(rng)
}

// corrAtom is one atomic predicate of a correlated subquery over outer alias
// x (t1) and inner alias z (t3): its SQL text and its meaning in Go.
type corrAtom struct {
	sql  string
	eval func(x, z relation.Tuple) tv
}

// randCorrAtom draws an atom. keyed atoms are the correlated equalities the
// planner turns into hash keys; the others are inner-only filters, outer-only
// conditions, inequalities across the two sides and NULL tests, which it must
// place as filters or residuals without changing the answer.
func randCorrAtom(rng *rand.Rand, keyed bool) corrAtom {
	cols := []string{"a", "b", "c"}
	if keyed {
		zc, xc := rng.Intn(3), rng.Intn(3)
		return corrAtom{
			sql:  fmt.Sprintf("z.%s = x.%s", cols[zc], cols[xc]),
			eval: func(x, z relation.Tuple) tv { return cmpTV(z[zc], "=", x[xc]) },
		}
	}
	op := cmpOps[rng.Intn(len(cmpOps))]
	switch rng.Intn(4) {
	case 0: // inner-only: pushed below the join
		zc, k := 1+rng.Intn(2), int64(rng.Intn(6))
		return corrAtom{
			sql:  fmt.Sprintf("z.%s %s %d", cols[zc], op, k),
			eval: func(x, z relation.Tuple) tv { return cmpTV(z[zc], op, relation.Int(k)) },
		}
	case 1: // outer-only inside the subquery
		xc, k := rng.Intn(3), int64(rng.Intn(6))
		return corrAtom{
			sql:  fmt.Sprintf("x.%s %s %d", cols[xc], op, k),
			eval: func(x, z relation.Tuple) tv { return cmpTV(x[xc], op, relation.Int(k)) },
		}
	case 2: // correlated, not an equality: always a residual
		zc, xc := 1+rng.Intn(2), rng.Intn(3)
		if op == "=" {
			op = "<>"
		}
		return corrAtom{
			sql:  fmt.Sprintf("z.%s %s x.%s", cols[zc], op, cols[xc]),
			eval: func(x, z relation.Tuple) tv { return cmpTV(z[zc], op, x[xc]) },
		}
	default:
		zc, negate := 1+rng.Intn(2), rng.Intn(2) == 0
		sql := fmt.Sprintf("z.%s IS NULL", cols[zc])
		if negate {
			sql = fmt.Sprintf("z.%s IS NOT NULL", cols[zc])
		}
		return corrAtom{
			sql:  sql,
			eval: func(x, z relation.Tuple) tv { return tvOf(z[zc].IsNull() != negate) },
		}
	}
}

// randNotExistsOr renders SELECT ... FROM t1 x WHERE NOT EXISTS (SELECT * FROM
// t3 z WHERE [C AND] (D1 OR D2 [OR D3])), each Di a conjunction of atoms, and
// returns the predicate's meaning. The shapes include Listing 1's (every
// disjunct keyed, on different columns), disjuncts with no equality at all,
// and keys on t3's NULL-able columns.
func randNotExistsOr(rng *rand.Rand) (string, func(x, z relation.Tuple) tv) {
	and := func(atoms []corrAtom) (string, func(x, z relation.Tuple) tv) {
		parts := make([]string, len(atoms))
		for i, a := range atoms {
			parts[i] = a.sql
		}
		return strings.Join(parts, " AND "), func(x, z relation.Tuple) tv {
			out := tvTrue
			for _, a := range atoms {
				out = min(out, a.eval(x, z))
			}
			return out
		}
	}
	var sqls []string
	var evals []func(x, z relation.Tuple) tv
	for d, n := 0, 2+rng.Intn(2); d < n; d++ {
		var atoms []corrAtom
		for k := rng.Intn(3); k > 0; k-- {
			atoms = append(atoms, randCorrAtom(rng, true))
		}
		for k := rng.Intn(3); k > 0 || len(atoms) == 0; k-- {
			atoms = append(atoms, randCorrAtom(rng, false))
		}
		rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
		sql, eval := and(atoms)
		sqls = append(sqls, "("+sql+")")
		evals = append(evals, eval)
	}
	where := "(" + strings.Join(sqls, " OR ") + ")"
	pred := func(x, z relation.Tuple) tv {
		out := tvFalse
		for _, e := range evals {
			out = max(out, e(x, z))
		}
		return out
	}
	if rng.Intn(2) == 0 {
		c := randCorrAtom(rng, rng.Intn(2) == 0)
		or := pred
		if rng.Intn(2) == 0 {
			where = c.sql + " AND " + where
		} else {
			where += " AND " + c.sql
		}
		pred = func(x, z relation.Tuple) tv { return min(c.eval(x, z), or(x, z)) }
	}
	return "SELECT x.a, x.b, x.c FROM t1 x WHERE NOT EXISTS (SELECT * FROM t3 z WHERE " + where + ")", pred
}

// randQuery renders a random supported query over tables t1, t2, t3.
func randQuery(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(2) == 0 {
		b.WriteString("DISTINCT ")
	}
	twoTables := rng.Intn(2) == 0
	if twoTables {
		// y is t2 itself or a column projection of its filtered rows, with or
		// without a DISTINCT, and with or without a semi- or anti-join
		// against t3: the rewrite drops a DISTINCT an outer one makes
		// invisible, folds the projection into the join when only the root's
		// projection reads it, and lifts the semi- or anti-join above the
		// join (Listing 1's lock views).
		y := "t2"
		if rng.Intn(2) == 0 {
			distinct := []string{"", "DISTINCT "}[rng.Intn(2)]
			sub := []string{"", " AND EXISTS", " AND NOT EXISTS"}[rng.Intn(3)]
			if sub != "" {
				sub += fmt.Sprintf(" (SELECT * FROM t3 v WHERE v.a = w.%s)", []string{"a", "b"}[rng.Intn(2)])
			}
			y = fmt.Sprintf("(SELECT %sw.c, w.a, w.b FROM t2 w WHERE w.c >= %d%s)", distinct, rng.Intn(4), sub)
		}
		b.WriteString("x.a, x.b, y.c FROM t1 x, " + y + " y WHERE x.")
		b.WriteString([]string{"a", "b"}[rng.Intn(2)])
		b.WriteString(" = y.")
		b.WriteString([]string{"a", "b"}[rng.Intn(2)])
	} else {
		b.WriteString("x.a, x.b, x.c FROM t1 x WHERE x.c >= 0")
	}
	// Random extra filters.
	for k := 0; k < rng.Intn(3); k++ {
		fmt.Fprintf(&b, " AND x.%s %s %d",
			[]string{"a", "b", "c"}[rng.Intn(3)], cmpOps[rng.Intn(len(cmpOps))], rng.Intn(6))
	}
	// Optional correlated [NOT] EXISTS — the Listing 1 shape.
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			b.WriteString(" AND NOT EXISTS")
		} else {
			b.WriteString(" AND EXISTS")
		}
		fmt.Fprintf(&b, " (SELECT * FROM t3 z WHERE z.a = x.%s", []string{"a", "b"}[rng.Intn(2)])
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, " AND (z.b = %d OR z.c %s x.c)", rng.Intn(5), cmpOps[rng.Intn(len(cmpOps))])
		case 1:
			// OR of ANDs keyed on different columns (Listing 1's
			// RLockedObjects), one of them NULL-able in t3.
			fmt.Fprintf(&b, " AND ((z.c = x.c AND z.b = %d) OR (z.b = x.b AND z.c %s %d))",
				rng.Intn(5), cmpOps[rng.Intn(len(cmpOps))], rng.Intn(8))
		case 2:
			// A negation over t3's NULL-able columns: NOT of UNKNOWN is
			// UNKNOWN, so the row does not match.
			fmt.Fprintf(&b, " AND NOT (z.b = %d OR z.c < x.c)", rng.Intn(5))
		}
		b.WriteString(")")
	}
	if rng.Intn(3) == 0 {
		b.WriteString(" ORDER BY a, b")
		if !twoTables {
			b.WriteString(", c")
		}
	}
	return b.String()
}

// TestExecutorMatchesInterpreter: the executor agrees with the interpreter
// on every random query, across catalog changes between queries.
func TestExecutorMatchesInterpreter(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := Catalog{
			"t1": randTable("t1", rng, 5+rng.Intn(30)),
			"t2": randTable("t2", rng, 5+rng.Intn(30)),
			"t3": randTable("t3", rng, 5+rng.Intn(30)),
		}
		for step := 0; step < 12; step++ {
			src := randQuery(rng)
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("seed %d step %d: parse %q: %v", seed, step, src, err)
			}
			got, err := Run(q, cat)
			if err != nil {
				t.Fatalf("seed %d step %d: run %q: %v", seed, step, src, err)
			}
			if want := interpret(t, q, cat); !sameAnswer(q, got, want) {
				t.Fatalf("seed %d step %d: %q diverged from the interpreter\nexecutor:\n%s\ninterpreter:\n%s",
					seed, step, src, got, want)
			}
			// Change the catalog between queries: append new rows, and
			// occasionally replace a table by its rows without one value.
			for _, name := range []string{"t1", "t2", "t3"} {
				for k := 0; k < rng.Intn(3); k++ {
					cat[name].MustAppend(randRowFor(name, rng))
				}
				if rng.Intn(4) == 0 {
					victim := int64(rng.Intn(5))
					kept := relation.New(cat[name].Schema())
					for _, tu := range cat[name].Rows() {
						if tu[0].AsInt() != victim {
							kept.MustAppend(tu)
						}
					}
					cat[name] = kept
				}
			}
		}
	}
}

// TestNotExistsOrMatchesBruteForce: NOT EXISTS over OR-of-AND predicates
// returns exactly the outer rows for which no inner row makes the predicate
// TRUE, as computed by two Go loops that share nothing with the planner —
// built afresh, by the interpreter, and delta-maintained across random
// inserts and deletes on both tables.
func TestNotExistsOrMatchesBruteForce(t *testing.T) {
	split := false
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mirror := map[string][]relation.Tuple{}
		for _, name := range []string{"t1", "t2", "t3"} {
			for i, n := 0, 5+rng.Intn(25); i < n; i++ {
				mirror[name] = append(mirror[name], randRowFor(name, rng))
			}
		}
		src, pred := randNotExistsOr(rng)
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", seed, src, err)
		}
		cat := mirrorCatalog(mirror)
		plan, err := CompilePlan(q, map[string]*relation.Schema{"t1": cat["t1"].Schema(), "t3": cat["t3"].Schema()})
		if err != nil {
			t.Fatalf("seed %d: compile %q: %v", seed, src, err)
		}
		antis := 0
		for _, n := range plan.nodes {
			if n.op == opSemi && n.anti {
				antis++
			}
		}
		split = split || antis > 1
		m, err := NewIVM(plan, inserts(Catalog{"t1": cat["t1"], "t3": cat["t3"]}))
		if err != nil {
			t.Fatalf("seed %d: NewIVM %q: %v", seed, src, err)
		}
		for step := 0; step < 4; step++ {
			want := relation.New(cat["t1"].Schema())
			for _, x := range mirror["t1"] {
				exists := false
				for _, z := range mirror["t3"] {
					if pred(x, z) == tvTrue {
						exists = true
						break
					}
				}
				if !exists {
					want.MustAppend(x)
				}
			}
			fresh := mirrorCatalog(mirror)
			built, err := Run(q, fresh)
			if err != nil {
				t.Fatalf("seed %d step %d: run %q: %v", seed, step, src, err)
			}
			for name, got := range map[string]*relation.Relation{"executor": built, "interpreter": interpret(t, q, fresh)} {
				if !got.Equal(want) {
					t.Fatalf("seed %d step %d: %s diverged from the brute-force reference on %q\ngot:\n%s\nwant:\n%s\nplan:\n%s",
						seed, step, name, src, got, want, plan)
				}
			}
			got, err := m.Result()
			if err != nil {
				t.Fatalf("seed %d step %d: ivm result %q: %v", seed, step, src, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d step %d: IVM diverged from the brute-force reference on %q\ngot:\n%s\nwant:\n%s\nplan:\n%s",
					seed, step, src, got, want, plan)
			}
			if err := m.Apply(randDeltas(rng, mirror)); err != nil {
				t.Fatalf("seed %d step %d: apply %q: %v", seed, step, src, err)
			}
		}
	}
	if !split {
		t.Fatal("no generated NOT EXISTS was split into more than one anti-join")
	}
}

// TestNotExistsSplitIsBounded: the split is a DNF expansion; a conjunction of
// many two-way ORs must stop at maxAntiJoins and leave the rest as residuals,
// with the answer unchanged.
func TestNotExistsSplitIsBounded(t *testing.T) {
	var where []string
	for i := 0; i < 12; i++ {
		where = append(where, fmt.Sprintf("(z.a = x.a OR z.b = x.%s)", []string{"b", "c"}[i%2]))
	}
	src := "SELECT x.a, x.b, x.c FROM t1 x WHERE NOT EXISTS (SELECT * FROM t3 z WHERE " + strings.Join(where, " AND ") + ")"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	cat := Catalog{"t1": randTable("t1", rng, 40), "t3": randTable("t3", rng, 40)}
	plan, err := CompilePlan(q, map[string]*relation.Schema{"t1": cat["t1"].Schema(), "t3": cat["t3"].Schema()})
	if err != nil {
		t.Fatal(err)
	}
	antis := 0
	for _, n := range plan.nodes {
		if n.op == opSemi && n.anti {
			antis++
		}
	}
	if antis < 2 || antis > maxAntiJoins {
		t.Fatalf("%d anti-joins, want between 2 and %d\n%s", antis, maxAntiJoins, plan)
	}
	m, err := NewIVM(plan, inserts(cat))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(cat["t1"].Schema())
	for _, x := range cat["t1"].Rows() {
		exists := false
		for _, z := range cat["t3"].Rows() {
			if z[0].Equal(x[0]) || (z[1].Equal(x[1]) && z[1].Equal(x[2])) {
				exists = true
				break
			}
		}
		if !exists {
			want.MustAppend(x)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("bounded split changed the answer\ngot:\n%s\nwant:\n%s", got, want)
	}
}
