package minisql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
)

// The executor's hash join / semi-join planning is property-tested end to
// end against the nested-loop oracle (ra.Options.NestedLoop) over random
// catalogs and random queries of the shapes the scheduling protocols use:
// multi-table equi-joins via WHERE, filters, [NOT] EXISTS with correlated
// keys, DISTINCT and EXCEPT/UNION. Catalogs change between queries — rows
// appended and rows deleted, as the scheduler's stores change between
// rounds.
//
// The nested-loop oracle shares the plan with the executor under test, so a
// planner rewrite is invisible to it. Every rewrite is therefore also checked
// against references that evaluate the query in Go under three-valued logic
// and never see a plan:
//
//   - NOT EXISTS over a disjunction split into a chain of anti-joins
//     (TestNotExistsOrMatchesBruteForce);
//   - the rewrites of rewrite.go (TestPlanRewritesMatchBruteForce and
//     FuzzPlanRewrites, each shape beside near misses that must not be
//     rewritten): a comma join's cross-side WHERE conjuncts as the join's
//     residual; a join read only on its left, against a duplicate-free right
//     side whose columns the keys cover, as a semi-join; a left join under a
//     non-negated IS NULL on a right key column as an anti-join; an identity
//     projection as a rename; and one shared filter per predicate list and
//     base table.

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

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// tv is SQL's three-valued truth for the brute-force reference.
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
		b.WriteString("x.a, x.b, y.c FROM t1 x, t2 y WHERE x.")
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

// TestExecutorMatchesNestedLoopOracle: default (hash) execution agrees with
// the nested-loop oracle on every random query, across catalog changes
// between queries.
func TestExecutorMatchesNestedLoopOracle(t *testing.T) {
	nested := &ra.Options{NestedLoop: true}
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
			want, err := RunOpts(q, cat, nested)
			if err != nil {
				t.Fatalf("seed %d step %d: oracle %q: %v", seed, step, src, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d step %d: %q diverged from nested-loop oracle\nhash:\n%s\noracle:\n%s",
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
// cold, under the nested-loop option, and delta-maintained across random
// inserts and deletes on both tables.
func TestNotExistsOrMatchesBruteForce(t *testing.T) {
	nested := &ra.Options{NestedLoop: true}
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
		m, err := NewIVM(plan, Catalog{"t1": cat["t1"], "t3": cat["t3"]}, nil)
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
			for name, opts := range map[string]*ra.Options{"hash": nil, "nested-loop": nested} {
				got, err := RunOpts(q, fresh, opts)
				if err != nil {
					t.Fatalf("seed %d step %d: %s %q: %v", seed, step, name, src, err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d step %d: %s executor diverged from the brute-force reference on %q\ngot:\n%s\nwant:\n%s\nplan:\n%s",
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
	got, err := plan.Eval(cat, nil)
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
