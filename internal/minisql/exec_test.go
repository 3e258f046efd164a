package minisql

import (
	"testing"

	"repro/internal/relation"
)

func tbl(t *testing.T, cols []string, rows ...[]any) *relation.Relation {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("tbl needs at least one row to infer kinds")
	}
	cs := make([]relation.Column, len(cols))
	for i := range cols {
		switch rows[0][i].(type) {
		case int:
			cs[i] = relation.Column{Name: cols[i], Kind: relation.KindInt}
		case string:
			cs[i] = relation.Column{Name: cols[i], Kind: relation.KindString}
		}
	}
	r := relation.New(relation.NewSchema(cs...))
	for _, row := range rows {
		tu := make(relation.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int:
				tu[i] = relation.Int(int64(x))
			case string:
				tu[i] = relation.String(x)
			}
		}
		r.MustAppend(tu)
	}
	return r
}

func emptyTbl(cols []string, kinds []relation.Kind) *relation.Relation {
	cs := make([]relation.Column, len(cols))
	for i := range cols {
		cs[i] = relation.Column{Name: cols[i], Kind: kinds[i]}
	}
	return relation.New(relation.NewSchema(cs...))
}

// q runs sql through the executor and returns its result, which must hold
// the interpreter's rows (in its order under ORDER BY): every hand-computed
// case below checks both.
func q(t *testing.T, sql string, cat Catalog) *relation.Relation {
	t.Helper()
	query, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	out, err := Run(query, cat)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	if want := interpret(t, query, cat); !sameAnswer(query, out, want) {
		t.Fatalf("%q: the executor diverged from the interpreter\nexecutor:\n%s\ninterpreter:\n%s", sql, out, want)
	}
	return out
}

func TestSelectWhere(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"a", "b"}, []any{1, 10}, []any{2, 20}, []any{3, 30})}
	got := q(t, "SELECT a FROM t WHERE b > 10", cat)
	if got.Len() != 2 {
		t.Fatalf("rows: %d", got.Len())
	}
	got = q(t, "SELECT a, b FROM t WHERE a = 1 OR a = 3", cat)
	if got.Len() != 2 {
		t.Fatalf("or: %d", got.Len())
	}
	got = q(t, "SELECT a FROM t WHERE NOT (a = 2)", cat)
	if got.Len() != 2 {
		t.Fatalf("not: %d", got.Len())
	}
}

func TestSelectStarAndQualifiedStar(t *testing.T) {
	cat := Catalog{
		"t": tbl(t, []string{"a"}, []any{1}, []any{2}),
		"u": tbl(t, []string{"b"}, []any{1}),
	}
	got := q(t, "SELECT * FROM t", cat)
	if got.Len() != 2 || got.Schema().Len() != 1 {
		t.Fatalf("star: %s", got)
	}
	got = q(t, "SELECT x.* FROM t x, u y WHERE x.a = y.b", cat)
	if got.Len() != 1 || got.Schema().Len() != 1 {
		t.Fatalf("qualified star: %s", got)
	}
	if _, ok := got.Schema().Index("a"); !ok {
		t.Errorf("qualified star schema: %s", got.Schema())
	}
}

func TestCommaJoinUsesEquiKeys(t *testing.T) {
	cat := Catalog{
		"r": tbl(t, []string{"ta", "obj"}, []any{1, 100}, []any{2, 200}, []any{3, 100}),
		"s": tbl(t, []string{"ta", "obj"}, []any{9, 100}, []any{8, 300}),
	}
	got := q(t, "SELECT r.ta FROM r, s WHERE r.obj = s.obj AND r.ta <> s.ta", cat)
	if got.Len() != 2 {
		t.Fatalf("join: %s", got)
	}
}

func TestLeftJoinIsNull(t *testing.T) {
	cat := Catalog{
		"h": tbl(t, []string{"ta", "op"}, []any{1, "w"}, []any{2, "w"}, []any{2, "c"}),
	}
	// Transactions with a write and no commit.
	got := q(t, `
		SELECT DISTINCT a.ta
		FROM h a LEFT JOIN (SELECT ta FROM h WHERE op = 'c') AS fin ON a.ta = fin.ta
		WHERE a.op = 'w' AND fin.ta IS NULL`, cat)
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 1 {
		t.Fatalf("left join: %s", got)
	}
}

func TestExistsAndNotExists(t *testing.T) {
	cat := Catalog{
		"r": tbl(t, []string{"ta"}, []any{1}, []any{2}, []any{3}),
		"h": tbl(t, []string{"ta"}, []any{2}),
	}
	got := q(t, "SELECT ta FROM r a WHERE EXISTS (SELECT * FROM h b WHERE a.ta = b.ta)", cat)
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 2 {
		t.Fatalf("exists: %s", got)
	}
	got = q(t, "SELECT ta FROM r a WHERE NOT EXISTS (SELECT * FROM h b WHERE a.ta = b.ta)", cat)
	if got.Len() != 2 {
		t.Fatalf("not exists: %s", got)
	}
}

func TestCorrelatedExistsWithOr(t *testing.T) {
	cat := Catalog{
		"r": tbl(t, []string{"ta", "obj"}, []any{1, 5}, []any{2, 6}),
		"h": tbl(t, []string{"ta", "obj", "op"}, []any{1, 5, "w"}, []any{2, 7, "r"}),
	}
	// Every disjunct implies a.ta = b.ta, so the key is hoisted.
	got := q(t, `
		SELECT a.ta FROM r a WHERE NOT EXISTS (
			SELECT * FROM h b
			WHERE (a.ta = b.ta AND a.obj = b.obj AND b.op = 'w')
			   OR (a.ta = b.ta AND b.op = 'x'))`, cat)
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 2 {
		t.Fatalf("correlated or: %s", got)
	}
}

func TestUncorrelatedExists(t *testing.T) {
	cat := Catalog{
		"r":     tbl(t, []string{"a"}, []any{1}, []any{2}),
		"full":  tbl(t, []string{"b"}, []any{9}),
		"empty": emptyTbl([]string{"b"}, []relation.Kind{relation.KindInt}),
	}
	if got := q(t, "SELECT a FROM r WHERE EXISTS (SELECT * FROM full)", cat); got.Len() != 2 {
		t.Fatalf("uncorrelated exists true: %s", got)
	}
	if got := q(t, "SELECT a FROM r WHERE EXISTS (SELECT * FROM empty)", cat); got.Len() != 0 {
		t.Fatalf("uncorrelated exists false: %s", got)
	}
	if got := q(t, "SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM empty)", cat); got.Len() != 2 {
		t.Fatalf("uncorrelated not exists: %s", got)
	}
}

func TestUnionExceptDistinct(t *testing.T) {
	cat := Catalog{
		"a": tbl(t, []string{"x"}, []any{1}, []any{2}, []any{2}),
		"b": tbl(t, []string{"x"}, []any{2}, []any{3}),
	}
	if got := q(t, "(SELECT x FROM a) UNION ALL (SELECT x FROM b)", cat); got.Len() != 5 {
		t.Fatalf("union all: %s", got)
	}
	if got := q(t, "(SELECT x FROM a) UNION (SELECT x FROM b)", cat); got.Len() != 3 {
		t.Fatalf("union: %s", got)
	}
	if got := q(t, "(SELECT x FROM a) EXCEPT (SELECT x FROM b)", cat); got.Len() != 1 {
		t.Fatalf("except: %s", got)
	}
	if got := q(t, "SELECT DISTINCT x FROM a", cat); got.Len() != 2 {
		t.Fatalf("distinct: %s", got)
	}
}

func TestWithCTEChain(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"a"}, []any{1}, []any{2}, []any{3})}
	got := q(t, `
		WITH big AS (SELECT a FROM t WHERE a >= 2),
		     biggest AS (SELECT a FROM big WHERE a >= 3)
		SELECT * FROM biggest`, cat)
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 3 {
		t.Fatalf("cte chain: %s", got)
	}
}

func TestOrderBy(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"a", "b"}, []any{3, 1}, []any{1, 2}, []any{2, 3})}
	got := q(t, "SELECT a, b FROM t ORDER BY a DESC", cat)
	if got.Len() != 3 || got.Row(0)[0].AsInt() != 3 || got.Row(1)[0].AsInt() != 2 || got.Row(2)[0].AsInt() != 1 {
		t.Fatalf("order by: %s", got)
	}
}

func TestArithmeticProjection(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"a"}, []any{5})}
	got := q(t, "SELECT a * 2 + 1 AS v FROM t", cat)
	if got.Row(0)[0].AsInt() != 11 {
		t.Fatalf("arith: %s", got)
	}
}

func TestInList(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"op"}, []any{"r"}, []any{"w"}, []any{"c"})}
	got := q(t, "SELECT op FROM t WHERE op IN ('a', 'c')", cat)
	if got.Len() != 1 {
		t.Fatalf("in: %s", got)
	}
	got = q(t, "SELECT op FROM t WHERE op NOT IN ('a', 'c')", cat)
	if got.Len() != 2 {
		t.Fatalf("not in: %s", got)
	}
}

func TestStringEscapes(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"s"}, []any{"it's"})}
	got := q(t, "SELECT s FROM t WHERE s = 'it''s'", cat)
	if got.Len() != 1 {
		t.Fatalf("quote escape: %s", got)
	}
}

func TestErrors(t *testing.T) {
	cat := Catalog{"t": tbl(t, []string{"a"}, []any{1})}
	bad := []string{
		"SELECT nope FROM t",
		"SELECT a FROM missing",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t t2, t t2",
		"SELECT a FROM t ORDER BY a + 1",
		"SELECT",
	}
	for _, sql := range bad {
		query, err := Parse(sql)
		if err != nil {
			continue
		}
		if _, err := Run(query, cat); err == nil {
			t.Errorf("accepted bad query %q", sql)
		}
		if _, err := Interpret(query, cat); err == nil {
			t.Errorf("the interpreter accepted bad query %q", sql)
		}
	}
}

func TestDuplicateOutputNamesUniquified(t *testing.T) {
	cat := Catalog{
		"a": tbl(t, []string{"x"}, []any{1}),
		"b": tbl(t, []string{"x"}, []any{1}),
	}
	got := q(t, "SELECT p.x, r.x FROM a p, b r WHERE p.x = r.x", cat)
	if got.Schema().Len() != 2 {
		t.Fatalf("schema: %s", got.Schema())
	}
	if got.Schema().Col(0).Name == got.Schema().Col(1).Name {
		t.Errorf("duplicate output names: %s", got.Schema())
	}
}
