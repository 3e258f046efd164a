package ra_test

// The relational operators of a SQL plan are the view cache's delta rules
// (minisql's IVM), the one evaluator, so their semantics are pinned here in
// SQL: each test runs its query through minisql.Run, which builds a view
// cache with the catalog as its first delta and reads the root, and checks
// the answer against one computed by hand or by Go loops that never see a
// plan — selection, projection, the inner, left, semi- and anti-joins,
// UNION ALL, EXCEPT, DISTINCT, ORDER BY and renaming.

import (
	"math/rand"
	"testing"

	"repro/internal/minisql"
	"repro/internal/relation"
)

// ints builds a relation over int columns named names.
func ints(names []string, rows ...[]int64) *relation.Relation {
	cols := make([]relation.Column, len(names))
	for i, n := range names {
		cols[i] = relation.Column{Name: n, Kind: relation.KindInt}
	}
	r := relation.New(relation.NewSchema(cols...))
	for _, row := range rows {
		tu := make(relation.Tuple, len(row))
		for i, v := range row {
			tu[i] = relation.Int(v)
		}
		r.MustAppend(tu)
	}
	return r
}

// run parses sql and runs it against cat, failing the test on an error.
func run(t testing.TB, sql string, cat minisql.Catalog) *relation.Relation {
	t.Helper()
	q, err := minisql.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	out, err := minisql.Run(q, cat)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return out
}

func TestSelectRejectsUnknown(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2})
	r.MustAppend(relation.Tuple{relation.Null()})
	got := run(t, "SELECT a FROM r WHERE a > 0", minisql.Catalog{"r": r})
	if got.Len() != 2 {
		t.Errorf("select kept %d rows, want 2 (NULL row must be dropped)", got.Len())
	}
}

func TestProject(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	p := run(t, "SELECT a + b AS sum FROM r", minisql.Catalog{"r": r})
	if _, ok := p.Schema().Index("sum"); !ok || !p.Equal(ints([]string{"sum"}, []int64{11}, []int64{22})) {
		t.Errorf("project result: %v", p)
	}
}

func TestHashJoinMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		l := ints([]string{"a", "b"})
		r := ints([]string{"c", "d"})
		for i := 0; i < rng.Intn(20); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(5)), relation.Int(rng.Int63n(5))})
		}
		for i := 0; i < rng.Intn(20); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(5)), relation.Int(rng.Int63n(5))})
		}
		fast := run(t, "SELECT * FROM l, r WHERE l.a = r.c", minisql.Catalog{"l": l, "r": r})
		slow := ints([]string{"a", "b", "c", "d"})
		for _, lt := range l.Rows() {
			for _, rt := range r.Rows() {
				if lt[0].Equal(rt[0]) {
					slow.MustAppend(append(lt.Clone(), rt...))
				}
			}
		}
		if !fast.Equal(slow) {
			t.Fatalf("trial %d: hash join != nested loops:\n%s\nvs\n%s", trial, fast, slow)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	l := ints([]string{"a"})
	l.MustAppend(relation.Tuple{relation.Null()})
	r := ints([]string{"b"})
	r.MustAppend(relation.Tuple{relation.Null()})
	if j := run(t, "SELECT * FROM l, r WHERE l.a = r.b", minisql.Catalog{"l": l, "r": r}); j.Len() != 0 {
		t.Errorf("NULL keys joined: %v", j)
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	l := ints([]string{"a"}, []int64{1}, []int64{2})
	r := ints([]string{"b", "c"}, []int64{1, 100})
	j := run(t, "SELECT * FROM l LEFT JOIN r ON l.a = r.b", minisql.Catalog{"l": l, "r": r})
	if j.Len() != 2 {
		t.Fatalf("left join len %d", j.Len())
	}
	var matched, padded int
	for _, row := range j.Rows() {
		if row[1].IsNull() {
			padded++
			if row[0].AsInt() != 2 || !row[2].IsNull() {
				t.Errorf("wrong padded row: %v", row)
			}
		} else {
			matched++
		}
	}
	if matched != 1 || padded != 1 {
		t.Errorf("matched=%d padded=%d", matched, padded)
	}
}

func TestSemiAntiJoinPartition(t *testing.T) {
	// EXISTS and NOT EXISTS partition l.
	const semi = "SELECT a FROM l WHERE EXISTS (SELECT * FROM r WHERE r.b = l.a)"
	const anti = "SELECT a FROM l WHERE NOT EXISTS (SELECT * FROM r WHERE r.b = l.a)"
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		l := ints([]string{"a"})
		r := ints([]string{"b"})
		for i := 0; i < 1+rng.Intn(15); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(6))})
		}
		for i := 0; i < rng.Intn(15); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(6))})
		}
		cat := minisql.Catalog{"l": l, "r": r}
		s, a := run(t, semi, cat), run(t, anti, cat)
		if s.Len()+a.Len() != l.Len() {
			t.Fatalf("partition broken: %d + %d != %d", s.Len(), a.Len(), l.Len())
		}
		if both := run(t, "("+semi+") UNION ALL ("+anti+")", cat); !both.Equal(l) {
			t.Fatalf("semi ∪ anti != l")
		}
	}
}

func TestAntiJoinWithResidual(t *testing.T) {
	l := ints([]string{"x", "y"}, []int64{1, 5}, []int64{2, 5})
	r := ints([]string{"x", "y"}, []int64{1, 9})
	got := run(t, "SELECT * FROM l a WHERE NOT EXISTS (SELECT * FROM r b WHERE b.x = a.x AND b.y > a.y)",
		minisql.Catalog{"l": l, "r": r})
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 2 {
		t.Errorf("anti with residual: %v", got)
	}
}

func TestExceptSetSemantics(t *testing.T) {
	l := ints([]string{"a"}, []int64{1}, []int64{1}, []int64{2}, []int64{3})
	r := ints([]string{"a"}, []int64{2})
	got := run(t, "(SELECT a FROM l) EXCEPT (SELECT a FROM r)", minisql.Catalog{"l": l, "r": r})
	if want := ints([]string{"a"}, []int64{1}, []int64{3}); !got.Equal(want) {
		t.Errorf("except: %v", got)
	}
}

func TestOrderBy(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{2, 1}, []int64{1, 2}, []int64{1, 1})
	got := run(t, "SELECT a, b FROM r ORDER BY a, b DESC", minisql.Catalog{"r": r})
	wantOrder := [][2]int64{{1, 2}, {1, 1}, {2, 1}}
	for i, w := range wantOrder {
		row := got.Row(i)
		if row[0].AsInt() != w[0] || row[1].AsInt() != w[1] {
			t.Errorf("row %d = %v, want %v", i, row, w)
		}
	}
}

func TestRename(t *testing.T) {
	cat := minisql.Catalog{"r": ints([]string{"a"}, []int64{1})}
	got := run(t, "SELECT z.a AS zz FROM r z", cat)
	if _, ok := got.Schema().Index("zz"); !ok || got.Len() != 1 {
		t.Errorf("rename lost column: %s", got)
	}
	q, err := minisql.Parse("(SELECT a FROM r) UNION ALL (SELECT a, a FROM r)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := minisql.Run(q, cat); err == nil {
		t.Error("bad arity accepted")
	}
}

func TestSelectionPushdownIdentity(t *testing.T) {
	// σ(l ⋈ r) ≡ σ(l) ⋈ r when the predicate references only left columns.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		l := ints([]string{"a", "b"})
		r := ints([]string{"c"})
		for i := 0; i < rng.Intn(15); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(4)), relation.Int(rng.Int63n(4))})
		}
		for i := 0; i < rng.Intn(15); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(4))})
		}
		cat := minisql.Catalog{"l": l, "r": r}
		a := run(t, "SELECT * FROM (SELECT * FROM l, r WHERE l.a = r.c) j WHERE j.b > 1", cat)
		b := run(t, "SELECT * FROM (SELECT * FROM l WHERE b > 1) f, r WHERE f.a = r.c", cat)
		if !a.Equal(b) {
			t.Fatalf("pushdown identity broken at trial %d", trial)
		}
	}
}
