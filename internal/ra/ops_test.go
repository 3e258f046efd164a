package ra

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func mk(t *testing.T, names []string, rows ...[]int64) *relation.Relation {
	t.Helper()
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

func TestTVLogic(t *testing.T) {
	if True.And(Unknown) != Unknown || False.And(Unknown) != False {
		t.Error("Kleene AND wrong")
	}
	if True.Or(Unknown) != True || False.Or(Unknown) != Unknown {
		t.Error("Kleene OR wrong")
	}
	if Unknown.Not() != Unknown || True.Not() != False || False.Not() != True {
		t.Error("Kleene NOT wrong")
	}
}

func TestCmpNullIsUnknown(t *testing.T) {
	e := Cmp{EQ, Lit{relation.Null()}, Lit{relation.Int(1)}}
	if Truth(e.Eval(nil)) != Unknown {
		t.Error("NULL = 1 should be Unknown")
	}
	ne := Cmp{NE, Lit{relation.Null()}, Lit{relation.Null()}}
	if Truth(ne.Eval(nil)) != Unknown {
		t.Error("NULL <> NULL should be Unknown")
	}
}

func TestCmpOperators(t *testing.T) {
	two, three := Lit{relation.Int(2)}, Lit{relation.Int(3)}
	cases := []struct {
		op   CmpOp
		want TV
	}{{EQ, False}, {NE, True}, {LT, True}, {LE, True}, {GT, False}, {GE, False}}
	for _, c := range cases {
		if got := Truth(Cmp{c.op, two, three}.Eval(nil)); got != c.want {
			t.Errorf("2 %s 3 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestArith(t *testing.T) {
	e := Arith{Add, Lit{relation.Int(2)}, Arith{Mul, Lit{relation.Int(3)}, Lit{relation.Int(4)}}}
	if got := e.Eval(nil); got.AsInt() != 14 {
		t.Errorf("2+3*4 = %v", got)
	}
	if !(Arith{Div, Lit{relation.Int(1)}, Lit{relation.Int(0)}}).Eval(nil).IsNull() {
		t.Error("div by zero should be NULL")
	}
	if !(Arith{Add, Lit{relation.Null()}, Lit{relation.Int(1)}}).Eval(nil).IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
}

func TestSelectRejectsUnknown(t *testing.T) {
	r := mk(t, []string{"a"}, []int64{1}, []int64{2})
	r.MustAppend(relation.Tuple{relation.Null()})
	got := Select(r, Cmp{GT, Col{Pos: 0}, Lit{relation.Int(0)}})
	if got.Len() != 2 {
		t.Errorf("select kept %d rows, want 2 (NULL row must be dropped)", got.Len())
	}
}

func TestProject(t *testing.T) {
	r := mk(t, []string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	p, err := Project(r, []NamedExpr{
		{Name: "sum", Kind: relation.KindInt, E: Arith{Add, Col{Pos: 0}, Col{Pos: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Row(0)[0].AsInt() != 11 || p.Row(1)[0].AsInt() != 22 {
		t.Errorf("project result: %v", p)
	}
}

func TestHashJoinMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		l := mk(t, []string{"a", "b"})
		r := mk(t, []string{"c", "d"})
		for i := 0; i < rng.Intn(20); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(5)), relation.Int(rng.Int63n(5))})
		}
		for i := 0; i < rng.Intn(20); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(5)), relation.Int(rng.Int63n(5))})
		}
		keys := []EquiKey{{L: 0, R: 0}}
		fast := HashJoin(l, r, keys, nil)
		slow := Select(CrossJoin(l, r), Cmp{EQ, Col{Pos: 0}, Col{Pos: 2}})
		if !fast.Equal(slow) {
			t.Fatalf("trial %d: hash join != nested loops:\n%s\nvs\n%s", trial, fast, slow)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	l := mk(t, []string{"a"})
	l.MustAppend(relation.Tuple{relation.Null()})
	r := mk(t, []string{"b"})
	r.MustAppend(relation.Tuple{relation.Null()})
	j := HashJoin(l, r, []EquiKey{{0, 0}}, nil)
	if j.Len() != 0 {
		t.Errorf("NULL keys joined: %v", j)
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	l := mk(t, []string{"a"}, []int64{1}, []int64{2})
	r := mk(t, []string{"b", "c"}, []int64{1, 100})
	j := LeftJoin(l, r, []EquiKey{{0, 0}}, nil)
	if j.Len() != 2 {
		t.Fatalf("left join len %d", j.Len())
	}
	var matched, padded int
	for _, row := range j.Rows() {
		if row[1].IsNull() {
			padded++
			if row[0].AsInt() != 2 {
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
	// semi(l) and anti(l) partition l.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		l := mk(t, []string{"a"})
		r := mk(t, []string{"b"})
		for i := 0; i < 1+rng.Intn(15); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(6))})
		}
		for i := 0; i < rng.Intn(15); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(6))})
		}
		keys := []EquiKey{{0, 0}}
		semi := SemiJoin(l, r, keys, nil)
		anti := AntiJoin(l, r, keys, nil)
		if semi.Len()+anti.Len() != l.Len() {
			t.Fatalf("partition broken: %d + %d != %d", semi.Len(), anti.Len(), l.Len())
		}
		both, err := UnionAll(semi, anti)
		if err != nil {
			t.Fatal(err)
		}
		if !both.Equal(l) {
			t.Fatalf("semi ∪ anti != l")
		}
	}
}

func TestAntiJoinWithResidual(t *testing.T) {
	// NOT EXISTS (b where b.x = a.x AND b.y > a.y)
	l := mk(t, []string{"x", "y"}, []int64{1, 5}, []int64{2, 5})
	r := mk(t, []string{"x", "y"}, []int64{1, 9})
	got := AntiJoin(l, r, []EquiKey{{0, 0}},
		Cmp{GT, Col{Pos: 3}, Col{Pos: 1}}) // r.y > l.y over concat (x,y,rx,ry)
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 2 {
		t.Errorf("anti with residual: %v", got)
	}
}

func TestExceptSetSemantics(t *testing.T) {
	l := mk(t, []string{"a"}, []int64{1}, []int64{1}, []int64{2}, []int64{3})
	r := mk(t, []string{"a"}, []int64{2})
	got, err := Except(l, r)
	if err != nil {
		t.Fatal(err)
	}
	want := mk(t, []string{"a"}, []int64{1}, []int64{3})
	if !got.Equal(want) {
		t.Errorf("except: %v", got)
	}
}

func TestOrderBy(t *testing.T) {
	r := mk(t, []string{"a", "b"}, []int64{2, 1}, []int64{1, 2}, []int64{1, 1})
	got := OrderBy(r, []SortSpec{{Pos: 0, Desc: false}, {Pos: 1, Desc: true}})
	wantOrder := [][2]int64{{1, 2}, {1, 1}, {2, 1}}
	for i, w := range wantOrder {
		row := got.Row(i)
		if row[0].AsInt() != w[0] || row[1].AsInt() != w[1] {
			t.Errorf("row %d = %v, want %v", i, row, w)
		}
	}
}

func TestRename(t *testing.T) {
	r := mk(t, []string{"a"}, []int64{1})
	got, err := Rename(r, []string{"zz"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Schema().Index("zz"); !ok {
		t.Error("rename lost column")
	}
	if _, err := Rename(r, []string{"a", "b"}); err == nil {
		t.Error("bad arity accepted")
	}
}

func TestSelectionPushdownIdentity(t *testing.T) {
	// σ(l ⋈ r) ≡ σ(l) ⋈ r when the predicate references only left columns.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		l := mk(t, []string{"a", "b"})
		r := mk(t, []string{"c"})
		for i := 0; i < rng.Intn(15); i++ {
			l.MustAppend(relation.Tuple{relation.Int(rng.Int63n(4)), relation.Int(rng.Int63n(4))})
		}
		for i := 0; i < rng.Intn(15); i++ {
			r.MustAppend(relation.Tuple{relation.Int(rng.Int63n(4))})
		}
		pred := Cmp{GT, Col{Pos: 1}, Lit{relation.Int(1)}}
		keys := []EquiKey{{L: 0, R: 0}}
		a := Select(HashJoin(l, r, keys, nil), pred)
		b := HashJoin(Select(l, pred), r, keys, nil)
		if !a.Equal(b) {
			t.Fatalf("pushdown identity broken at trial %d", trial)
		}
	}
}

func TestInList(t *testing.T) {
	e := InList{E: Col{Pos: 0}, Values: []relation.Value{relation.Int(1), relation.Int(3)}}
	if Truth(e.Eval(relation.Tuple{relation.Int(3)})) != True {
		t.Error("3 in (1,3) failed")
	}
	if Truth(e.Eval(relation.Tuple{relation.Int(2)})) != False {
		t.Error("2 in (1,3) should be false")
	}
	if Truth(e.Eval(relation.Tuple{relation.Null()})) != Unknown {
		t.Error("NULL in list should be unknown")
	}
	neg := InList{E: Col{Pos: 0}, Values: e.Values, Negate: true}
	if Truth(neg.Eval(relation.Tuple{relation.Int(2)})) != True {
		t.Error("2 not in (1,3) should be true")
	}
}
