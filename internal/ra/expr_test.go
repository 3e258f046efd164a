package ra

import (
	"testing"

	"repro/internal/relation"
)

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
