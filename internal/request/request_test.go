package request

import (
	"testing"
	"testing/quick"
)

func TestOpBasics(t *testing.T) {
	for _, o := range []Op{Read, Write, Abort, Commit} {
		if !o.Valid() {
			t.Errorf("%q invalid", o)
		}
		back, err := ParseOp(o.String())
		if err != nil || back != o {
			t.Errorf("round trip %q: %v", o, err)
		}
	}
	if Op('x').Valid() {
		t.Error("x valid")
	}
	if _, err := ParseOp("rw"); err == nil {
		t.Error("parsed two-letter op")
	}
	if Read.IsTermination() || Write.IsTermination() || !Commit.IsTermination() || !Abort.IsTermination() {
		t.Error("termination classification wrong")
	}
}

func TestConflicts(t *testing.T) {
	w1 := Request{TA: 1, Op: Write, Object: 5}
	r2 := Request{TA: 2, Op: Read, Object: 5}
	r1 := Request{TA: 1, Op: Read, Object: 5}
	r3 := Request{TA: 3, Op: Read, Object: 5}
	w9 := Request{TA: 9, Op: Write, Object: 6}
	c2 := Request{TA: 2, Op: Commit}
	if !Conflicts(w1, r2) || !Conflicts(r2, w1) {
		t.Error("w/r same object different TA must conflict")
	}
	if Conflicts(w1, r1) {
		t.Error("same TA never conflicts")
	}
	if Conflicts(r2, r3) {
		t.Error("read/read must not conflict")
	}
	if Conflicts(w1, w9) {
		t.Error("different objects must not conflict")
	}
	if Conflicts(w1, c2) {
		t.Error("commit never conflicts")
	}
}

func TestConflictsSymmetric(t *testing.T) {
	ops := []Op{Read, Write, Commit, Abort}
	f := func(ta1, ta2 uint8, o1, o2 uint8, obj1, obj2 uint8) bool {
		a := Request{TA: int64(ta1 % 4), Op: ops[o1%4], Object: int64(obj1 % 4)}
		b := Request{TA: int64(ta2 % 4), Op: ops[o2%4], Object: int64(obj2 % 4)}
		return Conflicts(a, b) == Conflicts(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	r := Request{ID: 7, TA: 3, IntraTA: 2, Op: Write, Object: 99, Priority: 5}
	got, err := FromTuple(r.Tuple())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.TA != 3 || got.IntraTA != 2 || got.Op != Write || got.Object != 99 {
		t.Errorf("five-column round trip: %+v", got)
	}
	row := r.Row()
	if got, err = FromTuple(row); err != nil {
		t.Fatal(err)
	}
	if got.Priority != 5 || row[6].AsInt() != r.ID {
		t.Errorf("extended round trip: %+v, arrival column %v (want the ID)", got, row[6])
	}
}

// TestRowIsBuiltOnce: WithRow builds the row once and every copy of the
// request hands out that instance, without allocating; the five-column form
// is its prefix, capped so an append cannot write into it; WithID drops a
// row built for the old number. The op's letter is a constant, so a row
// costs one allocation. An invalid op still converts.
func TestRowIsBuiltOnce(t *testing.T) {
	for _, o := range []Op{Read, Write, Abort, Commit} {
		r := Request{ID: 7, TA: 3, IntraTA: 2, Op: o, Object: 99, Priority: 5}
		if n := testing.AllocsPerRun(100, func() { _ = r.WithRow() }); n != 1 {
			t.Errorf("WithRow of a %q request: %v allocations, want 1", o, n)
		}
		held := r.WithRow()
		cp := held
		if n := testing.AllocsPerRun(100, func() { _, _ = cp.Row(), cp.Tuple() }); n != 0 {
			t.Errorf("Row of a %q request that carries one: %v allocations, want 0", o, n)
		}
		row, five := held.Row(), cp.Tuple()
		if &row[0] != &five[0] || &row[0] != &cp.WithRow().Row()[0] || len(five) != 5 || cap(five) != 5 {
			t.Errorf("%q: copies do not share the row (five-column len %d cap %d)", o, len(five), cap(five))
		}
		if got := row[3].AsString(); got != o.String() || len(got) != 1 || got[0] != byte(o) {
			t.Errorf("op column %q for %q", got, o)
		}
		if moved := held.WithID(8).Row(); moved[0].AsInt() != 8 || moved[6].AsInt() != 8 || row[0].AsInt() != 7 {
			t.Errorf("WithID: row %v, old row %v", moved, row)
		}
	}
	if got := Op('x').String(); got != "x" {
		t.Errorf("invalid op converts to %q", got)
	}
}

func TestRelationsRoundTrip(t *testing.T) {
	var id int64
	next := func() int64 { id++; return id }
	tx := NewBuilder(1, next).Read(10).Write(10).Commit()
	rel := ToRelation(tx.Requests)
	if rel.Len() != 3 {
		t.Fatalf("relation len: %d", rel.Len())
	}
	back, err := AppendFromTuples(nil, rel.Rows())
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i].Key() != tx.Requests[i].Key() || back[i].Op != tx.Requests[i].Op {
			t.Errorf("row %d mismatch: %v vs %v", i, back[i], tx.Requests[i])
		}
	}
}

func TestBuilderProducesValidTransaction(t *testing.T) {
	var id int64
	next := func() int64 { id++; return id }
	tx := NewBuilder(42, next).SetClass("premium", 10).Read(1).Write(2).Read(3).Commit()
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tx.Requests) != 4 {
		t.Fatalf("requests: %d", len(tx.Requests))
	}
	if tx.Requests[3].Op != Commit || tx.Requests[3].IntraTA != 3 {
		t.Errorf("commit request: %v", tx.Requests[3])
	}
	if tx.Requests[0].Priority != 10 || tx.Requests[0].Class != "premium" {
		t.Errorf("class not applied: %+v", tx.Requests[0])
	}
	ab := NewBuilder(43, next).Write(1).Abort()
	if ab.Requests[1].Op != Abort {
		t.Errorf("abort builder: %v", ab.Requests)
	}
}

func TestTransactionValidateCatchesErrors(t *testing.T) {
	bad := []Transaction{
		{TA: 1, Requests: []Request{{TA: 2, Op: Read}}},
		{TA: 1, Requests: []Request{{TA: 1, IntraTA: 5, Op: Read}}},
		{TA: 1, Requests: []Request{{TA: 1, IntraTA: 0, Op: Commit}, {TA: 1, IntraTA: 1, Op: Read}}},
		{TA: 1, Requests: []Request{{TA: 1, IntraTA: 0, Op: Op('z')}}},
	}
	for i, tx := range bad {
		if err := tx.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFromTupleErrors(t *testing.T) {
	r := Request{ID: 1, TA: 1, Op: Read}
	tu := r.Tuple()
	if _, err := FromTuple(tu[:3]); err == nil {
		t.Error("short tuple accepted")
	}
}
