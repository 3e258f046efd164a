package relation

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if !Int(5).Equal(Int(5)) {
		t.Error("Int(5) != Int(5)")
	}
	if Int(5).Equal(Int(6)) {
		t.Error("Int(5) == Int(6)")
	}
	if Int(5).Equal(String("5")) {
		t.Error("Int(5) == String(5)")
	}
	if !Null().IsNull() {
		t.Error("Null not null")
	}
	if !Null().Equal(Null()) {
		t.Error("Null != Null under Equal")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Error("a !< b")
	}
	if Int(2).Compare(Int(2)) != 0 {
		t.Error("2 != 2 via Compare")
	}
	if Null().Compare(Int(0)) != -1 {
		t.Error("NULL should sort first")
	}
}

func TestValueEncode(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(0), "0"},
		{Int(-42), "-42"},
		{Int(1 << 40), "1099511627776"},
		{String(""), `""`},
		{String("hello"), `"hello"`},
		{String("with \"quotes\" and, comma"), `"with \"quotes\" and, comma"`},
	}
	for _, c := range cases {
		if got := c.v.Encode(); got != c.want {
			t.Errorf("Encode(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestValueHashConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Equal(vb) && va.Hash() != vb.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Int(1).Hash() == String("1").Hash() {
		t.Error("int and string hashes should be domain separated")
	}
}

// TestIntHashSpreadsSequentialIds: the flat tables file an entry under its
// hash's low bits, and the keys that churn through them are sequential ids
// (request and transaction ids). Filed at load factor 1 — as many entries as
// buckets, the most a table holds before it doubles — sequential ids, alone
// and as the first column of a tuple, must leave no bucket with a long chain.
func TestIntHashSpreadsSequentialIds(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 16} {
		for _, base := range []int64{0, 1 << 20, -1 << 40} {
			for name, hash := range map[string]func(int64) uint64{
				"value": func(i int64) uint64 { return Int(i).Hash() },
				"tuple": func(i int64) uint64 { return Tuple{Int(i), Int(7)}.Hash() },
			} {
				fill := make([]int, n)
				longest := 0
				for i := int64(0); i < int64(n); i++ {
					b := hash(base+i) & uint64(n-1)
					fill[b]++
					longest = max(longest, fill[b])
				}
				if longest > 12 {
					t.Errorf("%s hash, %d ids from %d: a bucket chains %d of them", name, n, base, longest)
				}
			}
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(Column{"ID", KindInt}, Column{"Operation", KindString})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	i, ok := s.Index("id")
	if !ok || i != 0 {
		t.Errorf("Index(id) = %d, %v", i, ok)
	}
	i, ok = s.Index("OPERATION")
	if !ok || i != 1 {
		t.Errorf("Index(OPERATION) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("found nonexistent column")
	}
	p, err := s.Project("operation")
	if err != nil || p.Len() != 1 || p.Col(0).Name != "operation" {
		t.Errorf("project: %v %v", p, err)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate column")
		}
	}()
	NewSchema(Column{"a", KindInt}, Column{"A", KindInt})
}

func testSchema() *Schema {
	return NewSchema(Column{"id", KindInt}, Column{"op", KindString})
}

func TestRelationAppendValidates(t *testing.T) {
	r := New(testSchema())
	if err := r.Append(Tuple{Int(1), String("r")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.Append(Tuple{String("x"), String("r")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := r.Append(Tuple{Null(), String("r")}); err != nil {
		t.Errorf("NULL rejected: %v", err)
	}
}

func TestRelationDistinctAndEqual(t *testing.T) {
	r := New(testSchema())
	r.MustAppend(Tuple{Int(1), String("r")})
	r.MustAppend(Tuple{Int(1), String("r")})
	r.MustAppend(Tuple{Int(2), String("w")})
	d := r.Distinct()
	if d.Len() != 2 {
		t.Errorf("distinct len = %d", d.Len())
	}
	o := New(testSchema())
	o.MustAppend(Tuple{Int(2), String("w")})
	o.MustAppend(Tuple{Int(1), String("r")})
	if !d.Equal(o) {
		t.Error("order-insensitive equality failed")
	}
	if r.Equal(o) {
		t.Error("bag equality ignored duplicates")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(testSchema())
	r.MustAppend(Tuple{Int(1), String("read")})
	r.MustAppend(Tuple{Int(2), String("with,comma")})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", r, back)
	}
}

func TestTupleCompareIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() Tuple {
		return Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(5))}
	}
	for i := 0; i < 200; i++ {
		a, b, c := mk(), mk(), mk()
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry: %v %v", a, b)
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity: %v %v %v", a, b, c)
		}
	}
}

func TestTupleHashStableUnderClone(t *testing.T) {
	tu := Tuple{Int(9), String("x")}
	if tu.Hash() != tu.Clone().Hash() {
		t.Error("clone hash differs")
	}
}
