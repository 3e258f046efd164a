package datalog

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

// lookupCount counts the tuples of f matching vals on cols through f's index
// over cols, walking the candidate chain the way the evaluator does.
func lookupCount(f *relation.Bag, cols []int, vals []relation.Value) int {
	n := 0
	ix := f.IndexNullable(cols)
	for p := ix.First(relation.HashValues(vals)); p >= 0; p = ix.Next(p) {
		if matchAt(f.At(p), cols, vals) {
			n++
		}
	}
	return n
}

func TestFactSetLookupPaths(t *testing.T) {
	// A fact set with an index on column 0, maintained on every insert.
	f := relation.NewBag(anySchema(2))
	f.IndexNullable([]int{0})
	for i := int64(0); i < 10; i++ {
		if err := insertEDB(f, relation.Tuple{relation.Int(i % 3), relation.Int(i)}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if insert(f, relation.Tuple{relation.Int(0), relation.Int(0)}) {
		t.Error("duplicate added")
	}
	if f.DistinctLen() != 10 || f.Len() != 10 {
		t.Errorf("full scan: %d distinct, %d copies", f.DistinctLen(), f.Len())
	}
	if got := lookupCount(f, []int{0}, []relation.Value{relation.Int(0)}); got != 4 {
		t.Errorf("lookup col0=0: %d", got)
	}
	if err := insertEDB(f, relation.Tuple{relation.Int(0), relation.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupCount(f, []int{0}, []relation.Value{relation.Int(0)}); got != 5 {
		t.Errorf("index not maintained: %d", got)
	}
	if err := insertEDB(f, relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// NULL unifies with NULL, so a NULL key is filed and found.
	if err := insertEDB(f, relation.Tuple{relation.Null(), relation.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupCount(f, []int{0}, []relation.Value{relation.Null()}); got != 1 {
		t.Errorf("lookup col0=NULL: %d", got)
	}
	if !insert(f, relation.Tuple{relation.Int(5), relation.Int(5)}) {
		t.Fatal("new fact not added")
	}
	// Removal keeps the membership chain and every index consistent.
	if _, ok := f.Remove(relation.Tuple{relation.Int(0), relation.Int(0)}, 1); !ok {
		t.Fatal("remove existing")
	}
	if _, ok := f.Remove(relation.Tuple{relation.Int(0), relation.Int(0)}, 1); ok {
		t.Error("double remove: removed tuple still present")
	}
	if got := lookupCount(f, []int{0}, []relation.Value{relation.Int(0)}); got != 4 {
		t.Errorf("index after remove: %d", got)
	}
	if f.DistinctLen() != 12 {
		t.Errorf("len after remove: %d", f.DistinctLen())
	}
	if err := checkFactSet(f, []*relation.BagIndex{f.IndexNullable([]int{0})}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsWrongArityEDBAtRun(t *testing.T) {
	prog := MustParse(`p(X) :- q(X, X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("q", []relation.Tuple{{relation.Int(1)}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestArithmeticChain(t *testing.T) {
	// Note: '%' is the comment character in Datalog syntax, so there is no
	// modulo operator; +, -, * and / chain through fresh variables.
	got := run(t, `
		r(W) :- v(X), Y = X + 1, Z = Y * 2, W = Z / 3.
	`, map[string][]relation.Tuple{"v": intTuples([]int64{4})}, "r")
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 3 {
		t.Fatalf("chain: %s", got)
	}
}

func TestDivisionByZeroDerivesNothing(t *testing.T) {
	got := run(t, `r(Y) :- v(X), Y = 1 / X.`,
		map[string][]relation.Tuple{"v": intTuples([]int64{0}, []int64{2})}, "r")
	if got.Len() != 1 || got.Row(0)[0].AsInt() != 0 {
		t.Fatalf("div: %s", got)
	}
}

func TestConstantInHeadAndBody(t *testing.T) {
	got := run(t, `
		tagged(1, X) :- v(X).
		only5(X) :- v(X), X = 5.
	`, map[string][]relation.Tuple{"v": intTuples([]int64{5}, []int64{6})}, "tagged")
	if got.Len() != 2 {
		t.Fatalf("tagged: %s", got)
	}
	for _, row := range got.Rows() {
		if row[0].AsInt() != 1 {
			t.Errorf("head constant: %s", row)
		}
	}
}

func TestStratumStatsAndFactsForUnknownPredicate(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Facts("nonexistent").Len() != 0 {
		t.Error("unknown predicate should be empty")
	}
	if e.Facts("p").Len() != 0 {
		t.Error("p should be empty with no EDB")
	}
}

func TestProgramString(t *testing.T) {
	prog := MustParse(`p(1). q(X) :- p(X).`)
	s := prog.String()
	if !strings.Contains(s, "p(1).") || !strings.Contains(s, "q(X) :- p(X).") {
		t.Errorf("program string: %q", s)
	}
}

func TestDeepRecursionTerminates(t *testing.T) {
	var edges []relation.Tuple
	for i := int64(0); i < 500; i++ {
		edges = append(edges, relation.Tuple{relation.Int(i), relation.Int(i + 1)})
	}
	got := run(t, `
		reach(Y) :- start(X), edge(X, Y).
		reach(Z) :- reach(Y), edge(Y, Z).
	`, map[string][]relation.Tuple{
		"edge":  edges,
		"start": intTuples([]int64{0}),
	}, "reach")
	if got.Len() != 500 {
		t.Fatalf("reach: %d", got.Len())
	}
}

func TestMixedTypesInPredicate(t *testing.T) {
	// Dynamically typed predicates may mix ints and strings per column.
	got := run(t, `out(X) :- v(X).`, map[string][]relation.Tuple{
		"v": {{relation.Int(1)}, {relation.String("x")}},
	}, "out")
	if got.Len() != 2 {
		t.Fatalf("mixed: %s", got)
	}
}

// TestNullKeysUnifyInLookupsAndNegation: Datalog unifies NULL with NULL
// (relation.Value.Equal), so an index probe on a NULL key finds the facts
// filed under it and a negated atom over one blocks — which is why the rule
// steps probe IndexNullable indexes, not the SQL join indexes that file NULL
// keys nowhere.
func TestNullKeysUnifyInLookupsAndNegation(t *testing.T) {
	null := relation.Null()
	edb := map[string][]relation.Tuple{
		"a": {{null}, {relation.Int(1)}},
		"b": {{null, relation.Int(5)}, {relation.Int(1), relation.Int(6)}},
		"c": {{null}},
	}
	p := run(t, `p(X, Y) :- a(X), b(X, Y).`, edb, "p")
	if p.Len() != 2 || !holds(p, relation.Tuple{null, relation.Int(5)}) {
		t.Errorf("lookup on a NULL key: %s", p)
	}
	q := run(t, `q(X) :- a(X), not c(X).`, edb, "q")
	if q.Len() != 1 || !holds(q, relation.Tuple{relation.Int(1)}) {
		t.Errorf("negation on a NULL key: %s", q)
	}
}
