package datalog

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/rules"
)

// TestUnfoldShippedTexts: for every rule text in internal/rules, the derived
// predicates the engine stores after unfolding and the number of strata it
// evaluates. Only outputs and helpers that cannot stand in for their
// occurrences stay: SLA's two-rule `beats`, read positively, and
// wound-wait's two-rule `wound`, read under `not`. An unfolded predicate has
// no fact set. SS2PL's lock rules become the hand-unfolded text.
func TestUnfoldShippedTexts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		stored []string
		strata int
	}{
		{"ss2pl", rules.SS2PLDatalog, []string{"blocked", "qualified"}, 2},
		{"2pl", rules.TwoPLDatalog, []string{"blocked", "qualified"}, 2},
		{"sla", rules.SLAPriorityDatalog, []string{"beats", "blocked", "qualified"}, 3},
		{"relaxed", rules.RelaxedReadsDatalog, []string{"blocked", "qualified"}, 2},
		{"fcfs", rules.FCFSDatalog, []string{"qualified"}, 1},
		{"woundwait", rules.WoundWaitDatalog, []string{"blocked", "qualified", "wound"}, 3},
		{"rationing", rules.ConsistencyRationingDatalog, []string{"blocked", "qualified"}, 2},
	} {
		prog := MustParse(tc.src)
		e, err := NewEngine(prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stored := slices.Sorted(maps.Keys(e.idb))
		if !slices.Equal(stored, tc.stored) || e.numStrata != tc.strata {
			t.Errorf("%s: stores %v in %d strata, want %v in %d\n%s", tc.name, stored, e.numStrata, tc.stored, tc.strata, e.prog)
		}
		for p := range prog.IDB() {
			if _, ok := e.facts[p]; ok != e.idb[p] || e.unfolded[p] == e.idb[p] {
				t.Errorf("%s: %s has a fact set %v, stored %v, unfolded %v", tc.name, p, ok, e.idb[p], e.unfolded[p])
			}
		}
	}

	e, err := NewEngine(MustParse(rules.SS2PLDatalog))
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse(`
		blocked(TA, I) :- request(_, TA, I, _, OBJ), history(_, TA2, _, "w", OBJ),
		                  not history(_, TA2, _, "c", _), not history(_, TA2, _, "a", _), TA2 != TA.
		blocked(TA, I) :- request(_, TA, I, "w", OBJ), history(_, TA2, _, "r", OBJ),
		                  not history(_, TA2, _, "c", _), not history(_, TA2, _, "a", _),
		                  not history(_, TA2, _, "w", OBJ), TA2 != TA.
		blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.
		blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), request(_, TA1, _, _, OBJ), TA2 > TA1.
		qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
	`)
	if got := e.prog.String(); got != want.String() {
		t.Errorf("SS2PL unfolds to\n%s\nwant\n%s", got, want)
	}
}

// TestUnfoldedPredicatesAnswerOnDemand: Facts, FactSeq and FactCount of an
// unfolded predicate evaluate the program as written over the current EDB,
// once per run however often they are asked, and stored predicates never
// cause that evaluation. An unfolded predicate is still defined by rules:
// SetEDB and a delta on it are refused.
func TestUnfoldedPredicatesAnswerOnDemand(t *testing.T) {
	prog := MustParse(rules.SS2PLDatalog)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	hist := func(id, ta int64, op string, obj int64) relation.Tuple {
		return relation.Tuple{relation.Int(id), relation.Int(ta), relation.Int(0), relation.String(op), relation.Int(obj)}
	}
	edb := map[string][]relation.Tuple{
		"request": {hist(10, 3, "w", 5), hist(11, 4, "r", 6)},
		"history": {hist(1, 1, "w", 5), hist(2, 1, "r", 6), hist(3, 2, "w", 6), hist(4, 2, "c", -1)},
	}
	for p, rows := range edb {
		if err := e.SetEDB(p, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.FactCount("qualified") != 1 || e.FactCount("blocked") != 1 || e.OnDemandRuns() != 0 {
		t.Fatalf("qualified %d, blocked %d, on-demand runs %d", e.FactCount("qualified"), e.FactCount("blocked"), e.OnDemandRuns())
	}
	check := func(step string, wantRuns int) {
		t.Helper()
		ref := freshRun(t, prog, edb, true)
		for _, p := range []string{"finished", "wlock", "wrote", "rlock"} {
			got, want := e.Facts(p).Distinct(), ref.Facts(p).Distinct()
			if !got.Equal(want) || e.FactCount(p) != want.Len() || len(slices.Collect(e.FactSeq(p))) != want.Len() {
				t.Fatalf("%s: %s is\n%s\nwant\n%s", step, p, got, want)
			}
		}
		if got := e.OnDemandRuns(); got != wantRuns {
			t.Fatalf("%s: %d on-demand runs, want %d", step, got, wantRuns)
		}
	}
	check("cold", 1)
	d := EDBDelta{Insert: []relation.Tuple{hist(5, 1, "c", -1)}, Delete: edb["history"][2:]}
	if err := e.RunIncremental(map[string]EDBDelta{"history": d}); err != nil {
		t.Fatal(err)
	}
	edb["history"] = applyDeltaMirror(edb["history"], d)
	check("warm", 2)
	if err := e.RunIncremental(nil); err != nil || e.Stats.Strategy != StrategyNone {
		t.Fatalf("empty batch: %v, %s", err, e.Stats.Strategy)
	}
	check("empty batch", 2)
	if err := e.SetEDB("wlock", nil); err == nil {
		t.Error("SetEDB on an unfolded predicate accepted")
	}
	if err := e.RunIncremental(map[string]EDBDelta{"rlock": {}}); err == nil {
		t.Error("delta on an unfolded predicate accepted")
	}
}

// TestUnfoldSubstitutesConstantsAndWildcards: an occurrence's constant
// replaces the head variable everywhere in the body, including an
// assignment that then binds a body variable from it; each `_` of an
// occurrence and each body-only variable is renamed apart, so two
// occurrences of one helper in a rule do not share them; and a head
// variable that repeats in a one-atom body keeps the helper stored where
// it is read as `not h(_)`.
func TestUnfoldSubstitutesConstantsAndWildcards(t *testing.T) {
	prog := MustParse(`
		pair(X, Y) :- e(X, Y), X = Z, not f(Z, Y).
		p(B) :- pair(1, B).
		two(X) :- e(X, _), f(_, X).
		q(A, C) :- e(A, C), two(A), two(C).
		self(X) :- e(X, X).
		lone(A) :- f(A, A), not self(_).
		other(A) :- f(A, _), not self(A).
	`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]bool{"pair": true, "two": true, "self": false} {
		if e.unfolded[p] != want {
			t.Errorf("%s unfolded %v, want %v\n%s", p, e.unfolded[p], want, e.prog)
		}
	}
	rows := func(pairs ...[2]int64) []relation.Tuple {
		var out []relation.Tuple
		for _, p := range pairs {
			out = append(out, relation.Tuple{relation.Int(p[0]), relation.Int(p[1])})
		}
		return out
	}
	edb := map[string][]relation.Tuple{
		"e": rows([2]int64{1, 4}, [2]int64{1, 5}, [2]int64{2, 3}, [2]int64{3, 3}, [2]int64{4, 2}),
		"f": rows([2]int64{7, 2}, [2]int64{7, 3}, [2]int64{9, 9}, [2]int64{8, 1}, [2]int64{1, 5}),
	}
	got, ref := freshRun(t, prog, edb, false), freshRun(t, prog, edb, true)
	for p := range prog.IDB() {
		if g, w := got.Facts(p).Distinct(), ref.Facts(p).Distinct(); !g.Equal(w) {
			t.Errorf("%s:\n%s\nwant\n%s", p, g, w)
		}
	}
	if n := got.FactCount("p"); n != 1 {
		t.Errorf("p holds %d facts, want 1 (4)", n)
	}
	if n := got.FactCount("q"); n != 2 {
		t.Errorf("q holds %d facts, want 2 ((2, 3) and (3, 3))", n)
	}
}
