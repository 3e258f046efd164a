package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/rules"
)

func run(t *testing.T, src string, edb map[string][]relation.Tuple, query string) *relation.Relation {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	for p, rows := range edb {
		if err := e.SetEDB(p, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Facts(query)
}

func intTuples(pairs ...[]int64) []relation.Tuple {
	out := make([]relation.Tuple, len(pairs))
	for i, p := range pairs {
		tu := make(relation.Tuple, len(p))
		for j, v := range p {
			tu[j] = relation.Int(v)
		}
		out[i] = tu
	}
	return out
}

// holds reports whether r holds a tuple equal to t.
func holds(r *relation.Relation, t relation.Tuple) bool { return relation.BagOf(r).Count(t) > 0 }

func TestTransitiveClosure(t *testing.T) {
	got := run(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`, map[string][]relation.Tuple{
		"edge": intTuples([]int64{1, 2}, []int64{2, 3}, []int64{3, 4}),
	}, "path")
	if got.Len() != 6 {
		t.Fatalf("path count = %d, want 6:\n%s", got.Len(), got)
	}
	if !holds(got, relation.Tuple{relation.Int(1), relation.Int(4)}) {
		t.Error("missing path(1,4)")
	}
}

func TestCyclicGraphTerminates(t *testing.T) {
	got := run(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`, map[string][]relation.Tuple{
		"edge": intTuples([]int64{1, 2}, []int64{2, 1}),
	}, "path")
	if got.Len() != 4 {
		t.Fatalf("cyclic closure = %d, want 4", got.Len())
	}
}

func TestNegationStratified(t *testing.T) {
	got := run(t, `
		reach(X) :- source(X).
		reach(Y) :- reach(X), edge(X, Y).
		unreached(X) :- node(X), not reach(X).
	`, map[string][]relation.Tuple{
		"source": intTuples([]int64{1}),
		"edge":   intTuples([]int64{1, 2}),
		"node":   intTuples([]int64{1}, []int64{2}, []int64{3}),
	}, "unreached")
	want := intTuples([]int64{3})
	if got.Len() != 1 || !holds(got, want[0]) {
		t.Fatalf("unreached = %s", got)
	}
}

func TestBuiltinsAndArithmetic(t *testing.T) {
	got := run(t, `
		big(X) :- v(X), X >= 10.
		double(Y) :- v(X), Y = X * 2.
		offset(Z) :- v(X), Z = X - 1.
		eqcheck(X) :- v(X), X = 5.
	`, map[string][]relation.Tuple{
		"v": intTuples([]int64{5}, []int64{10}, []int64{20}),
	}, "big")
	if got.Len() != 2 {
		t.Errorf("big: %s", got)
	}
}

func TestAssignmentBindsEitherDirection(t *testing.T) {
	got := run(t, `
		r(X, Y) :- v(X), Y = X.
	`, map[string][]relation.Tuple{"v": intTuples([]int64{7})}, "r")
	if got.Len() != 1 || got.Row(0)[1].AsInt() != 7 {
		t.Fatalf("assignment: %s", got)
	}
}

func TestStringConstants(t *testing.T) {
	got := run(t, `
		writes(TA, OBJ) :- history(TA, "w", OBJ).
	`, map[string][]relation.Tuple{
		"history": {
			{relation.Int(1), relation.String("w"), relation.Int(9)},
			{relation.Int(1), relation.String("r"), relation.Int(8)},
			{relation.Int(2), relation.String("w"), relation.Int(7)},
		},
	}, "writes")
	if got.Len() != 2 {
		t.Fatalf("writes: %s", got)
	}
}

func TestWildcards(t *testing.T) {
	got := run(t, `
		touched(TA) :- history(TA, _, _).
	`, map[string][]relation.Tuple{
		"history": {
			{relation.Int(1), relation.String("w"), relation.Int(9)},
			{relation.Int(1), relation.String("r"), relation.Int(8)},
			{relation.Int(2), relation.String("w"), relation.Int(7)},
		},
	}, "touched")
	if got.Len() != 2 {
		t.Fatalf("touched (set semantics): %s", got)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	got := run(t, `
		selfloop(X) :- edge(X, X).
	`, map[string][]relation.Tuple{
		"edge": intTuples([]int64{1, 1}, []int64{1, 2}, []int64{3, 3}),
	}, "selfloop")
	if got.Len() != 2 {
		t.Fatalf("selfloop: %s", got)
	}
}

func TestProgramFacts(t *testing.T) {
	got := run(t, `
		edge(1, 2).
		edge(2, 3).
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`, nil, "path")
	if got.Len() != 3 {
		t.Fatalf("path from program facts: %s", got)
	}
}

func TestSetEDBRejectsIDB(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("p", nil); err == nil {
		t.Error("SetEDB on IDB accepted")
	}
	if err := e.SetEDB("q", intTuples([]int64{1, 2})); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := e.SetEDB("unrelated", intTuples([]int64{1})); err != nil {
		t.Errorf("unknown EDB rejected: %v", err)
	}
}

func TestEngineReusableAcrossRuns(t *testing.T) {
	prog := MustParse(`p(X) :- q(X), X > 1.`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("q", intTuples([]int64{1}, []int64{2})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Facts("p").Len() != 1 {
		t.Fatalf("run 1: %s", e.Facts("p"))
	}
	if err := e.SetEDB("q", intTuples([]int64{5}, []int64{6}, []int64{0})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Facts("p").Len() != 2 {
		t.Fatalf("run 2 (stale state?): %s", e.Facts("p"))
	}
}

// TestEngineMatchesReferenceRandomized: the engine, which repeats passes
// only in the recursive stratum, agrees with the reference engine, which
// repeats them in every stratum, on a recursive program with negation over
// random EDBs.
func TestEngineMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		nNodes := 2 + rng.Intn(6)
		var edges []relation.Tuple
		for i := 0; i < rng.Intn(12); i++ {
			edges = append(edges, relation.Tuple{
				relation.Int(rng.Int63n(int64(nNodes))),
				relation.Int(rng.Int63n(int64(nNodes))),
			})
		}
		src := `
			r(X, Y) :- edge(X, Y).
			r(X, Z) :- r(X, Y), r(Y, Z).
			nr(X, Y) :- node(X), node(Y), not r(X, Y).
			loop(X) :- r(X, X).
		`
		var nodes []relation.Tuple
		for i := 0; i < nNodes; i++ {
			nodes = append(nodes, relation.Tuple{relation.Int(int64(i))})
		}
		edb := map[string][]relation.Tuple{"edge": edges, "node": nodes}

		results := make([]*relation.Relation, 2)
		for mode := 0; mode < 2; mode++ {
			e := freshRun(t, MustParse(src), edb, mode == 1)
			all := relation.New(anySchema(3))
			for _, pred := range []string{"r", "nr"} {
				for _, tu := range e.Facts(pred).Rows() {
					all.MustAppend(relation.Tuple{relation.String(pred), tu[0], tu[1]})
				}
			}
			for _, tu := range e.Facts("loop").Rows() {
				all.MustAppend(relation.Tuple{relation.String("loop"), tu[0], tu[0]})
			}
			results[mode] = all
		}
		if !results[0].Equal(results[1]) {
			t.Fatalf("trial %d: engine != reference\nedges: %v\nengine:\n%s\nreference:\n%s",
				trial, edges, results[0], results[1])
		}
	}
}

// TestRunStatsPopulated also pins the cost of a pass schedule: a stratum
// without recursion is complete after one pass over its rules, and a
// recursive one repeats passes until one derives nothing new, so it takes at
// least two. The reference engine repeats passes in every stratum.
func TestRunStatsPopulated(t *testing.T) {
	const closure = `
		p(X, Y) :- e(X, Y).
		p(X, Z) :- p(X, Y), e(Y, Z).
	`
	path := map[string][]relation.Tuple{"e": intTuples([]int64{1, 2}, []int64{2, 3})}
	cycle := map[string][]relation.Tuple{"e": intTuples([]int64{1, 2}, []int64{2, 3}, []int64{3, 1})}
	for _, tc := range []struct {
		name      string
		src       string
		edb       map[string][]relation.Tuple
		reference bool
		strata    int
		passes    int // exact count, or the least one when atLeast is set
		atLeast   bool
		derived   int
	}{
		{"recursive", closure, path, false, 1, 2, true, 3},
		{"flat", `
			p(X, Y) :- e(X, Y).
			p(X, Y) :- e(Y, X).
			q(X) :- p(X, _), not e(X, X).
		`, cycle, false, 2, 2, false, 6 + 3},
		{"recursive under flat", closure + "q(X) :- p(X, X).", cycle, false, 2, 2 + 1, true, 9 + 3},
		{"reference", closure + "q(X) :- p(X, X).", cycle, true, 2, 2 + 2, true, 9 + 3},
	} {
		e := freshRun(t, MustParse(tc.src), tc.edb, tc.reference)
		it := e.Stats.Iterations
		if e.numStrata != tc.strata || it < tc.passes || (!tc.atLeast && it != tc.passes) ||
			e.Stats.FactsDerived != tc.derived {
			t.Errorf("%s: %d strata, stats %+v; want %d strata, %d passes (at least: %v), %d facts derived",
				tc.name, e.numStrata, e.Stats, tc.strata, tc.passes, tc.atLeast, tc.derived)
		}
	}
}

// TestSS2PLColdRunTakesOnePassPerStratum: no rule text in internal/rules
// is recursive, so every stratum of the SS2PL program is complete after one
// pass over its rules.
func TestSS2PLColdRunTakesOnePassPerStratum(t *testing.T) {
	e, err := NewEngine(MustParse(rules.SS2PLDatalog))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ops := []string{"r", "w"}
	var pending, history []relation.Tuple
	for id := int64(0); id < 50; id++ {
		pending = append(pending, relation.Tuple{relation.Int(id), relation.Int(id / 2),
			relation.Int(id % 2), relation.String(ops[rng.Intn(2)]), relation.Int(rng.Int63n(16))})
	}
	for id := int64(100); id < 140; id++ {
		op := ops[rng.Intn(2)]
		if id%8 == 0 {
			op = "c"
		}
		history = append(history, relation.Tuple{relation.Int(id), relation.Int(30 + id%12),
			relation.Int(id % 3), relation.String(op), relation.Int(rng.Int63n(16))})
	}
	if err := e.SetEDB("request", pending); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("history", history); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Iterations != e.numStrata {
		t.Errorf("cold run took %d passes over %d strata", e.Stats.Iterations, e.numStrata)
	}
	if e.FactCount("blocked") == 0 || e.FactCount("qualified") == 0 {
		t.Fatalf("instance too easy: %d blocked, %d qualified", e.FactCount("blocked"), e.FactCount("qualified"))
	}
}

func TestQueryHelper(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	qrel := relation.New(anySchema(1))
	qrel.MustAppend(relation.Tuple{relation.Int(1)})
	got, err := Query(prog, map[string]*relation.Relation{"q": qrel}, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("query: %s", got)
	}
}

func TestSameGenerationProgram(t *testing.T) {
	// Classic non-linear recursion exercise for the fixpoint.
	got := run(t, `
		sg(X, X) :- person(X).
		sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
	`, map[string][]relation.Tuple{
		"person": intTuples([]int64{1}, []int64{2}, []int64{3}, []int64{4}, []int64{5}, []int64{6}),
		// 1,2 children of 5; 3,4 children of 6; 5,6 children of... none
		"parent": intTuples([]int64{1, 5}, []int64{2, 5}, []int64{3, 6}, []int64{4, 6}),
	}, "sg")
	if !holds(got, relation.Tuple{relation.Int(1), relation.Int(2)}) {
		t.Error("siblings 1,2 not same generation")
	}
	if holds(got, relation.Tuple{relation.Int(1), relation.Int(5)}) {
		t.Error("parent/child wrongly same generation")
	}
}

func ExampleQuery() {
	prog := MustParse(`
		qualified(TA) :- pending(TA), not blocked(TA).
		blocked(TA) :- pending(TA), conflictswith(TA, Other), Other < TA.
	`)
	pending := relation.New(anySchema(1))
	for _, ta := range []int64{1, 2} {
		pending.MustAppend(relation.Tuple{relation.Int(ta)})
	}
	conflicts := relation.New(anySchema(2))
	conflicts.MustAppend(relation.Tuple{relation.Int(2), relation.Int(1)})
	out, err := Query(prog, map[string]*relation.Relation{
		"pending": pending, "conflictswith": conflicts,
	}, "qualified")
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Len(), "qualified")
	// Output: 1 qualified
}

// TestRecursiveProbeSurvivesGrowth: a non-linear recursive rule probes the
// predicate it is deriving, so inserts — and the bucket arrays doubling —
// happen under a walk that stands in the middle of a chain. On a tree every
// walk(X, Z, L) has exactly one derivation (the path is unique, and only its
// last step may come from the length-1 facts), so a probe that loses its
// place loses facts: every node must reach each of its descendants, once.
// Random node names spread the index keys like random hashes.
func TestRecursiveProbeSurvivesGrowth(t *testing.T) {
	prog := MustParse(`
		walk(X, Y, 1) :- edge(X, Y).
		walk(X, Z, L) :- walk(X, Y, K), walk(Y, Z, 1), L = K + 1.
	`)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		depth := make([]int, n)
		name := make([]relation.Value, n) // random, so that hashes are too
		for v := range name {
			name[v] = relation.Int(rng.Int63())
		}
		var edges []relation.Tuple
		want := 0
		for v := 1; v < n; v++ {
			parent := rng.Intn(v)
			depth[v] = depth[parent] + 1
			want += depth[v] // one walk from every ancestor
			edges = append(edges, relation.Tuple{name[parent], name[v]})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, ref := range []bool{false, true} {
			e := freshRun(t, prog, map[string][]relation.Tuple{"edge": edges}, ref)
			if got := e.FactCount("walk"); got != want {
				t.Fatalf("seed %d reference=%v: %d walk facts over a %d-node tree, want %d", seed, ref, got, n, want)
			}
			checkFactSetConsistency(t, e)
		}
	}
}

// TestColdRunAfterWarmDeltasMatchesFreshEngine guards the single EDB copy:
// after a random sequence of warm batches with one wholesale SetEDB
// replacement in the middle, a cold Run on the same engine — which re-derives
// from the delta-maintained EDB sets — equals a fresh engine given the final
// rows, and so does the warm state it replaces.
func TestColdRunAfterWarmDeltasMatchesFreshEngine(t *testing.T) {
	for pi, src := range multiDeltaPrograms {
		prog := MustParse(src)
		idb := prog.IDB()
		var edbPreds, preds []string
		for p := range prog.Arities {
			preds = append(preds, p)
			if !idb[p] {
				edbPreds = append(edbPreds, p)
			}
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			e, err := NewEngine(prog)
			if err != nil {
				t.Fatal(err)
			}
			randRows := func(pred string, n int) []relation.Tuple {
				rows := make([]relation.Tuple, n)
				for i := range rows {
					rows[i] = make(relation.Tuple, prog.Arities[pred])
					for j := range rows[i] {
						rows[i][j] = relation.Int(int64(rng.Intn(5)))
					}
				}
				return rows
			}
			edb := map[string][]relation.Tuple{}
			const steps = 12
			replaceAt := 1 + rng.Intn(steps-2)
			for step := 0; step < steps; step++ {
				if step == replaceAt {
					pred := edbPreds[rng.Intn(len(edbPreds))]
					edb[pred] = randRows(pred, rng.Intn(6))
					if err := e.SetEDB(pred, edb[pred]); err != nil {
						t.Fatal(err)
					}
				}
				changed := make(map[string]EDBDelta)
				for _, pred := range edbPreds {
					var d EDBDelta
					for _, row := range edb[pred] {
						if rng.Intn(3) == 0 {
							d.Delete = append(d.Delete, row)
						}
					}
					d.Insert = randRows(pred, rng.Intn(4))
					changed[pred] = d
					edb[pred] = applyDeltaMirror(edb[pred], d)
				}
				if err := e.RunIncremental(changed); err != nil {
					t.Fatal(err)
				}
				if len(e.staged) != 0 {
					t.Fatalf("program %d seed %d step %d: rows still staged after a run", pi, seed, step)
				}
			}
			at := fmt.Sprintf("program %d seed %d", pi, seed)
			checkAgainstOracle(t, e, prog, edb, preds, at+" warm")
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Stats.Strategy != StrategyCold || !e.warm {
				t.Fatalf("%s: cold run reported %q, warm=%v", at, e.Stats.Strategy, e.warm)
			}
			checkAgainstOracle(t, e, prog, edb, preds, at+" cold")
			checkFactSetConsistency(t, e)
		}
	}
}
