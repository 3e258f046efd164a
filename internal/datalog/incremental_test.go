package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// coldOracle runs a fresh engine over the given EDB and returns the facts of
// every predicate the warm engine knows about.
func coldOracle(t *testing.T, prog *Program, edb map[string][]relation.Tuple, preds []string) map[string]*relation.Relation {
	t.Helper()
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
	out := make(map[string]*relation.Relation, len(preds))
	for _, p := range preds {
		out[p] = e.Facts(p).Distinct()
	}
	return out
}

// checkAgainstOracle compares every listed predicate of the warm engine with
// a cold run over the same EDB state.
// applyDeltaMirror maintains a test's ground-truth EDB mirror: inserts
// append, deletes drop every occurrence. The cold oracle dedups its input,
// so this matches the engine's set-semantics bookkeeping at the fact level.
func applyDeltaMirror(rows []relation.Tuple, d EDBDelta) []relation.Tuple {
	rows = rows[:len(rows):len(rows)]
	rows = append(rows, d.Insert...)
	if len(d.Delete) > 0 {
		del := relation.NewBag(nil)
		for _, t := range d.Delete {
			del.Add(t, 1)
		}
		kept := make([]relation.Tuple, 0, len(rows))
		for _, t := range rows {
			if del.Count(t) == 0 {
				kept = append(kept, t)
			}
		}
		rows = kept
	}
	return rows
}

func checkAgainstOracle(t *testing.T, e *Engine, prog *Program, edb map[string][]relation.Tuple, preds []string, step string) {
	t.Helper()
	want := coldOracle(t, prog, edb, preds)
	for _, p := range preds {
		got := e.Facts(p).Distinct()
		if !got.Equal(want[p]) {
			t.Fatalf("%s: predicate %s diverged from cold run\nwarm:\n%s\ncold:\n%s",
				step, p, got, want[p])
		}
	}
}

// TestFactsOutliveTheNextRun: a derived predicate's facts are carved from
// storage its next re-derivation reuses, so Facts must hand out copies. A
// relation taken before a warm run (which re-derives the predicate) or a
// cold one must read the same afterwards, while the engine moves on.
func TestFactsOutliveTheNextRun(t *testing.T) {
	prog := MustParse(`
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		from1(Y) :- path(1, Y).
	`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(a, b int64) relation.Tuple { return relation.Tuple{relation.Int(a), relation.Int(b)} }
	if err := e.SetEDB("edge", []relation.Tuple{edge(1, 2), edge(2, 3), edge(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	type taken struct {
		rel  *relation.Relation
		want []string
	}
	take := func() []taken {
		var out []taken
		for _, p := range []string{"path", "from1"} {
			rel := e.Facts(p)
			var want []string
			for _, row := range rel.Rows() {
				want = append(want, row.String())
			}
			out = append(out, taken{rel, want})
		}
		return out
	}
	check := func(step string, ts []taken) {
		t.Helper()
		for _, tk := range ts {
			for i, row := range tk.rel.Rows() {
				if row.String() != tk.want[i] {
					t.Fatalf("%s: a relation Facts returned earlier changed: row %d reads %s, was %s", step, i, row, tk.want[i])
				}
			}
		}
	}
	before := take()
	for i, d := range []EDBDelta{
		{Insert: []relation.Tuple{edge(4, 5), edge(1, 7)}, Delete: []relation.Tuple{edge(2, 3)}},
		{Insert: []relation.Tuple{edge(2, 3), edge(7, 8)}, Delete: []relation.Tuple{edge(1, 2)}},
	} {
		if err := e.RunIncremental(map[string]EDBDelta{"edge": d}); err != nil {
			t.Fatal(err)
		}
		if e.Stats.Strategy != StrategyRecompute {
			t.Fatalf("warm run %d took %q, want %q", i, e.Stats.Strategy, StrategyRecompute)
		}
		check(fmt.Sprintf("after warm run %d", i), before)
		before = append(before, take()...)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("after a cold run", before)
	// edge is now 2-3, 3-4, 4-5, 1-7, 7-8.
	if p, f := e.FactCount("path"), e.FactCount("from1"); p != 9 || f != 2 {
		t.Fatalf("path holds %d facts and from1 %d, want 9 and 2", p, f)
	}
}

// TestRunIncrementalInsertOnlyIntoRecursiveProgram: insert-only deltas into
// a recursive, negation-free program recompute their affected closure and
// stay equivalent to cold runs.
func TestRunIncrementalInsertOnlyIntoRecursiveProgram(t *testing.T) {
	prog := MustParse(`
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	edb := map[string][]relation.Tuple{"edge": nil}
	if err := e.SetEDB("edge", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 25; step++ {
		var ins []relation.Tuple
		for k := 0; k < 1+rng.Intn(4); k++ {
			ins = append(ins, relation.Tuple{
				relation.Int(int64(rng.Intn(8))), relation.Int(int64(rng.Intn(8))),
			})
		}
		if err := e.RunIncremental(map[string]EDBDelta{"edge": {Insert: ins}}); err != nil {
			t.Fatal(err)
		}
		// A non-empty batch recomputes, whatever its shape or what came before.
		if e.Stats.Strategy != StrategyRecompute {
			t.Fatalf("step %d: insert-only batch took %s, want %s", step, e.Stats.Strategy, StrategyRecompute)
		}
		edb["edge"] = append(edb["edge"], ins...)
		checkAgainstOracle(t, e, prog, edb, []string{"edge", "path"}, fmt.Sprintf("step %d", step))
	}
}

// TestRunIncrementalRandomInsertDeleteBatches is the equivalence property
// test of the warm-start engine: over a random sequence of EDB insert/delete
// batches against a program with negation (the shape of the scheduling
// protocols), RunIncremental always matches a cold Run over the same EDB.
// The multi-delta programs run the same property on delete-heavy batches.
func TestRunIncrementalRandomInsertDeleteBatches(t *testing.T) {
	// A miniature SS2PL-shaped program: negation, multiple strata, two EDB
	// relations changing in both directions.
	prog := MustParse(`
		finished(TA) :- history(TA, "c", _).
		lock(OBJ, TA) :- history(TA, "w", OBJ), not finished(TA).
		blocked(TA) :- request(TA, _, OBJ), lock(OBJ, TA2), TA2 != TA.
		qualified(TA, OP, OBJ) :- request(TA, OP, OBJ), not blocked(TA).
	`)
	preds := []string{"finished", "lock", "blocked", "qualified"}
	randTuple := func(rng *rand.Rand, pred string) relation.Tuple {
		ops := []string{"r", "w", "c"}
		if pred == "request" {
			ops = []string{"r", "w"}
		}
		return relation.Tuple{
			relation.Int(int64(1 + rng.Intn(5))),
			relation.String(ops[rng.Intn(len(ops))]),
			relation.Int(int64(rng.Intn(6))),
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewEngine(prog)
		if err != nil {
			t.Fatal(err)
		}
		// history tuples are (ta, op, obj); request tuples are (ta, op, obj).
		edb := map[string][]relation.Tuple{"request": nil, "history": nil}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			changed := make(map[string]EDBDelta)
			for _, pred := range []string{"request", "history"} {
				var d EDBDelta
				// Delete a random subset of the current rows.
				for _, row := range edb[pred] {
					if rng.Intn(4) == 0 {
						d.Delete = append(d.Delete, row)
					}
				}
				for k := 0; k < rng.Intn(3); k++ {
					d.Insert = append(d.Insert, randTuple(rng, pred))
				}
				if len(d.Insert) > 0 || len(d.Delete) > 0 {
					changed[pred] = d
				}
			}
			if err := e.RunIncremental(changed); err != nil {
				t.Fatal(err)
			}
			// Mirror the deltas in the oracle EDB with set semantics.
			for pred, d := range changed {
				edb[pred] = applyDeltaMirror(edb[pred], d)
			}
			checkAgainstOracle(t, e, prog, edb, preds,
				fmt.Sprintf("seed %d step %d", seed, step))
			checkFactSetConsistency(t, e)
		}
	}
	for pi, src := range multiDeltaPrograms {
		prog := MustParse(src)
		for seed := int64(0); seed < 8; seed++ {
			runMultiDeltaBatches(t, prog, seed*13+int64(pi))
		}
	}
}

// multiDeltaPrograms are the hard inputs of the warm paths: rules with two or
// three positive occurrences of the same changing predicate (a deletion batch
// can knock out several atoms of one derivation at once), self-joins,
// cross-predicate joins, recursion through a multi-atom rule, negation
// layered on top, and repeated variables, comparisons and arithmetic.
var multiDeltaPrograms = []string{
	`
	t(X, Z) :- e(X, Y), e(Y, Z).
	`,
	`
	tri(X) :- e(X, Y), e(Y, Z), e(Z, X).
	pair(X, Y) :- e(X, Y), e(Y, X).
	`,
	`
	j(X, Z) :- e(X, Y), f(Y, Z).
	j2(X) :- e(X, Y), f(X, Y).
	`,
	`
	t(X, Y) :- e(X, Y).
	t(X, Z) :- e(X, Y), t(Y, Z).
	`,
	`
	p(X, Z) :- e(X, Y), e(Y, Z), not g(X, Z).
	q(X) :- p(X, _), not h(X).
	`,
	`
	sym(X, Y) :- e(X, Y).
	sym(Y, X) :- e(X, Y).
	selfloop(X) :- e(X, X).
	far(X, Z) :- sym(X, Y), sym(Y, Z), X < Z, not selfloop(X).
	sum(X, Z, S) :- far(X, Z), S = X + Z.
	`,
}

// runMultiDeltaBatches drives one engine through random insert/delete
// batches over prog's EDB predicates, checking every step against a cold
// oracle and the fact-set invariants. Every batch inserts, and every batch
// after the first few deletes, so the strategy must be recompute whenever
// something was deleted.
func runMultiDeltaBatches(t *testing.T, prog *Program, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	idb := prog.IDB()
	var edbPreds, preds []string
	seen := map[string]bool{}
	for _, r := range prog.Rules {
		for _, p := range append([]string{r.Head.Pred}, atomPredsOf(r)...) {
			if !seen[p] {
				seen[p] = true
				preds = append(preds, p)
				if !idb[p] {
					edbPreds = append(edbPreds, p)
				}
			}
		}
	}
	edb := map[string][]relation.Tuple{}
	for _, p := range edbPreds {
		edb[p] = nil
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 18; step++ {
		changed := make(map[string]EDBDelta)
		deleting := false
		for _, pred := range edbPreds {
			var d EDBDelta
			// Delete aggressively so multi-delta derivations (two or three
			// deleted atoms in one rule body) occur often.
			for _, row := range edb[pred] {
				if rng.Intn(3) == 0 {
					d.Delete = append(d.Delete, row)
					deleting = true
				}
			}
			ar := prog.Arities[pred]
			for k := 0; k < 1+rng.Intn(4); k++ {
				tu := make(relation.Tuple, ar)
				for i := range tu {
					tu[i] = relation.Int(int64(rng.Intn(4)))
				}
				d.Insert = append(d.Insert, tu)
			}
			if len(d.Insert) > 0 || len(d.Delete) > 0 {
				changed[pred] = d
			}
		}
		if err := e.RunIncremental(changed); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats.Strategy; deleting && s != StrategyRecompute {
			t.Fatalf("seed %d step %d: deleting batch took %s, want %s", seed, step, s, StrategyRecompute)
		}
		for pred, d := range changed {
			edb[pred] = applyDeltaMirror(edb[pred], d)
		}
		checkAgainstOracle(t, e, prog, edb, preds, fmt.Sprintf("seed %d step %d", seed, step))
		checkFactSetConsistency(t, e)
	}
}

// atomPredsOf lists the positive and negated atom predicates of a rule.
func atomPredsOf(r Rule) []string {
	var out []string
	for _, l := range r.Body {
		if l.Kind == LitAtom {
			out = append(out, l.Atom.Pred)
		}
	}
	return out
}

// TestRunIncrementalAfterSetEDBReplacement: a wholesale SetEDB between
// incremental runs marks the predicate dirty and the next warm run rebuilds
// it without losing equivalence.
func TestRunIncrementalAfterSetEDBReplacement(t *testing.T) {
	prog := MustParse(`
		reach(Y) :- start(X), edge(X, Y).
		reach(Z) :- reach(Y), edge(Y, Z).
	`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	edges := intTuples([]int64{0, 1}, []int64{1, 2})
	if err := e.SetEDB("edge", edges); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("start", intTuples([]int64{0})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Replace the start set wholesale, then add an edge incrementally.
	if err := e.SetEDB("start", intTuples([]int64{2})); err != nil {
		t.Fatal(err)
	}
	ins := intTuples([]int64{2, 3})
	if err := e.RunIncremental(map[string]EDBDelta{"edge": {Insert: ins}}); err != nil {
		t.Fatal(err)
	}
	edb := map[string][]relation.Tuple{
		"edge":  append(append([]relation.Tuple(nil), edges...), ins...),
		"start": intTuples([]int64{2}),
	}
	checkAgainstOracle(t, e, prog, edb, []string{"reach"}, "after replacement")
}

// TestRunIncrementalFirstCallFallsBack: without a prior run the warm path
// cannot apply and the engine must behave like a cold run over the deltas.
func TestRunIncrementalFirstCallFallsBack(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunIncremental(map[string]EDBDelta{
		"q": {Insert: intTuples([]int64{1}, []int64{2})},
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Strategy != StrategyCold {
		t.Error("first call must be a cold run")
	}
	if e.Facts("p").Len() != 2 {
		t.Fatalf("p: %s", e.Facts("p"))
	}
}

// TestRunIncrementalRejectsIDBDelta: deltas may only target EDB predicates.
func TestRunIncrementalRejectsIDBDelta(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunIncremental(map[string]EDBDelta{
		"p": {Insert: intTuples([]int64{1})},
	}); err == nil {
		t.Fatal("IDB delta accepted")
	}
}

// TestRunIncrementalRejectedBatchLeavesStateUntouched: a batch containing an
// invalid delta must not half-apply the valid predicates.
func TestRunIncrementalRejectedBatchLeavesStateUntouched(t *testing.T) {
	prog := MustParse(`p(X) :- q(X), r(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("q", intTuples([]int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("r", intTuples([]int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.RunIncremental(map[string]EDBDelta{
		"q": {Insert: intTuples([]int64{2})},                                // valid
		"r": {Insert: []relation.Tuple{{relation.Int(2), relation.Int(9)}}}, // arity mismatch
	}); err == nil {
		t.Fatal("bad batch accepted")
	}
	// The valid q delta must not have leaked into the EDB or the facts.
	if got := e.Facts("q"); got.Len() != 1 || !got.Rows()[0].Equal(intTuples([]int64{1})[0]) {
		t.Errorf("q EDB rows after rejected batch: %s", got)
	}
	if !e.warm {
		t.Error("rejected batch dropped the warm state")
	}
	if e.FactCount("q") != 1 || e.Facts("p").Len() != 1 {
		t.Errorf("facts mutated by rejected batch: q=%d p=%d", e.FactCount("q"), e.Facts("p").Len())
	}
}

// TestRunFailureDropsWarmState: a failed Run must not leave half-built fact
// sets behind a warm flag — the next incremental call has to go cold.
func TestRunFailureDropsWarmState(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("q", intTuples([]int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Program-unknown predicate with mixed arities: SetEDB cannot validate
	// it, so Run fails midway through fact loading.
	if err := e.SetEDB("aux", []relation.Tuple{
		{relation.Int(1)}, {relation.Int(1), relation.Int(2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("mixed-arity EDB accepted")
	}
	if e.warm {
		t.Fatal("warm after failed run")
	}
	// Repair the predicate; the next incremental call recovers via the cold
	// fallback and answers correctly.
	if err := e.SetEDB("aux", intTuples([]int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.RunIncremental(map[string]EDBDelta{
		"q": {Insert: intTuples([]int64{2})},
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Strategy != StrategyCold {
		t.Error("warm start from a failed run")
	}
	if e.Facts("p").Len() != 2 {
		t.Fatalf("p: %s", e.Facts("p"))
	}
}

// TestRunIncrementalRefusesAbsentDelete: a delete of a fact the EDB never
// held means the caller's deltas diverged, so the run fails and leaves the
// engine cold; a tuple deleted twice in one batch, or inserted and deleted in
// it, was held and is accepted. A reload makes the engine exact again.
func TestRunIncrementalRefusesAbsentDelete(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
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
	if err := e.RunIncremental(map[string]EDBDelta{"q": {
		Insert: intTuples([]int64{3}),
		Delete: intTuples([]int64{1}, []int64{1}, []int64{3}),
	}}); err != nil {
		t.Fatalf("held deletes refused: %v", err)
	}
	if got := e.FactCount("p"); got != 1 {
		t.Fatalf("p holds %d facts, want 1 (q(2))", got)
	}
	if err := e.RunIncremental(map[string]EDBDelta{"q": {Delete: intTuples([]int64{7})}}); err == nil {
		t.Fatal("delete of an absent fact accepted")
	}
	if e.warm {
		t.Fatal("warm after a refused delete")
	}
	if err := e.SetEDB("q", intTuples([]int64{2}, []int64{4})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.FactCount("p"); got != 2 {
		t.Fatalf("p holds %d facts after the reload, want 2", got)
	}
}

// TestRunIncrementalReinsertKeepsEDBSetSemantics: warm re-inserts of present
// tuples must not accumulate duplicate bookkeeping rows across rounds.
func TestRunIncrementalReinsertKeepsEDBSetSemantics(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetEDB("q", intTuples([]int64{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.RunIncremental(map[string]EDBDelta{
			"q": {Insert: intTuples([]int64{1}, []int64{1})},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Facts("q").Len(); got != 1 {
		t.Errorf("EDB rows grew to %d on re-inserts", got)
	}
	// A cold run re-derives from the same single copy.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.FactCount("q") != 1 || e.FactCount("p") != 1 {
		t.Errorf("after cold run: q=%d p=%d", e.FactCount("q"), e.FactCount("p"))
	}
	if e.FactCount("q") != 1 {
		t.Errorf("fact count %d", e.FactCount("q"))
	}
}

// checkFactSetConsistency verifies every retained fact set and the indexes
// the compiled rules probe on it (see checkFactSet).
func checkFactSetConsistency(t *testing.T, e *Engine) {
	t.Helper()
	probed := make(map[*relation.Bag][]*relation.BagIndex)
	for _, c := range e.compiled {
		for _, m := range c.steps {
			if m.index != nil {
				probed[m.set] = append(probed[m.set], m.index)
			}
		}
	}
	for pred, f := range e.facts {
		if err := checkFactSet(f, probed[f]); err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
	}
}

// checkFactSet verifies, through the Bag's public surface, the layout the
// engine relies on: every fact held once at count 1 under its cached hash,
// the tuple count within the bucket count, membership finding each fact at
// its own position, and each index's chains (relation.Chain) filing every
// position exactly once, in the bucket its key hash selects, on a walk that
// ends.
func checkFactSet(f *relation.Bag, indexes []*relation.BagIndex) error {
	n, nb := f.DistinctLen(), f.Buckets()
	if n > nb {
		return fmt.Errorf("%d buckets for %d tuples", nb, n)
	}
	if f.Len() != n {
		return fmt.Errorf("%d copies of %d tuples", f.Len(), n)
	}
	mask := uint64(nb - 1)
	for p := int32(0); int(p) < n; p++ {
		t := f.At(p)
		if f.CountAt(p) != 1 || f.HashAt(p) != t.Hash() {
			return fmt.Errorf("position %d (%s): count %d, hash cached %v", p, t, f.CountAt(p), f.HashAt(p) == t.Hash())
		}
		if got := f.Find(t, t.Hash()); got != p {
			return fmt.Errorf("membership finds %s at %d, not %d", t, got, p)
		}
		for _, ix := range indexes {
			h := t.HashCols(ix.Cols())
			seen, steps := 0, 0
			for q := ix.First(h); q >= 0; q = ix.Next(q) {
				if steps++; steps > n {
					return fmt.Errorf("index %v: the walk from %s's bucket does not end", ix.Cols(), t)
				}
				if int(q) >= n || f.At(q).HashCols(ix.Cols())&mask != h&mask {
					return fmt.Errorf("index %v: position %d is in %s's bucket", ix.Cols(), q, t)
				}
				if q == p {
					seen++
				}
			}
			if seen != 1 {
				return fmt.Errorf("index %v: %s reached %d times from its bucket", ix.Cols(), t, seen)
			}
		}
	}
	return nil
}
