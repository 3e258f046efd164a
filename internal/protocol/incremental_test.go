package protocol

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/minisql"
	"repro/internal/relation"
	"repro/internal/request"
)

// roundTrace is what one driveIncremental round looked like from outside:
// the strategy the protocol reported and whether the round's deltas changed
// anything.
type roundTrace struct {
	strategy string
	changed  bool
}

// driveIncremental simulates the scheduler's round loop against one
// incremental protocol instance and checks every round's qualified set
// against a cold Qualify on a fresh twin protocol. It returns one roundTrace
// per round.
func driveIncremental(t *testing.T, warm IncrementalProtocol, coldOf func() Protocol, seed int64) []roundTrace {
	t.Helper()
	var trace []roundTrace
	rng := rand.New(rand.NewSource(seed))
	var pending, history []request.Request
	var d Deltas
	nextID := int64(1)
	ta := int64(1)
	for round := 0; round < 15; round++ {
		// Admit a few new transactions.
		for c := 0; c < 1+rng.Intn(3); c++ {
			obj := int64(rng.Intn(5))
			for _, r := range []request.Request{
				{TA: ta, IntraTA: 0, Op: request.Read, Object: obj},
				{TA: ta, IntraTA: 1, Op: request.Write, Object: (obj + 1) % 5},
				{TA: ta, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
			} {
				r.ID = nextID
				nextID++
				r = r.WithRow() // as the pending store admits it
				pending = append(pending, r)
				d.PendingAdded = append(d.PendingAdded, r)
			}
			ta++
		}

		got, err := warm.QualifyIncremental(pending, history, d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rt := roundTrace{changed: len(d.PendingAdded)+len(d.PendingRemoved)+len(d.HistoryAppended)+len(d.HistoryRemoved) > 0}
		if sr, ok := warm.(StrategyReporter); ok {
			rt.strategy = sr.LastStrategy()
		}
		trace = append(trace, rt)
		d = Deltas{}
		want, err := coldOf().Qualify(pending, history)
		if err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: incremental qualified diverged\nwarm: %v\ncold: %v", round, got, want)
		}

		// Execute the qualified batch: move to history, drop from pending.
		qk := KeySet(got)
		kept := pending[:0:0]
		for _, p := range pending {
			if qk[p.Key()] {
				history = append(history, p)
				d.HistoryAppended = append(d.HistoryAppended, p)
			} else {
				kept = append(kept, p)
				continue
			}
			d.PendingRemoved = append(d.PendingRemoved, p)
		}
		pending = kept

		// GC finished transactions from the history.
		finished := map[int64]bool{}
		for _, h := range history {
			if h.Op.IsTermination() {
				finished[h.TA] = true
			}
		}
		keptH := history[:0:0]
		for _, h := range history {
			if finished[h.TA] {
				d.HistoryRemoved = append(d.HistoryRemoved, h)
			} else {
				keptH = append(keptH, h)
			}
		}
		history = keptH
	}
	return trace
}

// TestDatalogQualifyIncrementalMatchesCold: the warm-started Datalog
// protocol agrees with a cold qualification on every round of a random
// workload.
func TestDatalogQualifyIncrementalMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		driveIncremental(t, SS2PLDatalog(), func() Protocol { return SS2PLDatalog() }, seed)
	}
}

// TestDatalogStrategyIsAFunctionOfTheDeltas: the Datalog engine picks its
// warm path from the structure of the round's deltas and nothing else, so
// two fresh protocol instances fed the same seeded sequence report the same
// strategy round for round, every strategy is one of the three that exist,
// and every later round whose deltas changed anything recomputes.
func TestDatalogStrategyIsAFunctionOfTheDeltas(t *testing.T) {
	known := map[string]bool{
		datalog.StrategyCold: true, datalog.StrategyNone: true, datalog.StrategyRecompute: true,
	}
	for seed := int64(0); seed < 5; seed++ {
		a := driveIncremental(t, SS2PLDatalog(), func() Protocol { return SS2PLDatalog() }, seed)
		b := driveIncremental(t, SS2PLDatalog(), func() Protocol { return SS2PLDatalog() }, seed)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: strategy sequences differ between two instances\n%v\n%v", seed, a, b)
		}
		for round, rt := range a {
			if !known[rt.strategy] {
				t.Fatalf("seed %d round %d: unknown strategy %q", seed, round, rt.strategy)
			}
			if round == 0 && rt.strategy != datalog.StrategyCold {
				t.Fatalf("seed %d: first round took %s, want %s", seed, rt.strategy, datalog.StrategyCold)
			}
			if round > 0 && rt.changed && rt.strategy != datalog.StrategyRecompute {
				t.Fatalf("seed %d round %d: changing round took %s, want %s", seed, round, rt.strategy, datalog.StrategyRecompute)
			}
		}
	}
}

// TestDatalogWarmRoundsDoNotEvaluateOnDemand: the engine unfolds the lock
// helpers of every shipped Datalog text and answers a query of one by
// evaluating the program as written; a protocol's rounds read only stored
// predicates (`qualified`, `wound`) and the EDB, so warm rounds — and the
// wound-wait decision read after each — never start that evaluation.
func TestDatalogWarmRoundsDoNotEvaluateOnDemand(t *testing.T) {
	for _, mk := range []func() *DatalogProtocol{
		SS2PLDatalog, TwoPLDatalog, SLAPriorityDatalog, RelaxedReadsDatalog, WoundWaitDatalog,
	} {
		p := mk()
		trace := driveIncremental(t, p, func() Protocol { return mk() }, 3)
		p.Wounded()
		if n := p.engine.OnDemandRuns(); n != 0 {
			t.Fatalf("%s: %d on-demand evaluations over %d rounds", p.Name(), n, len(trace))
		}
		if trace[len(trace)-1].strategy != datalog.StrategyRecompute {
			t.Fatalf("%s: last round took %s, want %s", p.Name(), trace[len(trace)-1].strategy, datalog.StrategyRecompute)
		}
	}
}

// TestSQLQualifyIncrementalMatchesCold: same property for the SQL protocol's
// delta-maintained view cache.
func TestSQLQualifyIncrementalMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		driveIncremental(t, SS2PLSQL(), func() Protocol { return SS2PLSQL() }, seed)
	}
}

// TestSQLStrategyIsAFunctionOfTheDeltas: the SQL twin of the Datalog test.
// The warm path follows from the protocol's state and the round's deltas, so
// two fresh instances fed the same seeded sequence report the same strategy
// round for round: the view cache's build on the first round, and delta
// maintenance on every round after it. No round runs the query in full.
func TestSQLStrategyIsAFunctionOfTheDeltas(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := driveIncremental(t, SS2PLSQL(), func() Protocol { return SS2PLSQL() }, seed)
		b := driveIncremental(t, SS2PLSQL(), func() Protocol { return SS2PLSQL() }, seed)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: strategy sequences differ between two instances\n%v\n%v", seed, a, b)
		}
		for round, rt := range a {
			want := "sql-ivm"
			if round == 0 {
				want = "sql-ivm-build"
			}
			if rt.strategy != want {
				t.Fatalf("seed %d round %d: took %s, want %s", seed, round, rt.strategy, want)
			}
		}
	}
}

// TestSQLLastStrategyNamesWarmAndColdRuns: after warm rounds that track a
// cold twin round for round the protocol reports sql-ivm, a fresh one
// reports nothing, and a direct Qualify reports sql-cold. (Listing 1 round by
// round against the SQL interpreter, which never sees the plan, is
// minisql's TestListingOneRoundsMatchInterpreter.)
func TestSQLLastStrategyNamesWarmAndColdRuns(t *testing.T) {
	warm := SS2PLSQL()
	driveIncremental(t, warm, func() Protocol { return SS2PLSQL() }, 12)
	if got := warm.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("after warm rounds LastStrategy = %q, want sql-ivm", got)
	}

	cold := SS2PLSQL()
	if cold.LastStrategy() != "" {
		t.Fatalf("fresh protocol reports strategy %q", cold.LastStrategy())
	}
	if _, err := cold.Qualify(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := cold.LastStrategy(); got != "sql-cold" {
		t.Fatalf("cold Qualify LastStrategy = %q, want sql-cold", got)
	}
}

// TestSQLIVMQualifyIncrementalMatchesCold: on the delta-maintained view
// cache, every round's qualified set matches a cold Qualify on a fresh twin —
// the protocol-level equivalence of the SQL IVM path.
func TestSQLIVMQualifyIncrementalMatchesCold(t *testing.T) {
	for seed := int64(3); seed < 6; seed++ {
		ivm := SS2PLSQL()
		driveIncremental(t, ivm, func() Protocol { return SS2PLSQL() }, seed)
		if got := ivm.LastStrategy(); got != "sql-ivm" {
			t.Fatalf("seed %d: LastStrategy = %q, want sql-ivm", seed, got)
		}
	}
}

// TestSQLIVMBuildThenMaintain: the first round pays the materialization
// (sql-ivm-build), subsequent rounds delta-maintain (sql-ivm), and a direct
// Qualify drops the cache, so the next incremental round builds it again.
func TestSQLIVMBuildThenMaintain(t *testing.T) {
	p := SS2PLSQL()
	var pending []request.Request
	for i := int64(1); i <= 6; i++ {
		pending = append(pending,
			request.Request{ID: 3*i - 2, TA: i, IntraTA: 0, Op: request.Read, Object: i % 3},
			request.Request{ID: 3*i - 1, TA: i, IntraTA: 1, Op: request.Write, Object: (i + 1) % 3},
			request.Request{ID: 3 * i, TA: i, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
		)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{PendingAdded: pending}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm-build" {
		t.Fatalf("first call: %q, want sql-ivm-build", got)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("second call: %q, want sql-ivm", got)
	}
	// A direct Qualify invalidates the cache and reports a full run; the next
	// incremental round rematerializes the cache, the one after maintains it.
	if _, err := p.Qualify(pending[:3], nil); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-cold" {
		t.Fatalf("direct Qualify: %q, want sql-cold", got)
	}
	got, err := p.QualifyIncremental(pending, nil, Deltas{})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.LastStrategy(); s != "sql-ivm-build" {
		t.Fatalf("after interleaving: %q, want sql-ivm-build", s)
	}
	want, err := SS2PLSQL().Qualify(pending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after rematerialization: %v want %v", got, want)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("after rematerialization: %q, want sql-ivm", got)
	}
}

// TestSQLTrickleBulkTransitionKeepsCache: a round that replaces the whole
// pending set is maintained through the same view cache as a trickle round.
// It reports sql-ivm, answers from the same p.ivm, equals a cold Qualify, and
// the next trickle round continues from that cache.
func TestSQLTrickleBulkTransitionKeepsCache(t *testing.T) {
	p := SS2PLSQL()
	var pending, history []request.Request
	id := int64(1)
	for ta := int64(1); ta <= 120; ta++ {
		for k, op := range []request.Op{request.Read, request.Write, request.Commit} {
			r := request.Request{ID: id, TA: ta, IntraTA: int64(k), Op: op, Object: ta % 40}
			if op == request.Commit {
				r.Object = request.NoObject
			}
			r = r.WithRow() // as the stores take it in
			id++
			if ta <= 60 {
				history = append(history, r)
			} else {
				pending = append(pending, r)
			}
		}
	}
	round := func(stage, want string, d Deltas) {
		t.Helper()
		got, err := p.QualifyIncremental(pending, history, d)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if s := p.LastStrategy(); s != want {
			t.Fatalf("%s round: %q, want %q", stage, s, want)
		}
		cold, err := SS2PLSQL().Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s cold: %v", stage, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(cold) {
			t.Fatalf("%s: diverged\nwarm: %v\ncold: %v", stage, got, cold)
		}
	}

	round("initial", "sql-ivm-build", Deltas{PendingAdded: pending, HistoryAppended: history})
	cache := p.ivm
	add := []request.Request{request.Request{ID: id, TA: 500, IntraTA: 0, Op: request.Read, Object: 1}.WithRow()}
	id++
	pending = append(pending, add...)
	round("trickle", "sql-ivm", Deltas{PendingAdded: add})
	if p.ivm != cache {
		t.Fatal("the trickle round rebuilt the view cache")
	}

	// The whole pending set is replaced in one round.
	removed := pending
	var fresh []request.Request
	for ta := int64(600); ta < 800; ta++ {
		fresh = append(fresh, request.Request{ID: id, TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 40}.WithRow())
		id++
	}
	pending = fresh
	round("replace-all", "sql-ivm", Deltas{PendingAdded: fresh, PendingRemoved: removed})
	if p.ivm != cache {
		t.Fatal("the replace-all round rematerialized the view cache")
	}

	add = []request.Request{request.Request{ID: id, TA: 900, IntraTA: 0, Op: request.Read, Object: 2}.WithRow()}
	pending = append(pending, add...)
	round("trickle after replace-all", "sql-ivm", Deltas{PendingAdded: add})
	if p.ivm != cache {
		t.Fatal("the trickle after the replace-all round rebuilt the view cache")
	}
}

// TestSQLRefusesAggregatesAndLimit: the SQL subset has no aggregates,
// GROUP BY, HAVING or LIMIT — no protocol uses them, and none but LIMIT
// would even have a delta rule in the view cache. minisql.Parse and NewSQL
// refuse each with an error naming it. The same query without the
// construct is accepted, and a text naming no table the protocol has fails
// at construction, not on the first round.
func TestSQLRefusesAggregatesAndLimit(t *testing.T) {
	for _, tc := range []struct{ construct, sql string }{
		{"COUNT", "SELECT COUNT(*) AS n FROM requests r"},
		{"SUM", "SELECT SUM(r.object) AS s FROM requests r"},
		{"MIN", "SELECT MIN(r.id) AS lo FROM requests r"},
		{"MAX", "SELECT MAX(r.id) AS hi FROM requests r"},
		{"AVG", "SELECT AVG(r.object) AS av FROM requests r"},
		{"GROUP BY", "SELECT r.ta FROM requests r GROUP BY r.ta"},
		{"HAVING", "SELECT r.ta FROM requests r HAVING r.ta > 1"},
		{"LIMIT", "SELECT r.* FROM requests r ORDER BY id LIMIT 4"},
		{"LIMIT", "SELECT r.* FROM requests r LIMIT 4"},
		{"LIMIT", "SELECT r.* FROM requests r WHERE EXISTS (SELECT * FROM history h LIMIT 1)"},
	} {
		if _, err := minisql.Parse(tc.sql); err == nil || !strings.Contains(err.Error(), tc.construct) {
			t.Errorf("minisql.Parse(%q): err = %v, want a refusal naming %s", tc.sql, err, tc.construct)
		}
		if _, err := NewSQL("refused", tc.sql); err == nil || !strings.Contains(err.Error(), tc.construct) {
			t.Errorf("NewSQL(%q): err = %v, want a refusal naming %s", tc.sql, err, tc.construct)
		}
	}
	if _, err := NewSQL("all", "SELECT r.* FROM requests r ORDER BY id"); err != nil {
		t.Fatalf("the text without LIMIT: %v", err)
	}
	if _, err := NewSQL("nowhere", "SELECT x.* FROM nowhere x"); err == nil {
		t.Fatal("a text over an unknown table was accepted")
	}
}

// TestQualifyIncrementalFallsBackOnDivergentDeltas: a warm round whose
// Deltas disagree with the passed slices — a history row collected without
// its HistoryRemoved, a HistoryAppended the history never got, a pending
// request dropped without its PendingRemoved — must be caught by the
// protocol's divergence guard and answered from the full slices, equal to a
// cold Qualify on a fresh twin; the next honest round is warm again and
// still equal. The same table runs over the SQL protocol (its view cache is
// built in the first round, so a missed divergence would reach the
// maintained views; the fallback round rebuilds the cache, and the next
// round maintains that rebuilt cache) and the Datalog one (the fallback is a
// cold run). In the last case the counts agree, so the guard passes, and the
// maintained state itself — the SQL view cache, the Datalog engine's EDB —
// refuses the delete of a row it never held; the round is answered from the
// full slices and the next one is warm again.
func TestQualifyIncrementalFallsBackOnDivergentDeltas(t *testing.T) {
	req := func(id, ta, intra int64, op request.Op, obj int64) request.Request {
		if op.IsTermination() {
			obj = request.NoObject
		}
		return request.Request{ID: id, TA: ta, IntraTA: intra, Op: op, Object: obj}
	}
	// ta1 finished (its rows await GC), ta2 and ta3 hold locks; ta4 and ta5
	// wait on them, ta6 and ta2's next request qualify. Each divergence
	// below changes the qualified set, so a stale answer cannot pass.
	history := []request.Request{
		req(1, 1, 0, request.Write, 1), req(2, 1, 1, request.Commit, 0),
		req(3, 2, 0, request.Write, 2), req(4, 3, 0, request.Read, 3),
	}
	pending := []request.Request{
		req(5, 4, 0, request.Write, 2), req(6, 5, 0, request.Write, 3),
		req(7, 6, 0, request.Read, 1), req(8, 6, 1, request.Write, 4), req(9, 2, 1, request.Read, 5),
	}
	withoutTA2Lock := []request.Request{history[0], history[1], history[3]}
	cases := []struct {
		name             string
		pending, history []request.Request
		d                Deltas
	}{
		// ta2's lock on object 2 is gone: ta4's write qualifies.
		{"dropped HistoryRemoved", pending, withoutTA2Lock, Deltas{}},
		// A write lock on object 5 the history never got would block ta2's read.
		{"extra HistoryAppended", pending, history, Deltas{HistoryAppended: []request.Request{req(10, 7, 0, request.Write, 5)}}},
		// ta6's qualifying read left pending unannounced.
		{"missing PendingRemoved", []request.Request{pending[0], pending[1], pending[3], pending[4]}, history, Deltas{}},
		// ta2's lock leaves silently while HistoryRemoved names a row the
		// history never held: the history count still lands on len(history).
		{"absent HistoryRemoved", pending, withoutTA2Lock, Deltas{HistoryRemoved: []request.Request{req(11, 8, 0, request.Write, 6)}}},
	}
	protocols := []struct {
		name string
		warm func() IncrementalProtocol
		cold func() Protocol
		// fallback is what a round answered from the full slices reports.
		fallback string
		// rebuilt is what the honest round after the fallback must report;
		// empty accepts anything but fallback.
		rebuilt string
	}{
		{"sql", func() IncrementalProtocol { return SS2PLSQL() },
			func() Protocol { return SS2PLSQL() }, "sql-ivm-build", "sql-ivm"},
		{"datalog", func() IncrementalProtocol { return SS2PLDatalog() },
			func() Protocol { return SS2PLDatalog() }, datalog.StrategyCold, ""},
	}
	for _, pc := range protocols {
		for _, tc := range cases {
			t.Run(pc.name+"/"+tc.name, func(t *testing.T) {
				p := pc.warm()
				round := func(stage string, pending, history []request.Request, d Deltas) string {
					t.Helper()
					got, err := p.QualifyIncremental(pending, history, d)
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					want, err := pc.cold().Qualify(pending, history)
					if err != nil {
						t.Fatalf("%s cold: %v", stage, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: diverged from the cold oracle\nwarm: %v\ncold: %v", stage, got, want)
					}
					return p.(StrategyReporter).LastStrategy()
				}
				// cache is the SQL protocol's view cache (nil for Datalog).
				cache := func() *minisql.IVM {
					if sp, ok := p.(*SQLProtocol); ok {
						return sp.ivm
					}
					return nil
				}
				round("first", pending, history, Deltas{PendingAdded: pending, HistoryAppended: history})
				if s := round("warm-up", pending, history, Deltas{}); s == pc.fallback {
					t.Fatalf("warm-up round ran %s", s)
				}
				stale := cache()
				if s := round("divergent", tc.pending, tc.history, tc.d); s != pc.fallback {
					t.Fatalf("divergent deltas ran %s, want %s", s, pc.fallback)
				}
				rebuilt := cache()
				if stale != nil && (rebuilt == nil || rebuilt == stale) {
					t.Fatal("the fallback round kept the refused view cache")
				}
				switch s := round("honest", tc.pending, tc.history, Deltas{}); {
				case s == pc.fallback:
					t.Fatalf("the round after the fallback ran %s again", s)
				case pc.rebuilt != "" && s != pc.rebuilt:
					t.Fatalf("the round after the fallback ran %s, want %s", s, pc.rebuilt)
				}
				if cache() != rebuilt {
					t.Fatal("the round after the fallback did not maintain the rebuilt view cache")
				}
			})
		}
	}
}

// TestQualifyInvalidatesIncrementalState: a direct Qualify call between
// incremental rounds must not poison subsequent warm rounds.
func TestQualifyIncrementalSurvivesColdInterleaving(t *testing.T) {
	p := SS2PLDatalog()
	reqs := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 3},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 3},
	}
	if _, err := p.QualifyIncremental(reqs, nil, Deltas{PendingAdded: reqs}); err != nil {
		t.Fatal(err)
	}
	// Unrelated cold call with different state.
	if _, err := p.Qualify(reqs[:1], nil); err != nil {
		t.Fatal(err)
	}
	// Warm call again: deltas are empty relative to the last incremental
	// state; the protocol must detect the interleaving and still answer from
	// the full slices.
	got, err := p.QualifyIncremental(reqs, nil, Deltas{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SS2PLDatalog().Qualify(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after interleaving: %v want %v", got, want)
	}
}

// TestSQLWarmRoundsDoNotGrow: 3,000 warm rounds of paper-mix-shaped turnover
// on Listing 1 — closed-loop clients running read-then-write transactions one
// request at a time, every request id and transaction number fresh, finished
// transactions garbage-collected from the history — leave the view cache no
// larger than what it holds: in every materialised view, table or plan node,
// no hash map has more keys than the view has distinct tuples. The cache is
// the same one throughout (never rebuilt), so anything that grew with the
// tuples ever seen would show after some 12,000 requests (each a tuple in several views).
func TestSQLWarmRoundsDoNotGrow(t *testing.T) {
	p := SS2PLSQL()
	rng := rand.New(rand.NewSource(16))
	const clients, opsPerTxn, objects, rounds = 12, 6, 120, 3000

	type client struct {
		ta      int64
		done    int  // requests of the transaction executed so far
		waiting bool // a request is pending
	}
	cs := make([]client, clients)
	nextID, nextTA := int64(1), int64(1)
	var pending, history []request.Request
	var d Deltas
	var cache any
	seen, restarts := 0, 0

	dropTA := func(ta int64) { // garbage-collect a finished transaction's rows
		kept := history[:0:0]
		for _, h := range history {
			if h.TA == ta {
				d.HistoryRemoved = append(d.HistoryRemoved, h)
			} else {
				kept = append(kept, h)
			}
		}
		history = kept
	}
	for round := 0; round < rounds; round++ {
		for i := range cs {
			c := &cs[i]
			if c.waiting {
				continue
			}
			if c.ta == 0 {
				c.ta, c.done = nextTA, 0
				nextTA++
			}
			r := request.Request{ID: nextID, TA: c.ta, IntraTA: int64(c.done)}
			nextID++
			switch {
			case c.done == opsPerTxn:
				r.Op, r.Object = request.Commit, request.NoObject
			case c.done < opsPerTxn/2:
				r.Op, r.Object = request.Read, rng.Int63n(objects)
			default:
				r.Op, r.Object = request.Write, rng.Int63n(objects)
			}
			c.waiting = true
			r = r.WithRow() // as the pending store admits it
			pending = append(pending, r)
			d.PendingAdded = append(d.PendingAdded, r)
			seen++
		}
		got, err := p.QualifyIncremental(pending, history, d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		d = Deltas{}
		if round == 0 {
			cache = p.ivm
		}
		gone := KeySet(got)
		if len(got) == 0 {
			// Fully blocked: abort the cycle victims. The abort row would
			// be appended and collected within one delta window, which
			// the history store nets to nothing.
			victims := new(Detector).Victims(pending, history)
			if len(victims) == 0 {
				t.Fatalf("round %d: nothing qualified and no cycle explains it", round)
			}
			for _, v := range victims {
				for i := range cs {
					if cs[i].ta == v {
						cs[i] = client{}
						restarts++
					}
				}
				for _, r := range pending {
					if r.TA == v {
						gone[r.Key()] = true
					}
				}
				dropTA(v)
			}
		}
		kept := pending[:0:0]
		for _, r := range pending {
			if !gone[r.Key()] {
				kept = append(kept, r)
				continue
			}
			d.PendingRemoved = append(d.PendingRemoved, r)
			for i := range cs {
				c := &cs[i]
				if c.ta != r.TA {
					continue
				}
				c.waiting = false
				c.done++
				if r.Op == request.Commit {
					dropTA(r.TA) // commit row appended and collected at once: nets out
					*c = client{}
				} else {
					history = append(history, r)
					d.HistoryAppended = append(d.HistoryAppended, r)
				}
			}
		}
		pending = kept
	}
	if p.ivm == nil || any(p.ivm) != cache {
		t.Fatal("the view cache was rebuilt during the run; the test needs one cache throughout")
	}
	if restarts == 0 || seen < 3*rounds {
		t.Fatalf("%d requests, %d deadlock restarts: the turnover did not happen", seen, restarts)
	}
	for i, b := range p.ivm.Bags() {
		if b.Buckets() > 4*b.DistinctLen()+relation.MinBuckets {
			t.Errorf("view %d holds %d distinct tuples but %d buckets after %d requests",
				i, b.DistinctLen(), b.Buckets(), seen)
		}
	}
}
