package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/datalog"
	"repro/internal/relation"
	"repro/internal/request"
)

// costmodelEWMA builds a pre-seeded cost estimate for strategy-choice tests.
func costmodelEWMA(perUnit float64, samples int) costmodel.EWMA {
	return costmodel.EWMA{PerUnit: perUnit, Samples: samples}
}

// roundTrace is what one driveIncremental round looked like from outside:
// the strategy the protocol reported and whether the round's deltas removed
// anything.
type roundTrace struct {
	strategy string
	deleting bool
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
				r.Arrival = nextID
				nextID++
				pending = append(pending, r)
				d.PendingAdded = append(d.PendingAdded, r)
			}
			ta++
		}

		got, err := warm.QualifyIncremental(pending, history, d)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rt := roundTrace{deleting: len(d.PendingRemoved)+len(d.HistoryRemoved) > 0}
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
// strategy round for round, every strategy is one of the four that exist,
// and a round that removed anything recomputes. (SS2PL negates, so the
// protocol never reaches monotone; the engine-level monotone case is
// datalog.TestRunIncrementalMonotoneSeeding.)
func TestDatalogStrategyIsAFunctionOfTheDeltas(t *testing.T) {
	known := map[string]bool{
		datalog.StrategyCold: true, datalog.StrategyNone: true,
		datalog.StrategyMonotone: true, datalog.StrategyRecompute: true,
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
			if round > 0 && rt.deleting && rt.strategy != datalog.StrategyRecompute {
				t.Fatalf("seed %d round %d: deleting round took %s, want %s", seed, round, rt.strategy, datalog.StrategyRecompute)
			}
		}
	}
}

// TestSQLQualifyIncrementalMatchesCold: same property for the SQL protocol's
// cached-relation fast path.
func TestSQLQualifyIncrementalMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		driveIncremental(t, SS2PLSQL(), func() Protocol { return SS2PLSQL() }, seed)
	}
}

// TestSQLQualifyIncrementalParallelAndNested: the parallel executor (pool
// forced onto every operator loop) and the nested-loop oracle executor both
// track the cold hash path round for round, and the protocol reports the
// warm/cold strategy per round.
func TestSQLQualifyIncrementalParallelAndNested(t *testing.T) {
	par := SS2PLSQL()
	par.SetParallelism(4)
	par.opts.MinParRows = 1
	driveIncremental(t, par, func() Protocol { return SS2PLSQL() }, 11)
	if got := par.LastStrategy(); got != "sql-warm" {
		t.Fatalf("after warm rounds LastStrategy = %q, want sql-warm", got)
	}

	nested := SS2PLSQL()
	nested.SetNestedLoop(true)
	driveIncremental(t, nested, func() Protocol { return SS2PLSQL() }, 12)

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

// TestSQLIVMQualifyIncrementalMatchesCold: with the delta-maintained view
// cache forced on, every round's qualified set still matches a cold Qualify
// on a fresh twin — the protocol-level equivalence of the SQL IVM path,
// sequential and parallel.
func TestSQLIVMQualifyIncrementalMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		ivm := SS2PLSQL()
		ivm.forceStrategy = "ivm"
		driveIncremental(t, ivm, func() Protocol { return SS2PLSQL() }, seed)
		if got := ivm.LastStrategy(); got != "sql-ivm" {
			t.Fatalf("seed %d: LastStrategy = %q, want sql-ivm", seed, got)
		}
	}
	par := SS2PLSQL()
	par.forceStrategy = "ivm"
	par.SetParallelism(4)
	par.opts.MinParRows = 1
	driveIncremental(t, par, func() Protocol { return SS2PLSQL() }, 21)
	if got := par.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("parallel: LastStrategy = %q, want sql-ivm", got)
	}
}

// TestSQLIVMBuildThenMaintain: the first warm round an IVM path is chosen
// pays the materialization (sql-ivm-build), subsequent rounds delta-maintain
// (sql-ivm), and a cold interleaving drops the cache.
func TestSQLIVMBuildThenMaintain(t *testing.T) {
	p := SS2PLSQL()
	p.forceStrategy = "ivm"
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
	if got := p.LastStrategy(); got != "sql-cold" {
		t.Fatalf("first call: %q, want sql-cold", got)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm-build" {
		t.Fatalf("second call: %q, want sql-ivm-build", got)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("third call: %q, want sql-ivm", got)
	}
	// A direct Qualify invalidates the cache; the next incremental round is
	// a cold rebuild, then the cache rematerializes.
	if _, err := p.Qualify(pending[:3], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-cold" {
		t.Fatalf("after interleaving: %q, want sql-cold", got)
	}
	got, err := p.QualifyIncremental(pending, nil, Deltas{})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.LastStrategy(); s != "sql-ivm-build" {
		t.Fatalf("rematerialization: %q, want sql-ivm-build", s)
	}
	want, err := SS2PLSQL().Qualify(pending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after rematerialization: %v want %v", got, want)
	}
}

// TestSQLAdaptiveStrategyChoice: on a large standing instance with trickle
// churn the static bootstrap rule picks delta maintenance; a bulk round
// (churn comparable to the standing size) falls back to full re-evaluation
// and drops the view cache.
func TestSQLAdaptiveStrategyChoice(t *testing.T) {
	p := SS2PLSQL()
	var pending, history []request.Request
	id := int64(1)
	for ta := int64(1); ta <= 120; ta++ {
		for k, op := range []request.Op{request.Read, request.Write, request.Commit} {
			r := request.Request{ID: id, TA: ta, IntraTA: int64(k), Op: op, Object: ta % 40}
			if op == request.Commit {
				r.Object = request.NoObject
			}
			id++
			if ta <= 60 {
				history = append(history, r)
			} else {
				pending = append(pending, r)
			}
		}
	}
	if _, err := p.QualifyIncremental(pending, history, Deltas{PendingAdded: pending}); err != nil {
		t.Fatal(err)
	}
	// Trickle churn: one new transaction against ~360 standing rows.
	add := []request.Request{{ID: id, TA: 500, IntraTA: 0, Op: request.Read, Object: 1}}
	pending = append(pending, add...)
	if _, err := p.QualifyIncremental(pending, history, Deltas{PendingAdded: add}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-ivm-build" {
		t.Fatalf("trickle round: %q, want sql-ivm-build", got)
	}
	// Bulk round: replace the whole pending set; the static rule says
	// recompute.
	removed := pending
	var fresh []request.Request
	for ta := int64(600); ta < 800; ta++ {
		fresh = append(fresh, request.Request{ID: id, TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 40})
		id++
	}
	if _, err := p.QualifyIncremental(fresh, history, Deltas{PendingAdded: fresh, PendingRemoved: removed}); err != nil {
		t.Fatal(err)
	}
	if got := p.LastStrategy(); got != "sql-warm" {
		t.Fatalf("bulk round: %q, want sql-warm", got)
	}
}

// TestSQLCostModelMeasuredPath: once per-unit costs are measured, the
// strategy choice and the decay of the unmeasured side must stay consistent
// with the static rule's cost relation (ivmPer = coldPer * factor) — the
// same invariant the Datalog engine maintains. A bulk round must pick the
// full re-run even after many cheap sql-ivm rounds have been observed.
func TestSQLCostModelMeasuredPath(t *testing.T) {
	p := SS2PLSQL()
	// Measured: delta maintenance costs 100 ns per churned tuple, full
	// re-evaluation 100/factor ns per standing tuple — exactly the
	// static-consistent relation, where the decision must match the static
	// rule on both sides of the boundary.
	p.ivmCost = costmodelEWMA(100, 4)
	p.coldCost = costmodelEWMA(100.0/sqlIVMChurnFactor, 4)
	// No view cache exists yet, so the build hysteresis scales the churn:
	// the boundary sits at churn * hysteresis * factor ≈ standing.
	if !p.chooseIVM(1, 100) {
		t.Fatal("trickle churn (1*4*4 < 100) should build the view cache")
	}
	if p.chooseIVM(60, 100) {
		t.Fatal("bulk churn should pick the full re-run")
	}
	if p.chooseIVM(10, 100) {
		t.Fatal("borderline churn must not trigger a rebuild (hysteresis)")
	}
	// With only IVM measurements, an inflated cold estimate must decay
	// toward ivmPer/factor (below it here), so bulk rounds keep falling
	// back instead of being predicted 16x too expensive.
	p.coldCost = costmodelEWMA(1e6, 4)
	p.forceStrategy = "ivm"
	var pending []request.Request
	for i := int64(1); i <= 4; i++ {
		pending = append(pending, request.Request{ID: i, TA: i, IntraTA: 0, Op: request.Read, Object: i})
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{PendingAdded: pending}); err != nil {
		t.Fatal(err) // cold rebuild
	}
	if _, err := p.QualifyIncremental(pending, nil, Deltas{}); err != nil {
		t.Fatal(err) // sql-ivm-build
	}
	before := p.coldCost.PerUnit
	add := []request.Request{{ID: 99, TA: 99, IntraTA: 0, Op: request.Read, Object: 9}}
	if _, err := p.QualifyIncremental(append(pending, add...), nil, Deltas{PendingAdded: add}); err != nil {
		t.Fatal(err) // sql-ivm round: observes ivmCost, decays coldCost
	}
	if p.LastStrategy() != "sql-ivm" {
		t.Fatalf("strategy %q, want sql-ivm", p.LastStrategy())
	}
	if p.coldCost.PerUnit >= before {
		t.Fatalf("inflated cold estimate did not decay: %v -> %v", before, p.coldCost.PerUnit)
	}
	target := p.ivmCost.PerUnit / sqlIVMChurnFactor
	if p.coldCost.PerUnit < target {
		t.Fatalf("cold estimate decayed past the static-consistent target %v: %v", target, p.coldCost.PerUnit)
	}
}

// TestSQLTrickleBulkTransitionKeepsCache: crossing the trickle-to-bulk churn
// boundary must not thrash the view cache. Once per-unit costs are measured,
// a bulk-sized round is priced by the bulk-recompute estimate and routed
// through the IVM's wholesale path (sql-ivm-bulk) over the same live cache,
// and the next trickle round delta-maintains that cache again — no
// sql-ivm-build anywhere in between.
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
			id++
			if ta <= 60 {
				history = append(history, r)
			} else {
				pending = append(pending, r)
			}
		}
	}
	round := func(stage string, d Deltas) {
		t.Helper()
		got, err := p.QualifyIncremental(pending, history, d)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want, err := SS2PLSQL().Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s cold: %v", stage, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: diverged\nwarm: %v\ncold: %v", stage, got, want)
		}
	}

	round("initial", Deltas{PendingAdded: pending}) // cold rebuild
	add := []request.Request{{ID: id, TA: 500, IntraTA: 0, Op: request.Read, Object: 1}}
	id++
	pending = append(pending, add...)
	round("trickle", Deltas{PendingAdded: add})
	if got := p.LastStrategy(); got != "sql-ivm-build" {
		t.Fatalf("trickle round: %q, want sql-ivm-build", got)
	}
	cache := p.ivm

	// Measured steady state: delta maintenance at 100 ns per churned tuple,
	// full re-evaluation at the static-consistent 25 ns per standing tuple.
	p.ivmCost = costmodelEWMA(100, 4)
	p.coldCost = costmodelEWMA(100.0/sqlIVMChurnFactor, 4)

	// The decision itself: a bulk-sized round stays on the delta path (the
	// old two-way model abandoned the live cache here).
	if !p.chooseIVM(1, 360) {
		t.Fatal("trickle churn left the delta path")
	}
	if !p.chooseIVM(360, 360) {
		t.Fatal("bulk churn abandoned the live cache")
	}

	// A real bulk round: the whole pending set is replaced.
	removed := pending
	var fresh []request.Request
	for ta := int64(600); ta < 800; ta++ {
		fresh = append(fresh, request.Request{ID: id, TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 40})
		id++
	}
	pending = fresh
	round("bulk", Deltas{PendingAdded: fresh, PendingRemoved: removed})
	if got := p.LastStrategy(); got != "sql-ivm-bulk" {
		t.Fatalf("bulk round: %q, want sql-ivm-bulk", got)
	}
	if p.ivm != cache {
		t.Fatal("bulk round rematerialized the view cache")
	}
	if p.bulkCost.Samples == 0 {
		t.Fatal("bulk round did not observe the bulk cost")
	}

	// Back to trickle: the same cache is maintained per tuple again.
	p.ivmCost = costmodelEWMA(100, 4)
	add = []request.Request{{ID: id, TA: 900, IntraTA: 0, Op: request.Read, Object: 2}}
	id++
	pending = append(pending, add...)
	round("trickle after bulk", Deltas{PendingAdded: add})
	if got := p.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("trickle after bulk: %q, want sql-ivm", got)
	}
	if p.ivm != cache {
		t.Fatal("trickle after bulk rebuilt the view cache")
	}
}

// TestSQLWarmRoundDefersDeltasAndReplays: a sql-warm round while the view
// cache is alive queues its deltas instead of dropping the cache; the next
// delta round replays the backlog in order and answers from the caught-up
// views. A backlog as large as the standing size cuts the cache loose.
func TestSQLWarmRoundDefersDeltasAndReplays(t *testing.T) {
	p := SS2PLSQL()
	var pending []request.Request
	id := int64(1)
	for ta := int64(1); ta <= 40; ta++ {
		pending = append(pending, request.Request{ID: id, TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 10})
		id++
	}
	round := func(stage string, d Deltas) {
		t.Helper()
		got, err := p.QualifyIncremental(pending, nil, d)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		want, err := SS2PLSQL().Qualify(pending, nil)
		if err != nil {
			t.Fatalf("%s cold: %v", stage, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: diverged\nwarm: %v\ncold: %v", stage, got, want)
		}
	}
	trickle := func(stage string) {
		t.Helper()
		add := []request.Request{{ID: id, TA: 100 + id, IntraTA: 0, Op: request.Read, Object: id % 10}}
		id++
		pending = append(pending, add...)
		round(stage, Deltas{PendingAdded: add})
	}

	round("initial", Deltas{PendingAdded: pending}) // cold rebuild
	trickle("build")
	if got := p.LastStrategy(); got != "sql-ivm-build" {
		t.Fatalf("build round: %q, want sql-ivm-build", got)
	}
	cache := p.ivm

	p.SetForceStrategy("warm")
	trickle("deferred warm")
	if got := p.LastStrategy(); got != "sql-warm" {
		t.Fatalf("warm round: %q, want sql-warm", got)
	}
	if p.ivm != cache {
		t.Fatal("warm round dropped the live cache")
	}
	if len(p.deferred) != 1 || p.deferredChurn != 1 {
		t.Fatalf("backlog %d rounds / %d tuples, want 1 / 1", len(p.deferred), p.deferredChurn)
	}

	p.SetForceStrategy("ivm")
	trickle("replay")
	if got := p.LastStrategy(); got != "sql-ivm" {
		t.Fatalf("replay round: %q, want sql-ivm", got)
	}
	if p.ivm != cache {
		t.Fatal("replay round rebuilt the view cache")
	}
	if len(p.deferred) != 0 || p.deferredChurn != 0 {
		t.Fatalf("backlog not drained: %d rounds / %d tuples", len(p.deferred), p.deferredChurn)
	}

	// Oversized backlog: a warm round whose queued churn reaches the
	// standing size drops the cache after all.
	p.SetForceStrategy("warm")
	removed := pending
	var fresh []request.Request
	for ta := int64(600); ta < 650; ta++ {
		fresh = append(fresh, request.Request{ID: id, TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 10})
		id++
	}
	pending = fresh
	round("oversized warm", Deltas{PendingAdded: fresh, PendingRemoved: removed})
	if p.ivm != nil {
		t.Fatal("oversized backlog kept the stale cache")
	}
}

// TestQualifyIncrementalFallsBackOnDivergentDeltas: a warm round whose
// Deltas disagree with the passed slices — a history row collected without
// its HistoryRemoved, a HistoryAppended the history never got, a pending
// request dropped without its PendingRemoved — must be caught by the
// protocol's divergence guard and answered cold, equal to a cold Qualify on
// a fresh twin; the next honest round is warm again and still equal. The
// same table runs over the SQL protocol (view cache forced on, so a missed
// divergence would reach the maintained views) and the Datalog one.
func TestQualifyIncrementalFallsBackOnDivergentDeltas(t *testing.T) {
	req := func(id, ta, intra int64, op request.Op, obj int64) request.Request {
		if op.IsTermination() {
			obj = request.NoObject
		}
		return request.Request{ID: id, TA: ta, IntraTA: intra, Op: op, Object: obj, Arrival: id}
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
	cases := []struct {
		name             string
		pending, history []request.Request
		d                Deltas
	}{
		// ta2's lock on object 2 is gone: ta4's write qualifies.
		{"dropped HistoryRemoved", pending, []request.Request{history[0], history[1], history[3]}, Deltas{}},
		// A write lock on object 5 the history never got would block ta2's read.
		{"extra HistoryAppended", pending, history, Deltas{HistoryAppended: []request.Request{req(10, 7, 0, request.Write, 5)}}},
		// ta6's qualifying read left pending unannounced.
		{"missing PendingRemoved", []request.Request{pending[0], pending[1], pending[3], pending[4]}, history, Deltas{}},
	}
	protocols := []struct {
		name     string
		warm     func() IncrementalProtocol
		cold     func() Protocol
		coldName string
	}{
		{"sql", func() IncrementalProtocol {
			p := SS2PLSQL()
			p.SetForceStrategy("ivm")
			return p
		}, func() Protocol { return SS2PLSQL() }, "sql-cold"},
		{"datalog", func() IncrementalProtocol { return SS2PLDatalog() },
			func() Protocol { return SS2PLDatalog() }, datalog.StrategyCold},
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
				round("first", pending, history, Deltas{PendingAdded: pending, HistoryAppended: history})
				if s := round("warm-up", pending, history, Deltas{}); s == pc.coldName {
					t.Fatalf("warm-up round ran %s", s)
				}
				if s := round("divergent", tc.pending, tc.history, tc.d); s != pc.coldName {
					t.Fatalf("divergent deltas ran %s, want %s", s, pc.coldName)
				}
				if s := round("honest", tc.pending, tc.history, Deltas{}); s == pc.coldName {
					t.Fatalf("the round after the rebuild ran %s again", s)
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
	for _, force := range []string{"ivm", "bulk"} {
		p := SS2PLSQL()
		p.SetForceStrategy(force)
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
				r := request.Request{ID: nextID, TA: c.ta, IntraTA: int64(c.done), Arrival: nextID}
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
				pending = append(pending, r)
				d.PendingAdded = append(d.PendingAdded, r)
				seen++
			}
			got, err := p.QualifyIncremental(pending, history, d)
			if err != nil {
				t.Fatalf("%s round %d: %v", force, round, err)
			}
			d = Deltas{}
			if round == 1 {
				cache = p.ivm
			}
			gone := KeySet(got)
			if len(got) == 0 {
				// Fully blocked: abort the cycle victims. The abort row would
				// be appended and collected within one delta window, which
				// the history store nets to nothing.
				victims := DeadlockVictims(pending, history)
				if len(victims) == 0 {
					t.Fatalf("%s round %d: nothing qualified and no cycle explains it", force, round)
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
			t.Fatalf("%s: the view cache was rebuilt during the run; the test needs one cache throughout", force)
		}
		if restarts == 0 || seen < 3*rounds {
			t.Fatalf("%s: %d requests, %d deadlock restarts: the turnover did not happen", force, seen, restarts)
		}
		for i, b := range p.ivm.Bags() {
			if b.Buckets() > 4*b.DistinctLen()+relation.MinBuckets {
				t.Errorf("%s: view %d holds %d distinct tuples but %d buckets after %d requests",
					force, i, b.DistinctLen(), b.Buckets(), seen)
			}
		}
	}
}
