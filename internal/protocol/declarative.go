package protocol

import (
	"fmt"
	"slices"

	"repro/internal/datalog"
	"repro/internal/minisql"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/rules"
)

// SQLProtocol runs a SQL query (paper Listing 1 style) over the `requests`
// and `history` tables each round. The query's output must be rows of the
// request schema (id, ta, intrata, operation, object); its ORDER BY defines
// the execution order.
type SQLProtocol struct {
	name string

	// The plan, compiled once against the request schema, and the
	// materialized-view cache over it (minisql.IVM), the plan's one
	// evaluator. A build starts the views empty and takes the round's
	// requests as its first delta (build); every round after the one that
	// builds the cache patches the views with the round's deltas through the
	// same relational delta rules instead of re-running the query.
	plan *minisql.Plan
	ivm  *minisql.IVM

	// pendLen and histLen are the relation sizes the deltas imply since the
	// cache was built (QualifyIncremental's divergence guard). No copy of
	// either relation is kept: the paths that read whole relations build
	// them from the slices when they run.
	pendLen, histLen int

	// deltas is the round's hand-over to the view cache, refilled in place
	// every round with the requests' own rows (five-column prefixes), which
	// the view cache's base bags keep as they are.
	deltas map[string]minisql.Delta

	// rows is the warm round's read of the view cache's result, reused
	// every round: the rows go straight into the qualified requests, which
	// qualified holds until the next call (see Protocol.Qualify).
	rows      []relation.Tuple
	qualified []request.Request

	// lastStrategy names the evaluation path of the last Qualify call
	// (StrategyReporter): "sql-ivm" when the view cache was delta-
	// maintained, "sql-ivm-build" when the cache was (re)built and kept,
	// "sql-cold" for a build that is dropped after its answer (Qualify).
	lastStrategy string

	// decomposable claims per-object decomposability (see
	// protocol.ObjectDecomposable). Only constructors of vetted rule texts
	// set it; arbitrary NewSQL queries stay conservatively unclaimed.
	decomposable bool
}

// NewSQL parses the query and compiles its plan against the request schema
// once; every round reuses the plan. Every construct the parser accepts has
// a delta rule, so every warm round maintains the view cache.
func NewSQL(name, sql string) (*SQLProtocol, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	s := request.Schema()
	plan, err := minisql.CompilePlan(q, map[string]*relation.Schema{"requests": s, "history": s})
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	return &SQLProtocol{name: name, plan: plan, deltas: make(map[string]minisql.Delta, 2)}, nil
}

// SS2PLSQL is the paper's Listing 1 as a protocol.
func SS2PLSQL() *SQLProtocol {
	p, err := NewSQL("ss2pl-sql", rules.ListingOneSQL)
	if err != nil {
		panic(err) // embedded text; a failure is a build error
	}
	// Listing 1's lock and block subqueries correlate requests and history
	// on the same object only; terminations carry no object and always
	// qualify.
	p.decomposable = true
	return p
}

// Name implements Protocol.
func (p *SQLProtocol) Name() string { return p.name }

// ObjectDecomposable implements the marker (see protocol.ObjectDecomposable).
func (p *SQLProtocol) ObjectDecomposable() bool { return p.decomposable }

// LastStrategy implements StrategyReporter.
func (p *SQLProtocol) LastStrategy() string { return p.lastStrategy }

// Qualify implements Protocol: build the view cache from the slices, answer
// from it and drop it (sql-cold). It invalidates any incremental state,
// including the view cache it held before.
func (p *SQLProtocol) Qualify(pending, history []request.Request) ([]request.Request, error) {
	p.ivm = nil
	_, out, err := p.build(pending, history)
	if err != nil {
		return nil, err
	}
	p.lastStrategy = "sql-cold"
	return out, nil
}

// QualifyIncremental implements IncrementalProtocol. The path follows from
// the protocol's state alone: with a view cache, the round's deltas patch
// the views (sql-ivm); without one — the first round, and any round whose
// deltas disagree with the slices or the views — the cache is built from the
// slices and answers the same round (sql-ivm-build).
func (p *SQLProtocol) QualifyIncremental(pending, history []request.Request, d Deltas) ([]request.Request, error) {
	if p.ivm != nil {
		// Divergence guard: the relation sizes the deltas imply must land on
		// the passed slices.
		p.pendLen += len(d.PendingAdded) - len(d.PendingRemoved)
		p.histLen += len(d.HistoryAppended) - len(d.HistoryRemoved)
		if p.pendLen == len(pending) && p.histLen == len(history) {
			if err := p.ivm.Apply(p.roundDeltas(d)); err == nil {
				p.rows = p.ivm.AppendResult(p.rows[:0])
				p.lastStrategy = "sql-ivm"
				return p.finish(p.rows)
			}
		}
		// The deltas disagree with the slices, or the views refused them (a
		// delete of a row they never held): the views are no longer exact,
		// so they go and are rebuilt below (see the IncrementalProtocol
		// contract).
		p.ivm = nil
	}
	return p.buildIVM(pending, history)
}

// roundDeltas refills p.deltas with one round's request-level deltas in the
// two-table relational form minisql.IVM.Apply consumes: the requests' rows.
func (p *SQLProtocol) roundDeltas(d Deltas) map[string]minisql.Delta {
	req, hist := p.deltas["requests"], p.deltas["history"]
	p.deltas["requests"] = minisql.Delta{
		Ins: request.AppendTuples(req.Ins[:0], d.PendingAdded, 5),
		Del: request.AppendTuples(req.Del[:0], d.PendingRemoved, 5),
	}
	p.deltas["history"] = minisql.Delta{
		Ins: request.AppendTuples(hist.Ins[:0], d.HistoryAppended, 5),
		Del: request.AppendTuples(hist.Del[:0], d.HistoryRemoved, 5),
	}
	return p.deltas
}

// buildIVM builds the view cache from the round's slices, answers the round
// from it and keeps it for the rounds after (sql-ivm-build).
func (p *SQLProtocol) buildIVM(pending, history []request.Request) ([]request.Request, error) {
	m, out, err := p.build(pending, history)
	if err != nil {
		return nil, err
	}
	p.ivm = m
	p.pendLen, p.histLen = len(pending), len(history)
	p.lastStrategy = "sql-ivm-build"
	return out, nil
}

// build builds a view cache over the plan from empty, the requests' own rows
// (five-column prefixes) its first delta, and answers the round from it: the
// one build behind Qualify and buildIVM.
func (p *SQLProtocol) build(pending, history []request.Request) (*minisql.IVM, []request.Request, error) {
	m, err := minisql.NewIVM(p.plan, map[string]minisql.Delta{
		"requests": {Ins: request.AppendTuples(make([]relation.Tuple, 0, len(pending)), pending, 5)},
		"history":  {Ins: request.AppendTuples(make([]relation.Tuple, 0, len(history)), history, 5)},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("protocol %s: %w", p.name, err)
	}
	p.rows = m.AppendResult(p.rows[:0])
	out, err := p.finish(p.rows)
	if err != nil {
		return nil, nil, err
	}
	return m, out, nil
}

// finish converts a query result's rows to requests: the five columns each
// row holds (see Protocol.Qualify).
func (p *SQLProtocol) finish(rows []relation.Tuple) ([]request.Request, error) {
	var err error
	if p.qualified, err = request.AppendFromTuples(p.qualified[:0], rows); err != nil {
		return nil, fmt.Errorf("protocol %s: bad query output: %w", p.name, err)
	}
	return p.qualified, nil
}

// DatalogProtocol runs a Datalog program each round. The program reads EDB
// predicates request/5 (or request/7 when extended) and history/5 and must
// define a `qualified` predicate whose columns mirror its request EDB.
// Additional EDB relations — application metadata such as object consistency
// classes — can be bound with SetAux.
type DatalogProtocol struct {
	name     string
	engine   *datalog.Engine
	extended bool
	order    func([]request.Request)
	aux      map[string][]relation.Tuple

	// Incremental state (QualifyIncremental): warm marks that the engine's
	// retained fact sets mirror the scheduler's pending/history.
	warm bool
	// changed and the four tuple slices behind its deltas are the round's
	// hand-over to the engine, refilled in place every round with the
	// requests' own rows (the engine keeps the inserted rows, never the
	// slices).
	changed                          map[string]datalog.EDBDelta
	reqIns, reqDel, histIns, histDel []relation.Tuple

	// qualified and wounded are the last call's answers, reused by the
	// next (see Protocol.Qualify and Wounder).
	qualified []request.Request
	wounded   []int64

	// decomposable claims per-object decomposability (see
	// protocol.ObjectDecomposable). Only constructors of vetted rule texts
	// set it: SS2PL, 2PL, relaxed reads and FCFS join requests and history
	// on the same object only, while SLA priority (global beats relation)
	// and wound-wait (wounds derived in one partition must block in
	// another) do not factor by object.
	decomposable bool
}

// NewDatalogProtocol compiles the program once. If extended is true the
// request EDB carries the SLA columns (priority, arrival = ID). The order
// function fixes the execution order of the qualified set; nil means ByID.
func NewDatalogProtocol(name, src string, extended bool, order func([]request.Request)) (*DatalogProtocol, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	eng, err := datalog.NewEngine(prog)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	if order == nil {
		order = ByID
	}
	return &DatalogProtocol{
		name: name, engine: eng, extended: extended, order: order,
		changed: make(map[string]datalog.EDBDelta, 2),
	}, nil
}

func mustDatalog(name, src string, extended bool, order func([]request.Request)) *DatalogProtocol {
	p, err := NewDatalogProtocol(name, src, extended, order)
	if err != nil {
		panic(err) // embedded text; a failure is a build error
	}
	return p
}

// SS2PLDatalog is the SS2PL protocol in the Datalog scheduler language.
func SS2PLDatalog() *DatalogProtocol {
	p := mustDatalog("ss2pl-datalog", rules.SS2PLDatalog, false, nil)
	p.decomposable = true
	return p
}

// TwoPLDatalog is the non-strict 2PL variant.
func TwoPLDatalog() *DatalogProtocol {
	p := mustDatalog("2pl-datalog", rules.TwoPLDatalog, false, nil)
	p.decomposable = true
	return p
}

// SLAPriorityDatalog is SS2PL with SLA-priority conflict resolution and
// priority-ordered output.
func SLAPriorityDatalog() *DatalogProtocol {
	return mustDatalog("sla-datalog", rules.SLAPriorityDatalog, true, ByPriorityThenID)
}

// RelaxedReadsDatalog is the relaxed-consistency protocol (lock-free reads).
func RelaxedReadsDatalog() *DatalogProtocol {
	p := mustDatalog("relaxed-datalog", rules.RelaxedReadsDatalog, false, nil)
	p.decomposable = true
	return p
}

// FCFSDatalog qualifies everything, declaratively.
func FCFSDatalog() *DatalogProtocol {
	p := mustDatalog("fcfs-datalog", rules.FCFSDatalog, false, nil)
	p.decomposable = true
	return p
}

// WoundWaitDatalog is SS2PL with wound-wait deadlock prevention: the
// protocol itself decides aborts (its `wound` predicate), so waits-for
// cycles never form.
func WoundWaitDatalog() *DatalogProtocol {
	return mustDatalog("woundwait-datalog", rules.WoundWaitDatalog, false, nil)
}

// Wounder is implemented by protocols that declare transactions to abort as
// part of their scheduling decision (e.g. wound-wait). The scheduler aborts
// the returned transactions after executing the qualified batch of the same
// round.
type Wounder interface {
	// Wounded returns the transactions the last Qualify decided to abort,
	// in a slice that stays valid until the protocol's next call.
	Wounded() []int64
}

// Wounded implements Wounder: the distinct first arguments of the `wound`
// predicate derived by the last Qualify, sorted, in a buffer the next call
// reuses.
func (p *DatalogProtocol) Wounded() []int64 {
	p.wounded = p.wounded[:0]
	for t := range p.engine.FactSeq("wound") {
		if len(t) == 1 && t[0].Kind() == relation.KindInt {
			p.wounded = append(p.wounded, t[0].AsInt())
		}
	}
	slices.Sort(p.wounded)
	p.wounded = slices.Compact(p.wounded)
	return p.wounded
}

// Name implements Protocol.
func (p *DatalogProtocol) Name() string { return p.name }

// ObjectDecomposable implements the marker (see protocol.ObjectDecomposable).
func (p *DatalogProtocol) ObjectDecomposable() bool { return p.decomposable }

// LastStrategy implements StrategyReporter with the engine's evaluation path
// of the last run (a function of the round's deltas alone).
func (p *DatalogProtocol) LastStrategy() string { return p.engine.Stats.Strategy }

// SetAux binds an auxiliary EDB relation (e.g. objclass(obj, class) for
// consistency rationing). It persists across Qualify calls until replaced.
func (p *DatalogProtocol) SetAux(pred string, rows []relation.Tuple) error {
	if pred == "request" || pred == "history" {
		return fmt.Errorf("protocol %s: %s is bound by the scheduler", p.name, pred)
	}
	if p.aux == nil {
		p.aux = make(map[string][]relation.Tuple)
	}
	p.aux[pred] = rows
	return p.engine.SetEDB(pred, rows)
}

// ConsistencyRationing builds the per-object consistency-class protocol.
// classes maps object numbers to consistency class "a" (strict SS2PL) or
// "c" (relaxed); unlisted objects are class "c".
func ConsistencyRationing(classes map[int64]string) (*DatalogProtocol, error) {
	p, err := NewDatalogProtocol("consistency-rationing", rules.ConsistencyRationingDatalog, false, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Tuple, 0, len(classes))
	for obj, class := range classes {
		rows = append(rows, relation.Tuple{relation.Int(obj), relation.String(class)})
	}
	if err := p.SetAux("objclass", rows); err != nil {
		return nil, err
	}
	return p, nil
}

// Qualify implements Protocol: a cold evaluation over freshly materialised
// pending and history relations. It invalidates any incremental state.
func (p *DatalogProtocol) Qualify(pending, history []request.Request) ([]request.Request, error) {
	p.warm = false
	var reqRel = request.ToRelation
	if p.extended {
		reqRel = request.ToExtendedRelation
	}
	if err := p.engine.SetEDBRelation("request", reqRel(pending)); err != nil {
		return nil, fmt.Errorf("protocol %s: %w", p.name, err)
	}
	if err := p.engine.SetEDBRelation("history", request.ToRelation(history)); err != nil {
		return nil, fmt.Errorf("protocol %s: %w", p.name, err)
	}
	if err := p.engine.Run(); err != nil {
		return nil, fmt.Errorf("protocol %s: %w", p.name, err)
	}
	return p.collect()
}

// QualifyIncremental implements IncrementalProtocol: the round's change set
// is forwarded to the engine as EDB deltas, so unchanged facts — the bulk of
// the history and every auxiliary relation — are never re-materialised, let
// alone re-derived. The first call, any divergence between the engine's EDB
// and the passed slices, and any delta the engine refuses fall back to the
// cold path.
func (p *DatalogProtocol) QualifyIncremental(pending, history []request.Request, d Deltas) ([]request.Request, error) {
	if p.warm {
		// Divergence guard: the engine's fact counts plus the incoming
		// change must land on the passed slices.
		if p.engine.FactCount("request")+len(d.PendingAdded)-len(d.PendingRemoved) != len(pending) ||
			p.engine.FactCount("history")+len(d.HistoryAppended)-len(d.HistoryRemoved) != len(history) {
			p.warm = false // rebuild below
		}
	}
	if !p.warm {
		return p.rebuild(pending, history)
	}

	changed := p.changed
	clear(changed)
	reqCols := 5
	if p.extended {
		reqCols = 7
	}
	if len(d.PendingAdded) > 0 || len(d.PendingRemoved) > 0 {
		p.reqIns = request.AppendTuples(p.reqIns[:0], d.PendingAdded, reqCols)
		p.reqDel = request.AppendTuples(p.reqDel[:0], d.PendingRemoved, reqCols)
		changed["request"] = datalog.EDBDelta{Insert: p.reqIns, Delete: p.reqDel}
	}
	if len(d.HistoryAppended) > 0 || len(d.HistoryRemoved) > 0 {
		p.histIns = request.AppendTuples(p.histIns[:0], d.HistoryAppended, 5)
		p.histDel = request.AppendTuples(p.histDel[:0], d.HistoryRemoved, 5)
		changed["history"] = datalog.EDBDelta{Insert: p.histIns, Delete: p.histDel}
	}
	if err := p.engine.RunIncremental(changed); err != nil {
		// The engine refused the deltas (a delete of a fact it never held):
		// its EDB is no longer exact, so answer with a full run, which
		// reloads it.
		return p.rebuild(pending, history)
	}
	return p.collect()
}

// rebuild answers the round with a full run and makes its state the baseline
// the next round's deltas apply to.
func (p *DatalogProtocol) rebuild(pending, history []request.Request) ([]request.Request, error) {
	qualified, err := p.Qualify(pending, history)
	if err != nil {
		return nil, err
	}
	p.warm = true
	return qualified, nil
}

// collect reads the qualified predicate (the columns its request EDB holds,
// see Protocol.Qualify) and fixes the execution order.
func (p *DatalogProtocol) collect() ([]request.Request, error) {
	p.qualified = p.qualified[:0]
	for t := range p.engine.FactSeq("qualified") {
		r, err := request.FromTuple(t)
		if err != nil {
			return nil, fmt.Errorf("protocol %s: bad qualified tuples: %w", p.name, err)
		}
		p.qualified = append(p.qualified, r)
	}
	p.order(p.qualified)
	return p.qualified, nil
}
