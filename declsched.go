// Package repro is a reproduction of "Declarative Scheduling in Highly
// Scalable Systems" (Christian Tilgner, EDBT 2010 Workshops): a middleware
// request scheduler whose scheduling protocols — SS2PL, 2PL variants, SLA
// tiers, relaxed and adaptive consistency — are declarative programs (SQL or
// Datalog) evaluated set-at-a-time over relations of pending and executed
// requests.
//
// This file is the public facade. A minimal session looks like:
//
//	sched, _ := repro.New(repro.Options{Protocol: repro.SS2PLDatalog(), TableRows: 1000})
//	sched.Start()
//	defer sched.Stop()
//	tx := repro.NewTransaction(1).Read(7).Write(7).Commit()
//	results, _ := repro.RunTransactions(sched, [][]repro.Transaction{{tx}})
//
// The building blocks live in internal/: relation/ra (relational substrate),
// minisql and datalog (the two declarative engines), protocol (the protocol
// abstraction and its implementations), scheduler (the Figure 1 middleware),
// storage/lock (the server with its native scheduler), workload, sim and
// experiments (the evaluation).
//
// # Incremental rounds
//
// Scheduling rounds warm-start. The scheduler tracks exactly how the pending
// store and the history changed since the previous round (admissions,
// executions, deadlock victims, history garbage collection) and hands the
// change set to the protocol (protocol.IncrementalProtocol). The Datalog
// protocols forward it to the engine as EDB deltas: unchanged relations keep
// their hashed fact sets and indexes across rounds, and only the
// consequences of the round's churn are re-derived (datalog.RunIncremental).
// The SQL protocol maintains a view cache over its compiled plan: every view
// a delta rule reads keeps a bag, patched per changed tuple. Nothing of this
// is visible in the API: protocols remain pure functions of
// (pending, history), a cold evaluation remains the fallback and the
// correctness oracle, and custom protocols built with NewDatalogProtocol or
// NewSQLProtocol get the warm path automatically.
//
// # Pipelined rounds
//
// The middleware runs rounds pipelined: a round's scheduling decision
// (admit, qualify, resolve victims, commit to the indexed pending and
// history stores of internal/store) settles all state the next round's
// qualification reads, so server execution is deferred to an executor
// goroutine and overlaps the next qualification. Clients still see one
// synchronous Submit per request; deadlock and starvation victims are
// notified at scheduling time. There is one round loop (scheduler.Engine):
// the same schedule with its plans executed inline is the synchronous mode,
// the property tests' oracle (scheduler.Middleware.SetSynchronous), and a
// partitioned scheduler is the same engine built with more than one shard.
package repro

import (
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Request is one schedulable operation (paper Table 2).
type Request = request.Request

// Transaction is an ordered sequence of requests.
type Transaction = request.Transaction

// Protocol decides which pending requests may execute in a round.
type Protocol = protocol.Protocol

// Result is the scheduler's reply to a submitted request.
type Result = scheduler.Result

// Re-exported request operation types.
const (
	Read   = request.Read
	Write  = request.Write
	Abort  = request.Abort
	Commit = request.Commit
)

// Protocol constructors.
var (
	// SS2PLDatalog is strong strict 2PL in the Datalog scheduler language.
	SS2PLDatalog = protocol.SS2PLDatalog
	// SS2PLSQL is the paper's Listing 1 (SS2PL as one SQL query).
	SS2PLSQL = protocol.SS2PLSQL
	// TwoPLDatalog releases read locks of committing transactions early.
	TwoPLDatalog = protocol.TwoPLDatalog
	// SLAPriority resolves conflicts in favour of higher-priority customers.
	SLAPriority = protocol.SLAPriorityDatalog
	// RelaxedReads never blocks reads (bounded-staleness consistency).
	RelaxedReads = protocol.RelaxedReadsDatalog
	// WoundWait prevents deadlocks declaratively: older transactions wound
	// younger lock holders instead of waiting behind them.
	WoundWait = protocol.WoundWaitDatalog
	// FCFS schedules nothing: every pending request executes in arrival
	// order (the paper's non-scheduling baseline).
	FCFS = func() Protocol { return &protocol.FCFS{} }
)

// NewConsistencyRationing builds the per-object consistency-class protocol
// (class "a" objects get SS2PL; everything else relaxed treatment), in the
// style of the Consistency Rationing work the paper builds on.
func NewConsistencyRationing(classes map[int64]string) (Protocol, error) {
	return protocol.ConsistencyRationing(classes)
}

// NewDatalogProtocol compiles a custom protocol from Datalog source. The
// program reads request(id, ta, intrata, op, obj) — with priority and
// arrival appended when extended is true — plus history(id, ta, intrata,
// op, obj), and must define a qualified predicate mirroring its request
// arity.
func NewDatalogProtocol(name, src string, extended bool) (Protocol, error) {
	return protocol.NewDatalogProtocol(name, src, extended, nil)
}

// NewSQLProtocol compiles a custom protocol from a SQL query over the
// `requests` and `history` tables; the query must return request rows
// (id, ta, intrata, operation, object). The SQL subset has no aggregates,
// GROUP BY, HAVING or LIMIT; a query using one is refused by name.
func NewSQLProtocol(name, sql string) (Protocol, error) {
	return protocol.NewSQL(name, sql)
}

// NewAdaptiveProtocol switches from strict to relaxed at a pending-batch
// threshold (the paper's adaptive consistency scheduler).
func NewAdaptiveProtocol(strict, relaxed Protocol, threshold int) Protocol {
	return protocol.NewAdaptive(strict, relaxed, threshold)
}

// NewTransaction starts a transaction builder with the given transaction
// number. Request IDs are assigned by the scheduler on admission.
func NewTransaction(ta int64) *request.Builder {
	return request.NewBuilder(ta, nil)
}

// Options configures a Scheduler.
type Options struct {
	// Protocol is the scheduling protocol (required).
	Protocol Protocol
	// TableRows sizes the server's table (default 100000, the paper's).
	TableRows int
	// StatementWork is synthetic per-statement server cost in spin units.
	StatementWork int
	// Trigger is the round trigger policy (default: hybrid fill 32 / 1ms).
	Trigger scheduler.Trigger
	// KeepLog retains the execution log for serializability checking.
	KeepLog bool
}

// Scheduler is the running middleware: the paper's Figure 1 component.
type Scheduler struct {
	mw     *scheduler.Middleware
	server *storage.Server
}

// New builds a scheduler.
func New(opts Options) (*Scheduler, error) {
	rows := opts.TableRows
	if rows == 0 {
		rows = 100000
	}
	srv := storage.NewServer(storage.Config{Rows: rows, StatementWork: opts.StatementWork})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol: opts.Protocol,
		Server:   srv,
		KeepLog:  opts.KeepLog,
	})
	if err != nil {
		return nil, err
	}
	trig := opts.Trigger
	if trig == nil {
		trig = scheduler.HybridTrigger{Level: 32, Every: 1e6} // 1ms
	}
	return &Scheduler{
		mw:     scheduler.NewMiddleware(engine, trig, metrics.NewCollector()),
		server: srv,
	}, nil
}

// Start launches the scheduling loop.
func (s *Scheduler) Start() { s.mw.Start() }

// Stop drains and shuts down.
func (s *Scheduler) Stop() { s.mw.Stop() }

// Submit sends one request and blocks until it executes (or its transaction
// aborts as a deadlock victim, signalled by scheduler.ErrTxnAborted).
func (s *Scheduler) Submit(r Request) Result { return s.mw.Submit(r) }

// Stats summarises the run so far.
func (s *Scheduler) Stats() metrics.Summary { return s.mw.Collector().Summarise() }

// Server exposes the storage server (row inspection in examples and tests).
func (s *Scheduler) Server() *storage.Server { return s.server }

// RunTransactions drives the scheduler closed-loop with one client worker
// per queue, retrying deadlock victims, and returns the workload outcome.
func RunTransactions(s *Scheduler, queues [][]Transaction) (scheduler.WorkloadResult, error) {
	return scheduler.RunWorkload(s.mw, queues, 10)
}

// WorkloadConfig re-exports the workload generator configuration.
type WorkloadConfig = workload.Config

// GenerateWorkload builds deterministic client transaction queues.
func GenerateWorkload(cfg WorkloadConfig) ([][]Transaction, error) {
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.ClientQueues(), nil
}
