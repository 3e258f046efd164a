package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/request"
)

// ErrTxnAborted is delivered to clients whose transaction was aborted as a
// victim; the client must restart the transaction under a new TA. A victim
// hears one of the errors below, which names why it was chosen and matches
// ErrTxnAborted under errors.Is.
var ErrTxnAborted = errors.New("scheduler: transaction aborted")

// The victims' errors, one per abort cause (metrics.Victim*). They are
// values, so an abort allocates no error.
var (
	// ErrWounded: an older transaction wounded it (wound-wait).
	ErrWounded = fmt.Errorf("%w: wounded by an older transaction", ErrTxnAborted)
	// ErrDeadlockVictim: the youngest member of a waits-for cycle in a
	// round where nothing qualified.
	ErrDeadlockVictim = fmt.Errorf("%w: deadlock victim", ErrTxnAborted)
	// ErrStarvedCycle: the youngest member of a waits-for cycle found when
	// the oldest waiter passed the starvation bound.
	ErrStarvedCycle = fmt.Errorf("%w: deadlock victim behind a starving waiter", ErrTxnAborted)
	// ErrStarved: the oldest waiter itself, past the starvation bound with
	// no cycle to explain its wait.
	ErrStarved = fmt.Errorf("%w: waited past the starvation bound", ErrTxnAborted)
)

// victimErr is the error a victim of a round aborted for cause hears.
func victimErr(cause string) error {
	switch cause {
	case metrics.VictimWound:
		return ErrWounded
	case metrics.VictimCycle:
		return ErrDeadlockVictim
	case metrics.VictimStarvedCycle:
		return ErrStarvedCycle
	case metrics.VictimStarvedOldest:
		return ErrStarved
	}
	return ErrTxnAborted
}

// ErrStopped is delivered when the middleware shuts down with requests in
// flight.
var ErrStopped = errors.New("scheduler: middleware stopped")

// ErrBusy marks admission-control rejections: the submission queue is full or
// the scheduler is shedding load. The concrete error is a *BusyError carrying
// a retry-after hint; errors.Is(err, ErrBusy) matches it. A busy-rejected
// request never entered the scheduler: it is not queued, not pending, not in
// history and not journaled.
var ErrBusy = errors.New("scheduler: busy, retry later")

// ErrShuttingDown rejects new transactions while the middleware drains:
// admitted transactions run to termination, new ones must go elsewhere.
var ErrShuttingDown = errors.New("scheduler: shutting down")

// ErrTxnFinished answers a request of a transaction whose commit or abort
// was registered, or that was aborted as a victim, when the resubmit cache
// (ResubmitWindow) holds no outcome for it. Such a request never executes.
var ErrTxnFinished = errors.New("scheduler: transaction already terminated")

// ErrTxnInFlight answers a commit or abort submitted while a request of its
// transaction is unanswered. The transaction stays live: submit the
// termination again once its requests are answered.
var ErrTxnInFlight = errors.New("scheduler: termination submitted while its transaction has requests in flight")

// ErrDuplicateKey answers a submission whose (TA, IntraTA) key is already
// live — registered and not yet answered — with different content (Op,
// Object or Priority). A key names one request: the first submission
// stands, and the refused one never enters the scheduler.
var ErrDuplicateKey = errors.New("scheduler: request key already submitted with different content")

// errSuperseded answers a client whose (TA, IntraTA) request was
// retransmitted with identical content before the first submission was
// answered: the retransmission takes over the waiting, and the request still
// executes once.
var errSuperseded = errors.New("scheduler: request superseded by a duplicate submission")

// BusyError is the admission-control rejection: the queue cap or the shedding
// policy refused the request. RetryAfter is the server's backoff hint, scaled
// by the current round latency and queue pressure.
type BusyError struct{ RetryAfter time.Duration }

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("scheduler: busy, retry after %s", e.RetryAfter)
}

// Is matches ErrBusy, so callers test rejection with errors.Is.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Limits bounds the middleware's admission (see the Config fields of the same
// names). The zero value means unlimited.
type Limits struct {
	MaxQueued          int
	MaxInflightPerConn int
	ShedLatencyBudget  time.Duration
	ResubmitWindow     int
}

// Result is the middleware's reply to one submitted request.
type Result struct {
	Value int64
	Err   error
}

// Middleware is the concurrent front-end of the scheduler (paper Figure 1):
// each connected client talks to its own client worker, which forwards
// requests into the incoming queue; a scheduler loop fires rounds according
// to the trigger policy, and results go back to the client workers. The loop
// only schedules, and it is event-driven: it shows the trigger its Load on
// every arrival and delivery, and in between sleeps until the earliest
// deadline (the trigger's or progressBound) on one timer — or, below napBelow,
// on a kernel sleep instead, which keeps it on time — armed only while
// something is queued or pending.
//
// Rounds run pipelined by default: the loop schedules a round (admit,
// qualify, resolve, commit) and moves on — server execution happens on the
// engine's executor goroutines, and each executor answers its batch's waiting
// clients itself, in execution order, as soon as the batch has executed; it
// then pokes the loop, so the trigger sees the delivery. Victims are known at
// scheduling time and are notified immediately, without waiting for the
// server. SetSynchronous restores the fully serialized round loop (the
// property-test oracle and the baseline of the overlap benchmark).
//
// Submit registers the waiter and enqueues directly into the engine's
// admission queues — concurrent submissions from many client workers do not
// serialize through the loop, which is only poked to evaluate its trigger.
//
// Overload safety: admission is checked before any state is touched. A
// request rejected with BusyError or ErrShuttingDown never reaches the
// incoming queue, the pending store, history or the durable journal, and its
// submitter gets exactly one error. Once admitted, a request always reaches
// exactly one terminal outcome — executed, aborted, or failed on shutdown —
// it is never silently dropped.
type Middleware struct {
	engine    *Engine
	trigger   Trigger
	collector *metrics.Collector
	syncMode  bool
	limits    Limits
	lastRound time.Time // loop goroutine only
	// wakeups counts loop iterations and wakes records why the first few
	// woke (loop goroutine only; tests read them after Stop). pokedBy
	// collects the causes of the pokes since the loop last woke: pokes
	// coalesce in notify, so one wake-up can have several.
	wakeups int
	wakes   [16]wakeCause
	pokedBy atomic.Uint32
	// napAt is the deadline (UnixNano) of the kernel sleep the loop is
	// waiting on, 0 when none: a nap whose deadline the loop has since
	// dropped — a round ran, or a nearer or longer wait replaced it — ends
	// without waking it. The one napper goroutine sleeps until napAt when
	// napWake asks it to; napping is the deadline it sleeps until, 0 when
	// it is awake.
	napAt   atomic.Int64
	napping atomic.Int64
	napWake chan struct{}

	// queued counts admitted-but-unanswered submissions (registered
	// waiters): the fill level the MaxQueued admission cap reads.
	queued   atomic.Int64
	draining atomic.Bool
	answered atomic.Int64 // replies handed out since the last round fired (Load.Answered)
	// qualEWMA/roundEWMA track recent qualify latency and total round time
	// (ns); the shed policy and the retry-after hint read them lock-free.
	qualEWMA  atomic.Int64
	roundEWMA atomic.Int64

	mu      sync.Mutex
	waiters map[request.Key]waiter
	byTA    map[int64][]request.Key
	// freeKeys holds the emptied key slices of transactions whose byTA or
	// doneByTA entry went (releaseKeys), for the next transactions either
	// map files (takeKeys).
	freeKeys [][]request.Key
	// closed is set ahead of the loop's final sweep: a submission that
	// registers after it is answered ErrStopped on the spot, since nothing
	// else would answer it.
	closed bool
	// terminated is every transaction whose termination was registered or
	// that was notified as a victim. untold holds the victims that had no
	// request in flight then, with their error: the next request of each
	// hears of the abort.
	terminated terminatedSet
	untold     map[int64]error
	// done caches executed results of live transactions and finished their
	// terminal outcomes (bounded FIFO), so a reconnecting client's resubmit
	// is answered from the record instead of executing twice. Maintained
	// only when limits.ResubmitWindow > 0.
	done     map[request.Key]Result
	doneByTA map[int64][]request.Key
	finished map[int64]terminal
	finOrder []int64
	notify   chan struct{}
	stop     chan struct{}
	stopped  chan struct{}
}

// terminal is a transaction's recorded terminal outcome: the result of its
// termination request and which termination it was.
type terminal struct {
	res Result
	op  request.Op
}

// waiter is one unanswered submission: its answer goes to to.Reply under
// tag — a pooled reply channel for a blocking Submit, the submitter's own
// target for SubmitTo. req keeps the submitted request so a later duplicate
// of the same key can tell a retransmission (identical content — attach to
// the in-flight copy) from a different request under a live key (refused
// with ErrDuplicateKey). A waiter is a map value: it stays at or under 128
// bytes (120 today), or Go stores it out of line, one allocation per
// submission.
type waiter struct {
	req   request.Request
	to    Replier
	tag   uint64
	stamp time.Time
}

// Replier is the delivery target of SubmitTo. Reply is called exactly once
// per accepted submission, with the tag it was submitted under: possibly
// synchronously from SubmitTo (a resubmit-cache hit), and otherwise from the
// middleware's delivery path — an executor or the round loop, with the
// middleware's lock held — so it must not block. A target that serves many
// submissions tells them apart by the tag (the network front end passes
// each request's correlation ID).
type Replier interface {
	Reply(tag uint64, res Result)
}

// NewMiddleware wraps an engine with a trigger policy. The collector may be
// nil. Admission limits are taken from the engine's Config.
func NewMiddleware(engine *Engine, trigger Trigger, collector *metrics.Collector) *Middleware {
	if collector == nil {
		collector = metrics.NewCollector()
	}
	m := &Middleware{
		engine:    engine,
		trigger:   trigger,
		collector: collector,
		limits: Limits{
			MaxQueued:          engine.cfg.MaxQueued,
			MaxInflightPerConn: engine.cfg.MaxInflightPerConn,
			ShedLatencyBudget:  engine.cfg.ShedLatencyBudget,
			ResubmitWindow:     engine.cfg.ResubmitWindow,
		},
		waiters: make(map[request.Key]waiter),
		byTA:    make(map[int64][]request.Key),
		untold:  make(map[int64]error),
		notify:  make(chan struct{}, 1),
		napWake: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if m.limits.ResubmitWindow > 0 {
		m.done, m.doneByTA = make(map[request.Key]Result), make(map[int64][]request.Key)
		m.finished = make(map[int64]terminal)
	}
	return m
}

// NewPartitionedMiddleware is NewMiddleware (a PartitionedEngine is an
// Engine).
func NewPartitionedMiddleware(pe *PartitionedEngine, trigger Trigger, collector *metrics.Collector) *Middleware {
	return NewMiddleware(pe, trigger, collector)
}

// Collector returns the metrics collector.
func (m *Middleware) Collector() *metrics.Collector { return m.collector }

// SetSynchronous selects the fully serialized round loop (qualify and
// execute back to back on the scheduler goroutine) instead of the pipelined
// default. Must be called before Start.
func (m *Middleware) SetSynchronous(on bool) { m.syncMode = on }

// Limits returns the admission limits in force (the network front end reads
// MaxInflightPerConn from here).
func (m *Middleware) Limits() Limits { return m.limits }

// Queued returns the number of admitted-but-unanswered submissions.
func (m *Middleware) Queued() int { return int(m.queued.Load()) }

// Start launches the scheduler loop.
func (m *Middleware) Start() { go m.loop() }

// Stop shuts the loop down and fails in-flight requests with ErrStopped.
func (m *Middleware) Stop() {
	close(m.stop)
	<-m.stopped
}

// BeginDrain switches the middleware to drain mode: new transactions are
// rejected with ErrShuttingDown while requests of already-admitted
// transactions keep flowing, so in-flight work runs to termination.
func (m *Middleware) BeginDrain() { m.draining.Store(true) }

// DrainAndStop is the graceful shutdown: reject new transactions, wait up to
// timeout for the admitted ones to finish, then stop the loop (failing
// whatever remains with ErrStopped). Callers shut the listener first, drain
// here, then close the storage server so the journal's final fsync covers
// everything that was acknowledged.
func (m *Middleware) DrainAndStop(timeout time.Duration) {
	m.BeginDrain()
	deadline := time.Now().Add(timeout)
	for m.queued.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
}

// admission decides whether a submission may enter, before any state is
// touched. Requests of already-admitted transactions (IntraTA > 0) always
// pass: rejecting mid-transaction work would strand held locks, and the shed
// policy is "never admitted-then-dropped". New transactions are rejected when
// draining, at the MaxQueued cap, or by the latency shed policy —
// lowest-priority work first, everything once qualify latency exceeds twice
// the budget.
func (m *Middleware) admission(r request.Request) error {
	if r.IntraTA != 0 {
		return nil
	}
	if m.draining.Load() {
		return ErrShuttingDown
	}
	if max := m.limits.MaxQueued; max > 0 && m.queued.Load() >= int64(max) {
		return &BusyError{RetryAfter: m.retryAfter()}
	}
	if budget := m.limits.ShedLatencyBudget; budget > 0 {
		q := time.Duration(m.qualEWMA.Load())
		if q > 2*budget || (q > budget && r.Priority <= 0) {
			return &BusyError{RetryAfter: m.retryAfter()}
		}
	}
	return nil
}

// minRetryAfter floors the BUSY backoff hint. Before the first round
// completes roundEWMA is zero; without a floor a cold-start burst would be
// told "retry after 0" and come straight back in a tight stampede.
const minRetryAfter = time.Millisecond

// retryAfter is the backoff hint attached to BusyError: a few rounds' worth
// of drain time, scaled up with queue pressure, clamped to [1ms, 1s].
func (m *Middleware) retryAfter() time.Duration {
	d := time.Duration(m.roundEWMA.Load())
	if d <= 0 {
		d = minRetryAfter
	}
	if max := m.limits.MaxQueued; max > 0 {
		fill := float64(m.queued.Load()) / float64(max)
		d = time.Duration(float64(d) * (1 + 4*fill))
	} else {
		d *= 2
	}
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// observeRound feeds the shed policy's latency EWMAs (weight 1/8). The round
// loop is the only writer, so plain load-add-store is race-free. The first
// sample seeds the EWMA directly: warming up from zero would leave the
// retry-after hint and the shed threshold reading ~8x low for the first
// dozen rounds after a cold start.
func (m *Middleware) observeRound(rs metrics.RoundStats) {
	upd := func(a *atomic.Int64, v int64) {
		old := a.Load()
		if old == 0 {
			a.Store(v)
			return
		}
		a.Store(old + (v-old)/8)
	}
	upd(&m.qualEWMA, rs.Duration.Nanoseconds())
	upd(&m.roundEWMA, rs.Total.Nanoseconds())
}

// recordExecuted remembers one executed result for the resubmit cache.
// Caller holds m.mu.
func (m *Middleware) recordExecuted(ex Executed) {
	if m.limits.ResubmitWindow <= 0 {
		return
	}
	if ex.Request.Op.IsTermination() {
		m.finishTA(ex.Request.TA, terminal{res: Result{Value: ex.Value, Err: ex.Err}, op: ex.Request.Op})
		return
	}
	k := ex.Request.Key()
	if _, dup := m.done[k]; !dup {
		keys, ok := m.doneByTA[ex.Request.TA]
		if !ok {
			keys = m.takeKeys()
		}
		m.doneByTA[ex.Request.TA] = append(keys, k)
	}
	m.done[k] = Result{Value: ex.Value, Err: ex.Err}
}

// finishTA records a transaction's terminal outcome and drops its per-request
// cache entries; the bounded FIFO evicts the oldest terminal outcomes beyond
// the window. Caller holds m.mu.
func (m *Middleware) finishTA(ta int64, t terminal) {
	if m.limits.ResubmitWindow <= 0 {
		return
	}
	if keys, ok := m.doneByTA[ta]; ok {
		for _, k := range keys {
			delete(m.done, k)
		}
		delete(m.doneByTA, ta)
		m.releaseKeys(keys)
	}
	if _, dup := m.finished[ta]; !dup {
		m.finOrder = append(m.finOrder, ta)
	}
	m.finished[ta] = t
	for len(m.finished) > m.limits.ResubmitWindow {
		old := m.finOrder[0]
		m.finOrder = m.finOrder[1:]
		delete(m.finished, old)
	}
}

// TerminalOutcome reports a transaction's recorded terminal outcome — the
// result of its termination and which termination ran (Commit or Abort, with
// ErrTxnAborted results recorded under Abort). Only transactions inside the
// ResubmitWindow are visible; the chaos harness uses this to classify
// transactions whose final acknowledgement was lost on the wire.
func (m *Middleware) TerminalOutcome(ta int64) (Result, request.Op, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.finished[ta]
	return t.res, t.op, ok
}

// answer delivers one result to a waiter. Every admitted submission is
// answered exactly once through here, which keeps the queued counter truthful.
func (m *Middleware) answer(w waiter, res Result) {
	m.queued.Add(-1)
	m.answerUnregistered(w, res)
}

// registerLocked admits one submission under m.mu and reports whether its
// request must be enqueued to the engine. Holding the same lock as deliver
// and notifyVictims closes every duplicate-execution window a reconnecting
// client can open: the original copy may have executed (answer from the
// cache), be in flight (attach the new waiter to it instead of enqueuing a
// second copy), or have been aborted (answer the terminal outcome). A
// duplicate with *different* content is refused with ErrDuplicateKey and the
// first submission stands.
//
// It is also the one owner of a transaction's end (see Submit): no request
// is enqueued after its transaction's termination.
//
// So a key is enqueued only when no waiter holds it, and a waiter holds its
// key from registration until its answer — through the admission queue, the
// pending store and execution. Engine.Enqueue therefore never sees a key
// that is still queued or pending.
func (m *Middleware) registerLocked(k request.Key, w waiter) bool {
	if m.closed {
		m.answerUnregistered(w, Result{Err: ErrStopped})
		return false
	}
	if err, ok := m.untold[k.TA]; ok {
		delete(m.untold, k.TA)
		m.answerUnregistered(w, Result{Err: err})
		return false
	}
	if t, ok := m.finished[k.TA]; ok {
		if t.res.Err != nil || w.req.Op.IsTermination() {
			m.answerUnregistered(w, t.res)
		} else {
			m.answerUnregistered(w, Result{Err: ErrTxnFinished})
		}
		return false
	}
	if res, ok := m.done[k]; ok {
		m.answerUnregistered(w, res)
		return false
	}
	if prev, ok := m.waiters[k]; ok {
		if prev.req.Op != w.req.Op || prev.req.Object != w.req.Object ||
			prev.req.Priority != w.req.Priority {
			m.answerUnregistered(w, Result{Err: ErrDuplicateKey})
			return false
		}
		// A retransmission: the new waiter takes over the in-flight copy,
		// and the superseded client is answered rather than left waiting on
		// a reply that never comes.
		m.answer(prev, Result{Err: errSuperseded})
		m.waiters[k] = w
		m.queued.Add(1)
		return false
	}
	if m.terminated.has(k.TA) {
		m.answerUnregistered(w, Result{Err: ErrTxnFinished})
		return false
	}
	keys, ok := m.byTA[k.TA]
	if w.req.Op.IsTermination() {
		for _, key := range keys {
			if _, live := m.waiters[key]; live {
				m.answerUnregistered(w, Result{Err: ErrTxnInFlight})
				return false
			}
		}
		m.terminated.add(k.TA)
	}
	if !ok {
		keys = m.takeKeys()
	}
	m.byTA[k.TA] = append(keys, k)
	m.waiters[k] = w
	m.queued.Add(1)
	return true
}

// answerUnregistered answers a submission that was never registered (cache
// hit at registration time): no queued-counter bookkeeping.
func (m *Middleware) answerUnregistered(w waiter, res Result) {
	m.answered.Add(1)
	w.to.Reply(w.tag, res)
}

// replyChan is Submit's delivery target: a channel buffered for the one
// Result, which the submitter receives.
type replyChan chan Result

// Reply implements Replier.
func (c replyChan) Reply(_ uint64, res Result) { c <- res }

// replies recycles Submit's reply channels. A channel goes back after its
// single receive, which is safe only because every registered waiter is
// answered exactly once (answer and answerUnregistered, each followed by
// the waiter leaving m.waiters): a second send to a waiter would land in a
// channel another Submit now owns and hand that caller a foreign Result.
var replies = sync.Pool{New: func() any { return make(replyChan, 1) }}

// Submit sends one request and blocks until it executed (or its transaction
// aborted, or admission rejected it). Safe for concurrent use by many client
// workers. A commit or abort submitted while a request of its transaction is
// unanswered is refused with ErrTxnInFlight. Once one is registered, or the
// transaction is aborted as a victim, every later request of it but a
// retransmission of that termination is refused and never executes:
// ErrTxnAborted for the first one of a victim that had none in flight, the
// recorded outcome inside ResubmitWindow, ErrTxnFinished beyond it.
func (m *Middleware) Submit(r request.Request) Result {
	if err := m.admission(r); err != nil {
		return Result{Err: err}
	}
	reply := replies.Get().(replyChan)
	m.registerAndEnqueue(r, waiter{to: reply, stamp: time.Now()})
	res := <-reply
	replies.Put(reply)
	return res
}

// SubmitTo submits one request without blocking for its result: to.Reply
// is called exactly once with tag and the outcome (see Replier). A non-nil
// return means the request was rejected before admission (BusyError,
// ErrShuttingDown, ErrStopped) and to will not hear of it; the refusals of
// Submit reach to. This is the submission path
// of the multiplexed network front end: one connection carries many
// in-flight requests without a goroutine or a closure each.
func (m *Middleware) SubmitTo(r request.Request, to Replier, tag uint64) error {
	if err := m.admission(r); err != nil {
		return err
	}
	select {
	case <-m.stopped:
		return ErrStopped
	default:
	}
	m.registerAndEnqueue(r, waiter{to: to, tag: tag, stamp: time.Now()})
	return nil
}

// registerAndEnqueue is the concurrent admission path: register the waiter,
// put the request into the engine's admission queue without passing through
// the loop goroutine, and poke the loop so its trigger can evaluate the new
// fill level. Enqueuing under m.mu queues a victim's request before
// notifyVictims, for the engine to drop (Engine.dropAborted), or not at all.
func (m *Middleware) registerAndEnqueue(r request.Request, w waiter) {
	w.req = r
	m.mu.Lock()
	if m.registerLocked(r.Key(), w) {
		m.engine.Enqueue(r)
	}
	m.mu.Unlock()
	m.poke(wokeArrival)
}

// wakeCause names what woke the round loop, one bit per source.
type wakeCause uint8

const (
	wokeArrival  wakeCause = 1 << iota // a submission
	wokeNap                            // the kernel sleep of a short wait ended
	wokeRound                          // the loop's own poke after a round
	wokeDelivery                       // an executor answered a batch
	wokeTimer                          // the loop's timer fired
)

// poke wakes the loop without blocking.
func (m *Middleware) poke(cause wakeCause) {
	m.pokedBy.Or(uint32(cause))
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// failAll fails every registered waiter (round error or shutdown).
func (m *Middleware) failAll(err error) {
	m.mu.Lock()
	for k, w := range m.waiters {
		m.answer(w, Result{Err: err})
		delete(m.waiters, k)
	}
	m.byTA = make(map[int64][]request.Key)
	m.mu.Unlock()
}

// deliver routes one completed batch to its waiting clients, in execution
// order. Requests without a waiter (scheduler-internal, or failed rounds
// already swept) are skipped. Under pipelined rounds it runs on the shards'
// executor goroutines, concurrently with the loop and with each other.
func (m *Middleware) deliver(c Completion) {
	if c.Err != nil {
		// The executor diverged from the stores (failed compensation):
		// everything in flight is undefined, exactly like a failed
		// synchronous round.
		m.failAll(c.Err)
		return
	}
	m.collector.Exec.Observe(c.Exec.Nanoseconds())
	m.mu.Lock()
	for _, ex := range c.Executed {
		k := ex.Request.Key()
		if w, ok := m.waiters[k]; ok {
			m.answer(w, Result{Value: ex.Value, Err: ex.Err})
			delete(m.waiters, k)
			m.collector.Latency.Observe(time.Since(w.stamp).Nanoseconds())
		}
		m.recordExecuted(ex)
		if ex.Request.Op.IsTermination() {
			m.dropTA(ex.Request.TA)
		}
	}
	m.mu.Unlock()
}

// dropTA deletes a finished transaction's byTA entry and keeps its emptied
// slice for the next transaction. Caller holds m.mu.
func (m *Middleware) dropTA(ta int64) {
	if keys, ok := m.byTA[ta]; ok {
		delete(m.byTA, ta)
		m.releaseKeys(keys)
	}
}

// takeKeys returns an emptied key slice to file a new transaction's keys in
// (nil when none is free). Caller holds m.mu.
func (m *Middleware) takeKeys() []request.Key {
	n := len(m.freeKeys)
	if n == 0 {
		return nil
	}
	keys := m.freeKeys[n-1]
	m.freeKeys = m.freeKeys[:n-1]
	return keys
}

// releaseKeys keeps the slice of a key list no map holds any more. Caller
// holds m.mu.
func (m *Middleware) releaseKeys(keys []request.Key) {
	m.freeKeys = append(m.freeKeys, keys[:0])
}

// notifyVictims unblocks the clients of aborted transactions — under
// deferred execution this happens at scheduling time, before the server has
// even seen the round's batch. cause is the round's (RoundStats.Cause), and
// picks the error they hear.
func (m *Middleware) notifyVictims(victims []int64, cause string) {
	if len(victims) == 0 {
		return
	}
	err := victimErr(cause)
	m.mu.Lock()
	for _, ta := range victims {
		told := false
		for _, k := range m.byTA[ta] {
			if w, ok := m.waiters[k]; ok {
				m.answer(w, Result{Err: err})
				delete(m.waiters, k)
				told = true
			}
		}
		if !told && !m.terminated.has(ta) {
			m.untold[ta] = err
		}
		m.terminated.add(ta)
		m.dropTA(ta)
		m.finishTA(ta, terminal{res: Result{Err: err}, op: request.Abort})
	}
	m.mu.Unlock()
}

// loop is the round loop. Admission happened concurrently in Submit, and the
// executors deliver their own batches; the loop only fires rounds — deferred
// onto the engine's executors by default, inline under SetSynchronous.
func (m *Middleware) loop() {
	defer close(m.stopped)
	if !m.syncMode {
		m.engine.StartExecutors(func(c Completion) { m.deliver(c); m.poke(wokeDelivery) })
	}
	napped := make(chan struct{})
	go m.napper(napped)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	m.lastRound = time.Now()
	for {
		var cause wakeCause
		select {
		case <-m.stop:
			m.shutdown()
			<-napped
			return
		case <-m.notify:
		case <-timer.C:
			cause = wokeTimer
		}
		cause |= wakeCause(m.pokedBy.Swap(0))
		if m.wakeups < len(m.wakes) {
			m.wakes[m.wakeups] = cause
		}
		m.wakeups++
		at := m.poll()
		if at.IsZero() {
			timer.Stop()
			m.napAt.Store(0)
			continue
		}
		now := time.Now()
		wait := at.Sub(now)
		if wait >= napBelow {
			m.napAt.Store(0)
			timer.Reset(wait)
			continue
		}
		// A short wait is the napper's alone: a timer armed beside it would
		// race it, and whichever came second would wake the loop for
		// nothing. A nap already in flight for an earlier deadline that has
		// not passed is kept — the loop asks again when it ends. Only when
		// the napper is asleep past the new deadline (one a round moved
		// nearer) does the timer serve it instead; the napper then finds
		// its own deadline dropped when it wakes.
		deadline := at.UnixNano()
		if cur := m.napAt.Load(); cur != 0 && cur > now.UnixNano() && cur <= deadline {
			continue
		}
		m.napAt.Store(deadline)
		if m.napping.Load() > deadline {
			timer.Reset(wait)
			continue
		}
		timer.Stop()
		select {
		case m.napWake <- struct{}{}:
		default:
		}
	}
}

// napper is the loop's one kernel sleeper, from the loop's start until Stop:
// woken through napWake, it sleeps until napAt and pokes the loop if that
// deadline is still napAt's when it wakes, then serves whatever deadline
// the loop set meanwhile. It publishes the deadline it sleeps until in
// napping before it checks napAt once more, so the loop, which sets napAt
// before it reads napping, either sees that deadline or has its own read
// here.
func (m *Middleware) napper(done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.napWake:
		}
		for at := m.napAt.Load(); at != 0; at = m.napAt.Load() {
			m.napping.Store(at)
			if m.napAt.Load() == at {
				if wait := time.Duration(at - time.Now().UnixNano()); wait > 0 {
					nap(wait)
				}
			}
			m.napping.Store(0)
			if m.napAt.CompareAndSwap(at, 0) {
				m.poke(wokeNap)
			}
		}
	}
}

// napBelow is the wait under which the loop sleeps in the kernel instead of
// on its timer. Once the process is otherwise idle — where a light load
// waits — the runtime's netpoller blocks in whole milliseconds and serves a
// shorter timer about one late; from half of that up, a timer alone is at
// most three times late, as it always was.
const napBelow = 500 * time.Microsecond

// poll asks the trigger, once per wake-up, and runs a round if it or the
// progress rule says so; otherwise it returns when idle time alone changes
// the answer (zero: only an arrival or a delivery can). After a round the
// loop pokes itself, so Stop takes its turn under load.
func (m *Middleware) poll() time.Time {
	queued, pending := m.engine.QueueLen(), m.engine.PendingLen()
	if queued == 0 && pending == 0 {
		return time.Time{}
	}
	idle := time.Since(m.lastRound)
	why, wait := m.trigger.Fire(Load{Queued: queued, Answered: int(m.answered.Load()),
		Idle: idle, RoundCost: time.Duration(m.roundEWMA.Load())})
	if why == "" && (pending > 0 || wait == 0) && (wait == 0 || progressBound-idle < wait) {
		// The progress rule's deadline is the earlier one.
		if wait = progressBound - idle; wait <= 0 {
			why = metrics.FiredProgress
		}
	}
	if why == "" {
		return m.lastRound.Add(idle + wait)
	}
	m.runRound(why)
	m.poke(wokeRound)
	return time.Time{}
}

// runRound fires one engine round and routes what it decided.
func (m *Middleware) runRound(why string) {
	e := m.engine
	m.answered.Store(0)
	var res RoundResult
	var err error
	if m.syncMode {
		res, err = e.Round()
	} else {
		res, err = e.RoundDeferred()
	}
	m.lastRound = time.Now()
	if err != nil {
		// A protocol failure is fatal for the round; fail everything
		// pending so clients do not hang.
		m.failAll(err)
		return
	}
	res.Stats.Fired = why
	m.collector.AddRound(res.Stats)
	m.observeRound(res.Stats)
	// Empty on a one-shard engine, whose round record is res.Stats itself.
	for _, ps := range e.ShardStats() {
		m.collector.AddPartitionRound(ps)
	}
	if ls, ok := e.LoadReport(4); ok {
		m.collector.RecordLoad(ls)
	}
	if m.syncMode && (len(res.Executed) > 0 || len(res.Victims) > 0) {
		// Serialized loop: results exist already; route them before the
		// victim notifications, as the synchronous loop always has. Only
		// rounds with server work observe an exec leg — deferred rounds
		// likewise complete empty rounds inline without a completion, so
		// the two modes' Exec histograms stay comparable.
		m.deliver(Completion{Round: e.Rounds(), Executed: res.Executed, Exec: res.Stats.Exec})
	}
	m.notifyVictims(res.Victims, res.Stats.Cause)
}

// shutdown ends the loop: drain what makes progress, let the executors
// answer their in-flight work, then fail the rest.
func (m *Middleware) shutdown() {
	e := m.engine
	for e.QueueLen() > 0 || e.PendingLen() > 0 {
		before := e.QueueLen() + e.PendingLen()
		m.runRound(metrics.FiredDrain)
		if e.QueueLen()+e.PendingLen() >= before {
			break
		}
	}
	e.StopExecutors() // every in-flight batch is answered before closed
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.failAll(ErrStopped)
}
