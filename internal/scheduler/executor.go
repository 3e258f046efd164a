package scheduler

import "time"

// Deferred execution overlaps a round's server execution with the next
// round's qualification. Engine.schedule settles every input the next
// qualification needs — pending membership, history membership, the
// protocols' change log — before any server call, so the only work left in a
// round's tail is I/O against the (possibly remote) storage server.
// RoundDeferred hands that tail to one executor goroutine per shard and
// returns as soon as the round is scheduled; each executor hands every batch
// it executed to the deliver callback given to StartExecutors, straight from
// its own goroutine, so a reply never waits for the round loop. Remote-server
// latency (internal/netproto front-ends talking to a slow internal/storage)
// then costs pipeline fill instead of stalling every round: steady-state
// round throughput is limited by max(qualify, execute) rather than their sum.
//
// Ordering guarantees: a shard's plans execute and are delivered FIFO in
// round order, and an abort's write compensations are part of the round that
// aborted it, so they run strictly after the plans that executed those
// writes — with one shard, exactly the synchronous mode's server-visible
// order. Across shards the interleaving is unspecified (as is the
// server-visible cross-shard order — same-object requests never split across
// shards).

// Completion delivers the deferred tail of one round: the executed requests
// with their server results, in execution order.
type Completion struct {
	Round    int
	Executed []Executed
	// Exec is the server execution span of the batch (the overlapped leg).
	Exec time.Duration
	// Err is a fatal executor error (a failed write compensation): the
	// server and the stores have diverged and the executors stop executing.
	Err error
	// Partition is the shard whose executor produced this completion.
	Partition int
}

// pipelineDepth bounds how many scheduled-but-unexecuted plans may be in
// flight per shard. When an executor falls this far behind, RoundDeferred
// blocks handing over the plan — natural backpressure that degrades toward
// the synchronous mode's behavior instead of growing an unbounded backlog of
// promised executions.
const pipelineDepth = 32

// StartExecutors launches one executor goroutine per shard for deferred
// (pipelined) execution. Each executor calls deliver with every batch it
// executed, on its own goroutine: with more than one shard deliver runs
// concurrently with itself and with the round loop, and it must not call back
// into the engine. A Completion's Executed slice is the executor's own
// buffer, reused for its next batch: deliver must copy what it keeps.
// Idempotent.
func (e *Engine) StartExecutors(deliver func(Completion)) {
	e.execOnce.Do(func() {
		e.quiet = make(chan struct{}, 1)
		for _, sh := range e.shards {
			sh.jobs = make(chan execPlan, pipelineDepth)
			e.execWG.Add(1)
			go func(sh *shard) {
				defer e.execWG.Done()
				e.runExecutor(sh, deliver)
			}(sh)
		}
	})
}

// StopExecutors lets the executors finish and deliver their in-flight work,
// and returns once they have exited; no RoundDeferred calls may follow.
func (e *Engine) StopExecutors() {
	if e.quiet == nil {
		return
	}
	e.stopOnce.Do(func() {
		for _, sh := range e.shards {
			close(sh.jobs)
		}
	})
	e.execWG.Wait()
}

// runExecutor performs one shard's plans in round order and delivers each
// batch.
func (e *Engine) runExecutor(sh *shard, deliver func(Completion)) {
	var executed []Executed // reused: deliver does not keep a batch
	for plan := range sh.jobs {
		c := Completion{Round: plan.round, Partition: sh.idx}
		if c.Err = e.Err(); c.Err == nil {
			start := time.Now()
			c.Executed, c.Err = sh.execute(plan, executed[:0])
			executed = c.Executed
			c.Exec = time.Since(start)
			if c.Err != nil {
				e.setFatal(c.Err)
			}
		}
		// After a fatal divergence the plan is reported, not executed, so no
		// waiter is left hanging. Either way its effects are settled: a
		// quiescing migration may proceed while the batch is delivered.
		if e.inflight.Add(-1) == 0 {
			select {
			case e.quiet <- struct{}{}:
			default:
			}
		}
		sh.recycle(plan)
		deliver(c)
	}
}

// Err returns the sticky fatal executor error, if any.
func (e *Engine) Err() error {
	e.fatalMu.Lock()
	defer e.fatalMu.Unlock()
	return e.fatal
}

func (e *Engine) setFatal(err error) {
	e.fatalMu.Lock()
	if e.fatal == nil {
		e.fatal = err
	}
	e.fatalMu.Unlock()
}

// RoundDeferred schedules one round (admit, qualify, resolve, commit) and
// hands each shard's plan to its executor. The returned RoundResult carries
// the round's victims and stats; Executed stays empty — the executors deliver
// the results. Rounds that schedule no server work complete inline and
// produce no completion. StartExecutors must have been called.
func (e *Engine) RoundDeferred() (RoundResult, error) {
	if err := e.Err(); err != nil {
		// An executor diverged (failed compensation): the stores no longer
		// describe the server. Refuse further rounds with the sticky error
		// instead of promising executions that will never complete.
		return RoundResult{}, err
	}
	res, err := e.schedule()
	if err != nil {
		return res, err
	}
	for _, sh := range e.shards {
		if len(sh.plan.steps) == 0 {
			sh.recycle(sh.plan)
			continue
		}
		// Count before sending so the migration quiesce never undercounts:
		// the executor decrements only after applying the plan.
		e.inflight.Add(1)
		sh.jobs <- sh.plan
	}
	return res, nil
}
