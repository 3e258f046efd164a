package scheduler

import (
	"sync"
	"time"
)

// Deferred execution overlaps a round's server execution with the next
// round's qualification. Engine.schedule settles every input the next
// qualification needs — pending membership, history membership, the
// protocols' change log — before any server call, so the only work left in a
// round's tail is I/O against the (possibly remote) storage server.
// RoundDeferred hands that tail to one executor goroutine per shard and
// returns as soon as the round is scheduled; each plan's results arrive
// later on Completions. Remote-server latency (internal/netproto front-ends
// talking to a slow internal/storage) then costs pipeline fill instead of
// stalling every round: steady-state round throughput is limited by
// max(qualify, execute) rather than their sum.
//
// Ordering guarantees: a shard's plans execute FIFO in round order, and an
// abort's write compensations are part of the round that aborted it, so they
// run strictly after the plans that executed those writes — with one shard,
// exactly the synchronous mode's server-visible order.

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
// blocks handing over the plan (draining completions meanwhile) — natural
// backpressure that degrades toward the synchronous mode's behavior instead
// of growing an unbounded backlog of promised executions.
const pipelineDepth = 32

// StartExecutors launches one executor goroutine per shard for deferred
// (pipelined) execution. Completions from all shards merge onto one channel,
// each stamped with its partition. Idempotent.
func (e *Engine) StartExecutors() {
	e.execOnce.Do(func() {
		e.done = make(chan Completion, len(e.shards)*pipelineDepth)
		var wg sync.WaitGroup
		for _, sh := range e.shards {
			sh.jobs = make(chan execPlan, pipelineDepth)
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				e.runExecutor(sh)
			}(sh)
		}
		go func() {
			wg.Wait()
			close(e.done)
		}()
	})
}

// Completions delivers each shard plan's executed batch. Per shard the order
// is FIFO round order; across shards the interleaving is unspecified (as is
// the server-visible cross-shard order — same-object requests never split
// across shards). The channel closes after StopExecutors once all in-flight
// work is delivered.
func (e *Engine) Completions() <-chan Completion { return e.done }

// StopExecutors lets the executors finish in-flight work and exit; no
// RoundDeferred calls may follow. The caller must then drain Completions
// (the channel closes after the last batch) — the executors block on
// undelivered completions, not drop them.
func (e *Engine) StopExecutors() {
	if e.done == nil {
		return
	}
	e.stopOnce.Do(func() {
		for _, sh := range e.shards {
			close(sh.jobs)
		}
	})
}

// runExecutor performs one shard's plans in round order and reports
// completions.
func (e *Engine) runExecutor(sh *shard) {
	for plan := range sh.jobs {
		if err := e.Err(); err != nil {
			// Drain without executing after a fatal divergence, but still
			// report each plan so no waiter is left hanging.
			e.inflight.Add(-1)
			e.done <- Completion{Round: plan.round, Err: err, Partition: sh.idx}
			continue
		}
		start := time.Now()
		executed, err := sh.execute(plan)
		if err != nil {
			e.setFatal(err)
		}
		// Decrement before sending: the plan's effects are fully applied, so
		// a quiescing migration may proceed even while the completion is
		// still in flight to the caller.
		e.inflight.Add(-1)
		e.done <- Completion{Round: plan.round, Executed: executed, Exec: time.Since(start), Err: err, Partition: sh.idx}
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
// the round's victims and stats; Executed stays empty — results arrive on
// Completions. Rounds that schedule no server work complete inline and
// produce no completion. While waiting for executor capacity, completions
// are delivered through deliver (which therefore must not call back into the
// engine). StartExecutors must have been called.
func (e *Engine) RoundDeferred(deliver func(Completion)) (RoundResult, error) {
	if err := e.Err(); err != nil {
		// An executor diverged (failed compensation): the stores no longer
		// describe the server. Refuse further rounds with the sticky error
		// instead of promising executions that will never complete.
		return RoundResult{}, err
	}
	res, err := e.schedule(deliver)
	if err != nil {
		return res, err
	}
	for _, sh := range e.shards {
		if len(sh.plan.steps) == 0 {
			continue
		}
		// Count before sending so the migration quiesce never undercounts:
		// the executor decrements only after applying the plan.
		e.inflight.Add(1)
		for sent := false; !sent; {
			select {
			case sh.jobs <- sh.plan:
				sent = true
			case c := <-e.done:
				deliver(c)
			}
		}
	}
	return res, nil
}
