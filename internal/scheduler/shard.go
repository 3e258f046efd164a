package scheduler

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/store"
)

// shard is one partition of the round loop: its own protocol instance (with
// its warm incremental state), pending and history stores, admission queue
// and executor channel, plus the stage functions of a round — admitOps,
// qualify, commitPlan, execute. Engine.schedule sequences the stages over
// the shards; with one shard they run back to back on one goroutine.
type shard struct {
	eng     *Engine
	idx     int
	proto   protocol.Protocol
	hist    *store.History
	pending *store.Pending

	// replicas marks pending keys that are replica copies of cross-partition
	// terminations: they qualify and enter history here so this shard's
	// locks release, but the home shard owns their execution. nil until the
	// first replica copy arrives (never, with one shard).
	replicas map[request.Key]bool

	queue shardQueue
	// jobs feeds this shard's executor goroutine (deferred execution).
	jobs chan execPlan
	// spare holds executed plans whose buffers the next rounds reuse: the
	// round loop takes one when it lays out a plan, and whoever executed a
	// plan — the executor goroutine, or Round inline — returns it.
	spare chan execPlan

	// Per-round state, reset by Engine.drain and handed from stage to stage
	// by Engine.schedule. round is the engine's round number, so waiting-age
	// clocks and GC cadence are comparable across shards.
	round         int
	ops           []shardOp
	qual          []request.Request
	lastQualified []request.Request
	aborts        []abortOp
	plan          execPlan
	stats         metrics.RoundStats
	admitted      int // replica copies pending when the shard qualified
}

// History exposes the shard's history store (tests, experiments).
func (sh *shard) History() *store.History { return sh.hist }

// shardOp is one admission-queue entry: a request to admit, or a replica
// copy of a cross-partition termination.
type shardOp struct {
	req request.Request
	// replica marks a cross-partition termination copy whose home is another
	// shard: it qualifies and enters history here (releasing this shard's
	// locks) but does not execute on the server.
	replica bool
}

// shardQueue is one shard's concurrent admission queue. Submissions push
// under the shard mutex; the round loop drains by buffer swap, so a burst
// costs one lock acquisition per side.
type shardQueue struct {
	mu    sync.Mutex
	ops   []shardOp
	spare []shardOp
}

// drain swaps the queue's buffers and returns the queued ops.
func (q *shardQueue) drain() []shardOp {
	q.mu.Lock()
	ops := q.ops
	q.ops = q.spare[:0]
	q.spare = ops
	q.mu.Unlock()
	return ops
}

// execStep is one unit of deferred server work: optional write compensations
// (an abort's rollback) followed by one scheduled request. Victim abort
// steps carry victim == true — no client is waiting on them.
type execStep struct {
	req    request.Request
	undo   []int64 // objects whose executed writes are compensated first
	victim bool
	// noServer skips the server call (but not the compensations): an abort
	// record replicated to a non-home shard compensates that shard's
	// executed writes, while the home shard performs the abort itself.
	noServer bool
	// expectWrites arms the durable journal's commit gate for a commit
	// step: how many writes the transaction has in (global) history, i.e.
	// how many write records must be journaled before its commit record
	// may be. Zero when volatile, for non-commit steps, and for writeless
	// commits.
	expectWrites int
}

// execPlan is the server work of one round, in execution order. The plan is
// self-contained (it copies nothing from the stores), so the execute stage
// can run while later rounds mutate scheduler state.
type execPlan struct {
	round int
	steps []execStep
	// undo backs every step's undo list, so a round's rollbacks share one
	// buffer that is recycled with the plan.
	undo []int64
}

// takePlan returns an empty plan for this round, on the buffers of an
// executed one when one has been returned.
func (sh *shard) takePlan() execPlan {
	select {
	case p := <-sh.spare:
		return execPlan{round: sh.round, steps: p.steps[:0], undo: p.undo[:0]}
	default:
		return execPlan{round: sh.round}
	}
}

// recycle returns an executed plan's buffers for a later round. Its steps
// are cleared, so a spare plan keeps no request alive; when spare is full
// the buffers are left to the collector.
func (sh *shard) recycle(p execPlan) {
	if cap(p.steps) == 0 && cap(p.undo) == 0 {
		return
	}
	clear(p.steps)
	select {
	case sh.spare <- p:
	default:
	}
}

// abortOp is one victim abort as applied to one shard: the abort record to
// append (the sequencer preassigns its ID) and whether this shard performs
// the server-side abort call. Only the victim's home shard calls the server
// while every other touched shard compensates the writes it executed
// locally.
type abortOp struct {
	rec        request.Request
	execServer bool
}

// admitOps applies the shard's drained admission batch to its pending store
// (stage 1).
func (sh *shard) admitOps() {
	for _, op := range sh.ops {
		if op.replica {
			if sh.replicas == nil {
				sh.replicas = make(map[request.Key]bool)
			}
			sh.replicas[op.req.Key()] = true
		}
		sh.pending.Admit(op.req)
	}
}

// admitAndQualify is the shard's share of stages 1 and 2.
func (sh *shard) admitAndQualify() error {
	sh.admitOps()
	sh.stats.Pending = sh.pending.Len()
	sh.admitted = len(sh.replicas)
	return sh.qualify()
}

// qualify evaluates the protocol (stage 2) into sh.qual, feeding incremental
// protocols the stores' accumulated change log.
func (sh *shard) qualify() error {
	var qualified []request.Request
	var err error
	evalStart := time.Now()
	if ip, ok := sh.proto.(protocol.IncrementalProtocol); ok {
		var d protocol.Deltas
		sh.pending.Deltas(&d)
		sh.hist.Deltas(&d)
		qualified, err = ip.QualifyIncremental(sh.pending.Live(), sh.hist.Live(), d)
	} else {
		qualified, err = sh.proto.Qualify(sh.pending.Live(), sh.hist.Live())
	}
	if err != nil {
		return fmt.Errorf("scheduler: round %d: %w", sh.round, err)
	}
	// The protocol consumed the accumulated change set; start the next one.
	sh.pending.ResetDeltas()
	sh.hist.ResetDeltas()
	sh.qual = qualified
	sh.stats.Duration = time.Since(evalStart)
	if sr, ok := sh.proto.(protocol.StrategyReporter); ok {
		sh.stats.Strategy = sr.LastStrategy()
	}
	return nil
}

// rollback returns the objects of ta's locally executed writes, to be
// compensated ahead of its abort record, carved from the plan's undo
// buffer. A transaction that already terminated here has nothing left to
// undo: its rows only await GC.
func (sh *shard) rollback(ta int64) []int64 {
	if sh.hist.Finished(ta) {
		return nil
	}
	n := len(sh.plan.undo)
	sh.plan.undo = sh.hist.AppendWritesOf(sh.plan.undo, ta)
	return sh.plan.undo[n:len(sh.plan.undo):len(sh.plan.undo)]
}

// commitRound is the shard's share of stage 4: it turns the round's
// decisions (sh.aborts, sh.qual) into store state and sh.plan.
func (sh *shard) commitRound() error {
	sh.commitPlan()
	sh.lastQualified = sh.qual
	sh.stats.Qualified = len(sh.qual)
	sh.stats.Victims = len(sh.aborts)
	sh.stats.History = sh.hist.Len()
	return nil
}

// commitPlan is the store side of commit: abort records and pending drops,
// qualified history membership and pending removal, garbage collection.
// Every abort record — a victim's or a client's, on its home shard or a
// replica — first compensates the writes the transaction executed here.
//
// eng.commitWrites, set only by the multi-shard sequencer on a durable
// server, maps a committing transaction to its global journaled-write
// expectation (writes summed across all shards' histories); nil means this
// shard's own history is the whole truth (one shard), and the count is taken
// from it before the termination row lands.
func (sh *shard) commitPlan() {
	sh.plan = sh.takePlan()
	sh.hist.SetRound(sh.round)
	cfg := &sh.eng.cfg
	durable := cfg.Server.Durable()
	for _, ab := range sh.aborts {
		ta := ab.rec.TA
		// Roll the victim back: compensate every write it had executed. The
		// per-TA history index makes this O(|TA's writes|); the undo runs on
		// the server strictly after those writes (the plan preserves
		// execution order, and the executors are FIFO per shard).
		sh.plan.steps = append(sh.plan.steps, execStep{req: ab.rec, undo: sh.rollback(ta), victim: true, noServer: !ab.execServer})
		if ab.execServer {
			sh.hist.Append(ab.rec)
		} else {
			sh.hist.AppendLiveOnly(ab.rec)
		}
		// Drop the victim's pending requests; its client is notified via
		// the Victims list.
		sh.pending.RemoveTA(ta)
		// A victim's pending cross-partition termination copies die with
		// its pending requests; drop their replica marks too.
		for k := range sh.replicas {
			if k.TA == ta {
				delete(sh.replicas, k)
			}
		}
	}
	for i, r := range sh.qual {
		k := r.Key()
		// The protocol returns the rows its relation holds; the pending copy
		// carries the rest (Class always, Priority through a five-column
		// relation) and the row, and from here on it is the request: the
		// plan step, the history row and the round's qualified list.
		if orig, ok := sh.pending.Take(k); ok {
			r = orig
			sh.qual[i] = r
		}
		step := execStep{req: r}
		if r.Op == request.Abort {
			step.undo = sh.rollback(r.TA)
		}
		if sh.replicas[k] {
			// Replica copy of a cross-partition termination: enter history
			// (releasing this shard's locks) without a server call — the home
			// shard executes it and answers the client.
			delete(sh.replicas, k)
			if len(step.undo) > 0 {
				step.noServer = true
				sh.plan.steps = append(sh.plan.steps, step)
			}
			sh.hist.AppendLiveOnly(r)
			continue
		}
		if durable && r.Op == request.Commit {
			// Arm the commit gate before the termination row lands (and
			// before GC can collect the write rows the count is taken from).
			if cw := sh.eng.commitWrites; cw != nil {
				step.expectWrites = cw[r.TA]
			} else {
				step.expectWrites = sh.hist.WriteCountOf(r.TA)
			}
		}
		sh.plan.steps = append(sh.plan.steps, step)
		sh.hist.Append(r)
	}
	sh.hist.GC()
	// History GC is the checkpoint trigger of the durable mode: the stores
	// just shed finished transactions, so fold the journal into the page
	// file too (rate-limited by journal growth inside).
	cfg.Server.MaybeCheckpoint()
}

// execute (stage 5) performs the plan's server work in order and appends
// what it executed to out. Per-request server errors are reported in the
// Executed entries; a failing write compensation is fatal (the stores and
// the server have diverged).
func (sh *shard) execute(plan execPlan, out []Executed) ([]Executed, error) {
	srv := sh.eng.cfg.Server
	out = slices.Grow(out, len(plan.steps))
	for _, step := range plan.steps {
		for _, obj := range step.undo {
			if err := srv.UndoWriteFor(step.req.TA, obj); err != nil {
				return out, err
			}
		}
		if step.noServer {
			continue
		}
		if step.expectWrites > 0 {
			srv.ExpectWrites(step.req.TA, step.expectWrites)
		}
		v, err := srv.ExecScheduled(step.req)
		if step.victim {
			if err != nil {
				return out, err
			}
			continue
		}
		out = append(out, Executed{Request: step.req, Value: v, Err: err})
	}
	// Commit-batch boundary: the durable journal flushes (and, per the
	// group-commit policy, fsyncs) before the batch's results can reach any
	// client. No-op on a volatile server.
	if err := srv.EndBatch(); err != nil {
		return out, err
	}
	return out, nil
}

// victimIntra marks scheduler-injected abort requests; it is far above any
// real intra-transaction number.
const victimIntra = 1 << 30
