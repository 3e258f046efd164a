// Package scheduler implements the declarative middleware scheduler of the
// paper's Figure 1: clients connect to the scheduler instead of the server;
// requests are buffered in an incoming queue; a configurable trigger fires a
// scheduling round that moves the queue into the pending-request store, runs
// the declarative protocol query against pending and history, executes the
// qualified requests on the server as a batch, records them in the history
// database (with garbage collection) and returns results to the clients.
// The paper's non-scheduling baseline (Section 3.3) is the protocol that
// qualifies every pending request, protocol.FCFS.
//
// A round is five explicit stages — admit, qualify, resolve, commit,
// execute — over the indexed stores of internal/store. Everything the next
// round's qualification depends on (pending membership, history membership,
// the change log the incremental protocols consume) is settled by the commit
// stage; the execute stage only performs server I/O.
//
// There is one round loop. An Engine holds N shards (shard.go) — N = 1
// unless the caller partitions — each with its own protocol instance,
// stores and stage functions, and Engine.schedule is the one function that
// sequences the stages over them. Everything that exists only because there
// is more than one shard (routing by object, cross-partition termination
// agreement, replica copies, the merged relations of global deadlock
// detection, shard goroutines, load accounting, per-shard metric records;
// see partition.go) is skipped when the engine has one shard: the engine
// looks at len(shards), no option selects it. Execution has two modes over
// the same schedule: Round runs the shards' plans inline in shard order (the
// synchronous mode — the oracle of the property tests — which at one shard
// is the five stages back to back on one goroutine), RoundDeferred hands
// them to per-shard executor goroutines so round N's execute overlaps round
// N+1's qualification (executor.go). Middleware is the concurrent front end
// over either mode.
package scheduler

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/store"
)

// Config parameterises an Engine (the settings shared by all its shards).
type Config struct {
	Protocol protocol.Protocol
	Server   *storage.Server
	// KeepLog retains the full execution log for offline serializability
	// checking.
	KeepLog bool
	// StarveAfter is the waiting-age bound: a transaction whose pending
	// requests have gone this many rounds without any of them qualifying is
	// resolved — first by precise deadlock detection over the waits-for
	// graph, then, if no cycle explains the wait, by aborting the oldest
	// blocked transaction. This closes the starvation hole of the pure
	// nothing-qualified victim policy, under which a blocked transaction
	// could wait forever while other clients kept making progress. 0
	// selects DefaultStarveAfter; negative disables the bound.
	StarveAfter int

	// The remaining fields bound the Middleware front-end (they are ignored
	// by a bare Engine, whose caller controls admission directly).

	// MaxQueued caps how many submissions may be admitted but not yet
	// answered. At the cap, new transactions are rejected with a BusyError
	// (carrying a retry-after hint) instead of growing the queue without
	// bound; requests of already-admitted transactions are always let in, so
	// an admitted transaction can always run to termination. 0 = unlimited.
	MaxQueued int
	// MaxInflightPerConn caps the unanswered requests of one network
	// connection on the multiplexed wire protocol (netproto reads it via
	// Middleware.Limits). 0 selects the netproto default.
	MaxInflightPerConn int
	// ShedLatencyBudget enables server-side load shedding: when the
	// qualify-latency EWMA exceeds the budget, new lowest-priority
	// transactions (Priority <= 0) are rejected with BusyError; beyond twice
	// the budget every new transaction is shed. Admitted work is never
	// dropped — shedding happens strictly before admission. 0 disables.
	ShedLatencyBudget time.Duration
	// ResubmitWindow enables the idempotent-resubmit cache: results of
	// executed requests are remembered until their transaction terminates,
	// and terminal outcomes of the last ResubmitWindow transactions are kept
	// so a client that reconnects and resubmits (its response was lost on
	// the wire) gets the recorded answer instead of executing twice.
	// 0 disables the cache (the default for embedded/benchmark use; the
	// network front end turns it on). The window bounds cached outcomes
	// only: a terminated transaction's requests are refused whatever it is
	// (Middleware.Submit), beyond it with ErrTxnFinished.
	ResubmitWindow int
}

// DefaultStarveAfter is the default waiting-age bound in rounds. Rounds are
// sub-millisecond to a few milliseconds, so the default tolerates long lock
// queues while bounding a wedged client's wait to well under a second.
const DefaultStarveAfter = 100

// Executed describes one executed request with its server result.
type Executed struct {
	Request request.Request
	Value   int64
	Err     error
}

// RoundResult reports what one scheduling round did.
type RoundResult struct {
	Executed []Executed
	// Victims lists transactions aborted to break deadlocks or starvation
	// this round.
	Victims []int64
	Stats   metrics.RoundStats
}

// PartitionedConfig parameterises an Engine with more than the defaults of
// NewEngine: a shard count, a per-shard protocol factory and the rebalancer.
type PartitionedConfig struct {
	// Base carries the shared engine settings (server, GC, log,
	// starvation bound). Base.Protocol is ignored —
	// each shard owns the instance Factory builds for it.
	Base Config
	// Partitions is the round-loop count (1..MaxPartitions).
	Partitions int
	// Factory builds one protocol instance per shard. Required; the
	// protocol must claim per-object decomposability
	// (protocol.ObjectDecomposable) when Partitions > 1 — cross-object
	// protocols (SLA priority, wound-wait) cannot shard by object.
	Factory func() protocol.Protocol
	// Rebalance configures the slot directory and the online rebalancer
	// (rebalance.go). The zero value routes by a static slot table
	// (DefaultSlots slots, no automatic moves) — forced moves via
	// ForceRebalance still apply.
	Rebalance RebalanceConfig
}

// MaxPartitions bounds the partition count: shard sets are one bitmask word.
const MaxPartitions = 64

// Engine is the staged round loop: N shards, the slot directory that routes
// objects to them, and the sequencer that runs the stages of a round over
// them in lockstep. Enqueue is safe for concurrent use (per-shard admission
// queues); Round, RoundDeferred and the inspection methods must stay on one
// goroutine. Middleware adds the concurrent client front-end.
type Engine struct {
	cfg      Config
	part     *store.Directory
	shards   []*shard
	affinity *store.Affinity

	// reb holds the rebalancer's load accounting and policy (nil when the
	// automatic rebalancer is disabled); forced carries externally queued
	// slot moves, applied at the start of the next round.
	reb      *rebalancer
	forcedMu sync.Mutex
	forced   []store.SlotMove
	// inflight counts executor plans submitted but not yet executed; slot
	// migration quiesces on it before moving history rows between shards.
	inflight atomic.Int64

	nextID atomic.Int64
	queued atomic.Int64

	// cross tracks in-flight cross-partition terminations — how many shard
	// copies were admitted; one commits only when that many copies qualify
	// in the same super-round. Enqueue adds under crossMu, the sequencer
	// settles and deletes.
	crossMu sync.Mutex
	cross   map[request.Key]int

	rounds      int
	starveAfter int

	// Per-round scratch, reused across rounds. commitMask is the set of
	// shards with a stage-4 share this round: the active ones plus those a
	// victim's abort or a late termination copy reaches.
	active       []int
	commitMask   uint64
	commitShards []int
	shardStats   []metrics.RoundStats
	progressed   map[int64]bool
	present      map[request.Key]uint64
	commitWrites map[int64]int
	// detector is resolve's waits-for search, its buffers reused across
	// the rounds that run it.
	detector protocol.Detector
	// aborted is the previous round's victims (dropAborted).
	aborted []int64

	// Deferred execution (per-shard executors), started on demand. quiet
	// carries the wake-up of a quiescing migration (executor.go).
	execOnce sync.Once
	execWG   sync.WaitGroup
	quiet    chan struct{}
	stopOnce sync.Once

	fatalMu sync.Mutex
	fatal   error
}

// PartitionedEngine is the Engine: a partitioned scheduler is an engine
// built with more than one shard.
type PartitionedEngine = Engine

// NewEngine validates the config and creates a one-shard engine around
// cfg.Protocol.
func NewEngine(cfg Config) (*Engine, error) {
	pc := PartitionedConfig{Base: cfg, Partitions: 1}
	if cfg.Protocol != nil {
		pc.Factory = func() protocol.Protocol { return cfg.Protocol }
	}
	return NewPartitionedEngine(pc)
}

// NewPartitionedEngine validates the config and builds the engine and its
// shards.
func NewPartitionedEngine(cfg PartitionedConfig) (*Engine, error) {
	if cfg.Base.Server == nil {
		return nil, fmt.Errorf("scheduler: config needs a server")
	}
	if cfg.Partitions < 1 || cfg.Partitions > MaxPartitions {
		return nil, fmt.Errorf("scheduler: partitions must be in [1,%d], got %d", MaxPartitions, cfg.Partitions)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("scheduler: config needs a protocol")
	}
	starve := cfg.Base.StarveAfter
	if starve == 0 {
		starve = DefaultStarveAfter
	}
	e := &Engine{
		cfg:         cfg.Base,
		part:        store.NewDirectory(cfg.Rebalance.Slots, cfg.Partitions),
		affinity:    store.NewAffinity(),
		cross:       make(map[request.Key]int),
		starveAfter: starve,
	}
	for i := 0; i < cfg.Partitions; i++ {
		// spare holds every plan that can be out at once: a full pipeline,
		// the one executing and the one being laid out.
		sh := &shard{eng: e, idx: i, hist: store.NewHistory(cfg.Base.KeepLog), pending: store.NewPending(),
			spare: make(chan execPlan, pipelineDepth+2)}
		if cfg.Factory != nil {
			sh.proto = cfg.Factory()
			if cfg.Partitions > 1 && !protocol.IsObjectDecomposable(sh.proto) {
				return nil, fmt.Errorf("scheduler: protocol %s does not factor by object and cannot run partitioned (partitions=%d)",
					sh.proto.Name(), cfg.Partitions)
			}
		}
		e.shards = append(e.shards, sh)
	}
	if cfg.Rebalance.Trigger > 0 && cfg.Partitions > 1 {
		e.reb = newRebalancer(cfg.Rebalance, e.part.Slots(), cfg.Partitions)
	}
	return e, nil
}

// Partitions returns the shard count.
func (e *Engine) Partitions() int { return len(e.shards) }

// Directory exposes the slot directory (tests, experiments, metrics).
// Routing reads are safe for concurrent use; Apply is the round loop's.
func (e *Engine) Directory() *store.Directory { return e.part }

// Shard exposes one shard for inspection (tests, experiments).
func (e *Engine) Shard(i int) *shard { return e.shards[i] }

// History exposes the history store of shard 0 — the whole history of a
// one-shard engine (experiments and tests inspect it; MergedLog is the
// execution log at any shard count).
func (e *Engine) History() *store.History { return e.shards[0].hist }

// Rounds returns how many rounds have run.
func (e *Engine) Rounds() int { return e.rounds }

// QueueLen returns the total queued admission operations across shards
// (the trigger's fill-level input). Safe for concurrent use.
func (e *Engine) QueueLen() int { return int(e.queued.Load()) }

// PendingLen returns the pending-store size summed over the shards (requests
// admitted but not yet qualified). Round-loop goroutine only.
func (e *Engine) PendingLen() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.pending.Len()
	}
	return n
}

// RTE returns the paper's ready-to-execute table for the last round: the
// qualified requests as a relation over the Table 2 schema (empty before the
// first round). Its tuples are the requests' shared rows: read-only.
func (e *Engine) RTE() *relation.Relation {
	var qualified []request.Request
	for _, sh := range e.shards {
		qualified = append(qualified, sh.lastQualified...)
	}
	return request.ToRelation(qualified)
}

// ShardStats returns the per-shard round records of the last round of a
// multi-shard engine (shards that were idle have no record; a one-shard
// engine's round record is RoundResult.Stats itself). The slice is reused
// next round.
func (e *Engine) ShardStats() []metrics.RoundStats { return e.shardStats }

// Enqueue buffers requests in the admission queues, assigning globally
// consecutive IDs (the paper's consecutive request number, which is also the
// arrival stamp). Safe for concurrent use by many client workers. With more
// than one shard each request is routed to the shard owning its object
// (partition.go). The requests' relational rows are built on the round
// loop, when a shard's stores first hand them to its protocol, not here on
// the client's goroutine.
//
// A request's (TA, IntraTA) key must not be live — queued or pending — when
// it is enqueued: the stores and the shard routing keep one copy per key
// (Middleware guarantees this; a direct caller must too).
func (e *Engine) Enqueue(rs ...request.Request) {
	if len(e.shards) > 1 {
		for _, r := range rs {
			e.route(r.WithID(e.nextID.Add(1)))
		}
		return
	}
	q := &e.shards[0].queue
	q.mu.Lock()
	for _, r := range rs {
		q.ops = append(q.ops, shardOp{req: r.WithID(e.nextID.Add(1))})
	}
	q.mu.Unlock()
	e.queued.Add(int64(len(rs)))
}

// Round runs one complete scheduling round synchronously: schedule (admit,
// qualify, resolve, commit) and execute each shard's plan inline, in shard
// order — the deterministic oracle-comparable mode; RoundDeferred runs the
// plans on the per-shard executors.
func (e *Engine) Round() (RoundResult, error) {
	res, err := e.schedule()
	if err != nil {
		return res, err
	}
	start := time.Now()
	for _, sh := range e.shards {
		if len(sh.plan.steps) > 0 {
			res.Executed, err = sh.execute(sh.plan, res.Executed)
		}
		sh.recycle(sh.plan)
		if err != nil {
			return res, err
		}
	}
	res.Stats.Exec = time.Since(start)
	res.Stats.Total += res.Stats.Exec
	return res, nil
}

// schedule runs the scheduling stages of one round — admit, qualify,
// resolve, commit — leaving each shard's execution plan in shard.plan. After
// schedule returns, the stores (and therefore the next round's qualification
// inputs) are fully updated; only server I/O remains. Admit, qualify and
// commit run per shard (in parallel across shards); everything between
// qualification and commit is the single-threaded sequencer, whose
// multi-shard steps (partition.go) return at once on a one-shard engine.
func (e *Engine) schedule() (RoundResult, error) {
	start := time.Now()
	e.rounds++
	var res RoundResult
	if err := e.drain(); err != nil {
		return res, err
	}
	dup, qualDur, cause := 0, time.Duration(0), ""
	if len(e.active) > 0 {
		// Stages 1+2 per shard — admit, qualify.
		qualStart := time.Now()
		if err := e.forShards(e.active, (*shard).admitAndQualify); err != nil {
			return res, err
		}
		qualDur = time.Since(qualStart)
		// Waiting-age bookkeeping runs on the protocol's full qualified set:
		// the bound covers protocol-blocked waits ("rounds without any
		// request qualifying", see Config.StarveAfter).
		e.observeProgress()
		e.stripUnagreed()
		// Stage 3 — resolve: decide which transactions abort this round.
		res.Victims, cause = e.resolve()
		e.abortVictims(res.Victims)
		e.aborted = append(e.aborted, res.Victims...)
		dup = e.settleTerminations(&res)
		// Stage 4 per shard — commit: apply every bookkeeping consequence to
		// the stores and lay out the server work. History membership is
		// settled here — before any server call — which is what lets the
		// next round qualify while this one is still executing.
		e.commitShards = store.ShardList(e.commitMask, e.commitShards)
		e.forShards(e.commitShards, (*shard).commitRound)
		e.foldLoads()
	}
	e.roundStats(&res, dup, qualDur)
	res.Stats.Cause = cause
	res.Stats.Total = time.Since(start)
	return res, nil
}

// drain opens the round: it empties the admission queues (one buffer swap
// per shard), lets the rebalancer move slots between rounds, and lists the
// shards that take part — those with admissions or pending work.
func (e *Engine) drain() error {
	drained := 0
	for _, sh := range e.shards {
		sh.round = e.rounds
		sh.ops = sh.queue.drain()
		sh.qual, sh.aborts, sh.plan = nil, sh.aborts[:0], execPlan{}
		sh.stats = metrics.RoundStats{Partition: sh.idx}
		sh.admitted = 0
		drained += len(sh.ops)
	}
	e.queued.Add(-int64(drained))
	e.dropAborted()
	if len(e.shards) > 1 {
		if err := e.rebalance(); err != nil {
			return err
		}
	}
	e.active, e.commitMask = e.active[:0], 0
	e.commitShards, e.shardStats = e.commitShards[:0], e.shardStats[:0]
	for s, sh := range e.shards {
		if len(sh.ops) > 0 || sh.pending.Len() > 0 {
			e.active = append(e.active, s)
			e.commitMask |= 1 << uint(s)
		}
	}
	return nil
}

// dropAborted removes every drained op of the previous round's victims, and
// the routing state its Enqueue re-created. The front end refuses a victim's
// requests once that round returns, so one its client sent meanwhile sits in
// a queue, already answered ErrTxnAborted.
func (e *Engine) dropAborted() {
	if len(e.aborted) == 0 {
		return
	}
	for _, sh := range e.shards {
		kept := sh.ops[:0]
		for _, op := range sh.ops {
			if slices.Contains(e.aborted, op.req.TA) {
				e.forget(op.req.TA)
				continue
			}
			kept = append(kept, op)
		}
		sh.ops = kept
	}
	e.aborted = e.aborted[:0]
}

// forShards runs f over the listed shards, in parallel when more than one
// core and shard are available, and returns the first error in shard order.
func (e *Engine) forShards(shards []int, f func(*shard) error) error {
	if len(shards) <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, s := range shards {
			if err := f(e.shards[s]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = f(sh)
		}(i, e.shards[s])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeProgress advances the pending stores' waiting-age clocks:
// transactions with a request in a protocol's (pre-cap) qualified set made
// progress — in any shard; the rest keep (or start) their blocked clock.
func (e *Engine) observeProgress() {
	if e.progressed == nil {
		e.progressed = make(map[int64]bool)
	} else {
		clear(e.progressed)
	}
	for _, s := range e.active {
		for _, r := range e.shards[s].qual {
			e.progressed[r.TA] = true
		}
	}
	for _, s := range e.active {
		e.shards[s].pending.ObserveRound(e.rounds, e.progressed)
	}
}

// resolve (stage 3) returns the transactions to abort this round and why (a
// metrics.Victim* cause, empty without victims): protocol-declared wounds
// first, then reactive deadlock detection when the round is fully blocked,
// then the waiting-age starvation bound — each over the union of the shards,
// so a partitioned engine decides what one shard would.
func (e *Engine) resolve() ([]int64, string) {
	// Protocol-declared aborts (wound-wait style prevention): the protocol's
	// own wound decision takes precedence over reactive deadlock detection.
	if victims := e.wounds(); len(victims) > 0 {
		return victims, metrics.VictimWound
	}
	qualified, pending := 0, 0
	for _, s := range e.active {
		qualified += len(e.shards[s].qual)
		pending += e.shards[s].pending.Len()
	}
	// Deadlock resolution: a non-empty pending store with an empty qualified
	// set means the protocol is blocked; abort the youngest member of each
	// waits-for cycle, exactly like the native scheduler's victim policy.
	if qualified == 0 && pending > 0 {
		if victims := e.detector.Victims(e.relations()); len(victims) > 0 {
			return victims, metrics.VictimCycle
		}
	}
	// Starvation bound: when the oldest waiter has gone StarveAfter rounds
	// without progress while the batch kept moving, the nothing-qualified
	// policy above would never fire. Prefer precise cycle victims (an
	// undetected deadlock among a subset of the batch); abort the oldest
	// waiter itself only when no cycle explains the wait.
	if e.starveAfter > 0 {
		if ta, since, ok := e.oldestBlocked(); ok && e.rounds-since >= e.starveAfter {
			if victims := e.detector.Victims(e.relations()); len(victims) > 0 {
				return victims, metrics.VictimStarvedCycle
			}
			return []int64{ta}, metrics.VictimStarvedOldest
		}
	}
	return nil, ""
}

// wounds unions the active shards' protocol-declared aborts, ascending.
func (e *Engine) wounds() []int64 {
	var out []int64
	for _, s := range e.active {
		if w, ok := e.shards[s].proto.(protocol.Wounder); ok {
			out = append(out, w.Wounded()...)
		}
	}
	if len(e.active) > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// oldestBlocked is the waiting-age minimum over the shards: smallest
// last-progress round, ties to the smallest TA. Shard clocks run on the
// engine's round numbers, so they are comparable across shards; a
// transaction pending in several shards has the same clock everywhere
// (progress observation is global).
func (e *Engine) oldestBlocked() (ta int64, since int, ok bool) {
	for _, s := range e.active {
		t, sc, o := e.shards[s].pending.OldestBlocked()
		if !o {
			continue
		}
		if !ok || sc < since || (sc == since && t < ta) {
			ta, since, ok = t, sc, true
		}
	}
	return ta, since, ok
}

// relations returns the pending and history relations deadlock detection
// runs over: the one shard's stores as they are, or — the waits-for graph's
// edges are same-object and therefore intra-shard, but cycles span shards —
// the shards' relations concatenated (allocated only on blocked or starving
// rounds).
func (e *Engine) relations() (pending, history []request.Request) {
	if len(e.shards) == 1 {
		return e.shards[0].pending.Live(), e.shards[0].hist.Live()
	}
	for _, sh := range e.shards {
		pending = append(pending, sh.pending.Live()...)
		history = append(history, sh.hist.Live()...)
	}
	return pending, history
}

// abortVictims turns the round's victims into abort records. A victim aborts
// and rolls back this round: none of its requests may reach the server, even
// ones that qualified (reachable since the starvation bound can pick victims
// while the batch is moving). The abort is fanned out like a termination:
// every shard the victim touched compensates the writes it executed locally
// — including a shard with no pending work this round, which joins the
// commit stage for it — and the home shard (lowest touched index) performs
// the server-side abort.
func (e *Engine) abortVictims(victims []int64) {
	if len(victims) == 0 {
		return
	}
	vs := make(map[int64]bool, len(victims))
	for _, ta := range victims {
		vs[ta] = true
	}
	for _, s := range e.active {
		sh := e.shards[s]
		kept := sh.qual[:0]
		for _, r := range sh.qual {
			if !vs[r.TA] {
				kept = append(kept, r)
			}
		}
		sh.qual = kept
	}
	for _, ta := range victims {
		// One row for the record of every shard the victim touched.
		rec := request.Request{
			ID: e.nextID.Add(1), TA: ta, IntraTA: victimIntra,
			Op: request.Abort, Object: request.NoObject,
		}.WithRow()
		mask := e.touched(ta)
		home := bits.TrailingZeros64(mask)
		for m := mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			e.shards[s].aborts = append(e.shards[s].aborts, abortOp{rec: rec, execServer: s == home})
		}
		e.commitMask |= mask
		e.forget(ta)
	}
}

// roundStats fills the round's record. A one-shard engine's record is its
// shard's; with more shards the counts are merged to match what one shard
// would report (replica copies deduped from Qualified, subtracted from
// Pending) and the shards' own records are kept for ShardStats.
func (e *Engine) roundStats(res *RoundResult, dup int, qualDur time.Duration) {
	if len(e.shards) == 1 {
		res.Stats = e.shards[0].stats
		return
	}
	res.Stats.Partition = metrics.MergedPartition
	for _, s := range e.commitShards {
		sh := e.shards[s]
		res.Stats.Pending += sh.stats.Pending - sh.admitted
		res.Stats.Qualified += sh.stats.Qualified
		res.Stats.History += sh.stats.History
		e.shardStats = append(e.shardStats, sh.stats)
	}
	res.Stats.Qualified -= dup
	res.Stats.Victims = len(res.Victims)
	res.Stats.Duration = qualDur
}
