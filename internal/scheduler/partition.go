// The multi-shard side of the round loop: with N > 1 shards, each owning its
// own protocol instance, warm incremental state, pending/history stores and
// executor, the engine's rounds are lockstep super-rounds. Every function in
// this file returns at once (or is never reached) on a one-shard engine. A
// slot directory (store.Directory) routes every data
// request to the shard owning its object — objects hash into a fixed number
// of slots and a versioned slot→shard table owns placement — so all lock
// state for an object lives in exactly one partition and per-shard
// qualification needs no cross-shard data. The protocols this supports
// declare it via protocol.ObjectDecomposable (their lock and block rules join
// requests and history on the same object only).
//
// Because placement is table data rather than a fixed hash, a rebalancer
// (rebalance.go) can move hot slots between shards between super-rounds (a
// slot lives on one shard at a time): the slot's pending and history rows
// migrate store to store, emitting exact remove/add deltas on both sides so
// the warm incremental protocols patch instead of rebuilding, and the drained
// admission queues are re-routed against the new table before the round
// admits them.
//
// Single-partition transactions — the steady-state case — touch one shard's
// queue, stores and executor and never synchronize with other shards' data:
// the only cross-shard coordination is the super-round barrier and the
// sequencer's victim arithmetic, both lock-free over the shard stores.
//
// Cross-partition transactions exist only at termination (a commit or abort
// must release the transaction's locks in every shard it touched; data
// requests are single-shard by construction). The sequencer orders them
// deterministically — the globally assigned request ID is the sequence
// number — and admits a copy to every touched shard: each shard qualifies
// its copy locally, and the termination commits only when all touched shards
// agree (all copies qualified). The home shard (lowest touched index)
// executes it on the server and answers the client; the other shards append
// replica history rows that release their locks without server work.
//
// Victim resolution is global, which is what makes the partitioned scheduler
// equivalent to the single loop (see partition_test.go): protocol wounds are
// the union of the shards' wounds, deadlock detection runs over the
// concatenated pending and history relations (the waits-for graph's edges
// are same-object and therefore intra-shard, but cycles span shards), and
// the starvation bound compares the oldest blocked transaction across all
// shards. A victim's abort is fanned out like a termination: every touched
// shard compensates the writes it executed locally; the home shard performs
// the server-side abort.
package scheduler

import (
	"math/bits"
	"sort"

	"repro/internal/request"
)

// MergedLog merges the shard execution logs into one conflict-preserving
// order: entries sort by the super-round they committed in (stable, so
// within a round each shard's own order survives). Within one round all of
// an object's requests execute on a single shard — in that shard's log
// order — and across rounds the round stamp orders them, even when a slot
// migration moved the object between shards mid-run. Replica copies of
// cross-partition terminations and migrated rows are excluded by the shards
// (store.History.AppendLiveOnly), so each request appears exactly once. A
// one-shard engine's log is already that order.
func (e *Engine) MergedLog() []request.Request {
	if len(e.shards) == 1 {
		return e.shards[0].hist.Log()
	}
	var out []request.Request
	var rounds []int
	for _, sh := range e.shards {
		out = append(out, sh.hist.Log()...)
		rounds = append(rounds, sh.hist.LogRounds()...)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rounds[idx[a]] < rounds[idx[b]] })
	merged := make([]request.Request, len(out))
	for i, j := range idx {
		merged[i] = out[j]
	}
	return merged
}

// push appends one op to a shard queue.
func (e *Engine) push(s int, op shardOp) {
	q := &e.shards[s].queue
	q.mu.Lock()
	q.ops = append(q.ops, op)
	q.mu.Unlock()
	e.queued.Add(1)
}

// route is Enqueue on a multi-shard engine: the request goes to the shard
// owning its object, which its transaction has now touched; its globally
// consecutive ID doubles as the deterministic cross-partition sequence.
func (e *Engine) route(r request.Request) {
	if r.Op.IsTermination() {
		e.enqueueTermination(r)
		return
	}
	s := e.part.ForObject(r.Object)
	e.affinity.Touch(r.TA, s)
	e.push(s, shardOp{req: r})
}

// enqueueTermination sequences a commit/abort request: one copy per touched
// shard, the lowest touched shard as home. The request ID assigned by
// Enqueue is the global sequence number — every shard admits and orders the
// copies identically.
func (e *Engine) enqueueTermination(r request.Request) {
	mask := e.affinity.ShardsOf(r.TA)
	if mask == 0 {
		// The transaction never touched an object here (empty transaction,
		// or a termination retry after its state was dropped): single-shard
		// by definition.
		e.push(e.part.ForTA(r.TA), shardOp{req: r})
		return
	}
	home := bits.TrailingZeros64(mask)
	if mask&(mask-1) == 0 {
		e.push(home, shardOp{req: r})
		return
	}
	e.crossMu.Lock()
	e.cross[r.Key()] = bits.OnesCount64(mask)
	e.crossMu.Unlock()
	r = r.WithRow() // one row for every shard's copy
	for m := mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		e.push(s, shardOp{req: r, replica: s != home})
	}
}

// touched returns the shards holding requests or history rows of ta, as a
// bitmask: every shard a victim's abort must reach.
func (e *Engine) touched(ta int64) uint64 {
	if len(e.shards) == 1 {
		return 1
	}
	if mask := e.affinity.ShardsOf(ta); mask != 0 {
		return mask
	}
	return 1 << uint(e.part.ForTA(ta))
}

// forget drops the routing state of an aborted victim: its affinity record
// and its pending cross-partition terminations.
func (e *Engine) forget(ta int64) {
	if len(e.shards) == 1 {
		return
	}
	e.affinity.Drop(ta)
	e.crossMu.Lock()
	for k := range e.cross {
		if k.TA == ta {
			delete(e.cross, k)
		}
	}
	e.crossMu.Unlock()
}

// stripUnagreed is the cross-partition agreement check: a termination
// sequenced to k shards commits only when all k copies qualified this round;
// otherwise every copy stays pending and retries. Under SS2PL terminations
// always qualify, so this fires only under protocols that can block
// terminations.
func (e *Engine) stripUnagreed() {
	if len(e.shards) == 1 {
		return
	}
	e.crossMu.Lock()
	defer e.crossMu.Unlock()
	if len(e.cross) == 0 {
		return
	}
	var counts map[request.Key]int
	for _, s := range e.active {
		for _, r := range e.shards[s].qual {
			if !r.Op.IsTermination() {
				continue
			}
			if _, ok := e.cross[r.Key()]; ok {
				if counts == nil {
					counts = make(map[request.Key]int)
				}
				counts[r.Key()]++
			}
		}
	}
	var stripped map[request.Key]bool
	for k, n := range counts {
		if n < e.cross[k] {
			if stripped == nil {
				stripped = make(map[request.Key]bool)
			}
			stripped[k] = true
		}
	}
	if stripped == nil {
		return
	}
	for _, s := range e.active {
		sh := e.shards[s]
		kept := sh.qual[:0]
		for _, r := range sh.qual {
			if !stripped[r.Key()] {
				kept = append(kept, r)
			}
		}
		sh.qual = kept
	}
}

// settleTerminations settles the round's committing terminations: count
// cross-partition commits, release routing state, and count the replica
// copies to dedupe out of the merged Qualified count (each committed request
// counts once, as on one shard) — returned as dup.
// On a durable server this is also where each committing transaction's
// global journaled-write expectation is fixed — summed across every
// shard's history while the sequencer is still single-threaded, before
// any shard appends the termination row or garbage-collects. The
// shards' executors run concurrently, so without this gate count a home
// shard could journal a commit before another shard journals one of the
// transaction's earlier writes, and a crash between the two would lose
// an acked commit's write.
func (e *Engine) settleTerminations(res *RoundResult) (dup int) {
	if len(e.shards) == 1 {
		return 0
	}
	if e.present == nil {
		e.present = make(map[request.Key]uint64)
	}
	clear(e.present)
	e.commitWrites = nil
	var late []request.Request
	durable := e.cfg.Server.Durable()
	e.crossMu.Lock()
	for _, s := range e.active {
		for _, r := range e.shards[s].qual {
			if !r.Op.IsTermination() {
				continue
			}
			k := r.Key()
			seen := e.present[k]
			e.present[k] = seen | 1<<uint(s)
			if seen != 0 {
				dup++
				continue
			}
			if durable && r.Op == request.Commit {
				n := 0
				for _, sh := range e.shards {
					n += sh.hist.WriteCountOf(r.TA)
				}
				if n > 0 {
					if e.commitWrites == nil {
						e.commitWrites = make(map[int64]int)
					}
					e.commitWrites[r.TA] = n
				}
			}
			if _, ok := e.cross[k]; ok {
				res.Stats.Cross++
				delete(e.cross, k)
			}
			late = append(late, r)
		}
	}
	e.crossMu.Unlock()
	return dup + e.injectLateCopies(late)
}

// injectLateCopies handles committing terminations whose affinity mask names
// shards that hold no qualified copy: the copies were routed before a slot
// migration moved the transaction's rows onto a new shard, so without a late
// copy that shard would never release the migrated locks. The sequencer
// injects the missing replica copies here, after agreement — they are
// bookkeeping rows, not admissions, so they bypass the cap — and the shard
// joins the commit stage for them. It releases the terminations' routing
// state and returns the number of copies injected.
func (e *Engine) injectLateCopies(terms []request.Request) (injected int) {
	for _, r := range terms {
		k := r.Key()
		for m := e.affinity.ShardsOf(r.TA) &^ e.present[k]; m != 0; m &= m - 1 {
			sh := e.shards[bits.TrailingZeros64(m)]
			if sh.replicas == nil {
				sh.replicas = make(map[request.Key]bool)
			}
			sh.replicas[k] = true
			sh.qual = append(sh.qual, r)
			e.commitMask |= 1 << uint(sh.idx)
			injected++
		}
		e.affinity.Drop(r.TA)
	}
	return injected
}
