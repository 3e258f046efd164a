package store

// The map-based stores the slot tables replaced, kept (renamed) as the test
// oracle of TestStoresMatchMapModel and FuzzStoreOps: a map per index — 16
// key-hash maps, a per-TA key list and clock map and two delta-log maps for
// pending; per-TA position lists, a finished set and two delta-log maps for
// history. Both net a migration bounce within one window the same way.

import (
	"repro/internal/protocol"
	"repro/internal/request"
)

// mapPendingShards is the shard count of the key index. Sharding bounds the
// rehash cost of any single admit burst and is the unit a future concurrent
// admission path would lock; 16 maps cost nothing on the single-threaded
// round loop.
const mapPendingShards = 16

// mapPending is the indexed pending-request store. Not safe for concurrent use;
// the scheduler serialises all store mutations on its round loop.
type mapPending struct {
	// reqs is the dense backing slice: removal swaps the last element into
	// the hole, so admit and remove are O(1) and the slice is always a valid
	// materialisation of the store (in unspecified order).
	reqs   []request.Request
	shards [mapPendingShards]map[request.Key]int32
	byTA   map[int64][]request.Key

	// blockedSince records, per transaction with pending requests, the round
	// at which it last made progress (had a request qualify) or was admitted
	// — the waiting-age clock of the starvation bound.
	blockedSince map[int64]int

	deltas protocol.Deltas
	// addedAt maps request ID -> position in the current window's added
	// log. A request admitted and removed within one delta window (a victim
	// drop in the admission round) is net absent, so the removal cancels the
	// addition in place.
	addedAt map[int64]int32
	// removedAt maps request ID -> position in the window's removed log for
	// ExtractMatching's removals: a migration that bounces a row out and back
	// in within one window is net present, so the re-admission cancels the
	// removal in place.
	removedAt map[int64]int32
}

// newMapPending creates an empty store.
func newMapPending() *mapPending {
	p := &mapPending{
		byTA:         make(map[int64][]request.Key),
		blockedSince: make(map[int64]int),
		addedAt:      make(map[int64]int32),
		removedAt:    make(map[int64]int32),
	}
	for i := range p.shards {
		p.shards[i] = make(map[request.Key]int32)
	}
	return p
}

func mapShardOf(k request.Key) int {
	h := uint64(k.TA)*0x9E3779B97F4A7C15 ^ uint64(k.IntraTA)*0xFF51AFD7ED558CCD
	return int((h ^ h>>32) & (mapPendingShards - 1))
}

// Len returns the number of pending requests.
func (p *mapPending) Len() int { return len(p.reqs) }

// Live returns the dense backing slice (order unspecified). Callers must not
// mutate it, and must not retain it across store mutations.
func (p *mapPending) Live() []request.Request { return p.reqs }

// Admit inserts requests, logging them as PendingAdded. Requests are keyed
// by (TA, IntraTA), and no admitted key may already be pending.
func (p *mapPending) Admit(rs ...request.Request) {
	for _, r := range rs {
		k := r.Key()
		s := p.shards[mapShardOf(k)]
		s[k] = int32(len(p.reqs))
		p.reqs = append(p.reqs, r)
		if _, ok := p.blockedSince[r.TA]; !ok {
			p.blockedSince[r.TA] = -1 // clock starts at the next observed round
		}
		p.byTA[r.TA] = append(p.byTA[r.TA], k)
		if pos, ok := p.removedAt[r.ID]; ok {
			delete(p.removedAt, r.ID)
			rm := p.deltas.PendingRemoved
			last := int32(len(rm) - 1)
			if pos != last {
				moved := rm[last]
				rm[pos] = moved
				if _, ok := p.removedAt[moved.ID]; ok {
					p.removedAt[moved.ID] = pos
				}
			}
			rm[last] = request.Request{}
			p.deltas.PendingRemoved = rm[:last]
			continue
		}
		p.addedAt[r.ID] = int32(len(p.deltas.PendingAdded))
		p.deltas.PendingAdded = append(p.deltas.PendingAdded, r)
	}
}

// Remove deletes the request with key k, logging it as PendingRemoved. It
// reports whether the key was present.
func (p *mapPending) Remove(k request.Key) bool {
	return p.remove(k, false)
}

// remove is Remove, logging the removal in removedAt too when migrated is
// set.
func (p *mapPending) remove(k request.Key, migrated bool) bool {
	s := p.shards[mapShardOf(k)]
	pos, ok := s[k]
	if !ok {
		return false
	}
	r := p.reqs[pos]
	p.unlink(s, k, pos)
	p.dropTAKey(r.TA, k)
	p.logRemoval(r, migrated)
	return true
}

// logRemoval records r's removal in the change log; a removal of a request
// added within the same window cancels the addition instead (net absent).
func (p *mapPending) logRemoval(r request.Request, migrated bool) {
	pos, ok := p.addedAt[r.ID]
	if !ok {
		if migrated {
			p.removedAt[r.ID] = int32(len(p.deltas.PendingRemoved))
		}
		p.deltas.PendingRemoved = append(p.deltas.PendingRemoved, r)
		return
	}
	delete(p.addedAt, r.ID)
	ad := p.deltas.PendingAdded
	last := int32(len(ad) - 1)
	if pos != last {
		moved := ad[last]
		ad[pos] = moved
		p.addedAt[moved.ID] = pos
	}
	ad[last] = request.Request{}
	p.deltas.PendingAdded = ad[:last]
}

// RemoveTA deletes every pending request of transaction ta (the deadlock- and
// starvation-victim path), logging each as PendingRemoved. It returns how
// many were removed.
func (p *mapPending) RemoveTA(ta int64) int {
	keys := p.byTA[ta]
	for _, k := range keys {
		s := p.shards[mapShardOf(k)]
		if pos, ok := s[k]; ok {
			p.logRemoval(p.reqs[pos], false)
			p.unlink(s, k, pos)
		}
	}
	n := len(keys)
	delete(p.byTA, ta)
	delete(p.blockedSince, ta)
	return n
}

// unlink removes position pos (known to hold key k in shard s) from the
// dense slice, fixing up the index entry of the row swapped into the hole.
func (p *mapPending) unlink(s map[request.Key]int32, k request.Key, pos int32) {
	delete(s, k)
	last := int32(len(p.reqs) - 1)
	if pos != last {
		moved := p.reqs[last]
		p.reqs[pos] = moved
		p.shards[mapShardOf(moved.Key())][moved.Key()] = pos
	}
	p.reqs[last] = request.Request{} // do not pin the removed request
	p.reqs = p.reqs[:last]
}

// dropTAKey removes k from ta's key list, releasing the transaction's
// tracking state when its last pending request is gone.
func (p *mapPending) dropTAKey(ta int64, k request.Key) {
	keys := p.byTA[ta]
	for i, kk := range keys {
		if kk == k {
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			break
		}
	}
	if len(keys) == 0 {
		delete(p.byTA, ta)
		delete(p.blockedSince, ta)
	} else {
		p.byTA[ta] = keys
	}
}

// ExtractMatching removes every pending request whose object satisfies match
// (terminations never match — they carry no object and are owned by the
// cross-partition sequencer), logging each as PendingRemoved, and hands each
// to visit together with its transaction's waiting-age clock at extraction
// time (-1 when the clock had not started). The slot-migration path: the
// removals feed this shard's protocol the exact remove-delta, and the caller
// re-admits the rows (with MergeClock) on the destination shard.
func (p *mapPending) ExtractMatching(match func(obj int64) bool, visit func(r request.Request, since int)) int {
	var taken []request.Request
	for _, r := range p.reqs {
		if r.Op.IsTermination() || !match(r.Object) {
			continue
		}
		taken = append(taken, r)
	}
	for _, r := range taken {
		since, ok := p.blockedSince[r.TA]
		if !ok {
			since = -1
		}
		p.remove(r.Key(), true)
		visit(r, since)
	}
	return len(taken)
}

// MergeClock folds a migrated-in waiting-age clock into ta's: the oracle has
// one clock per transaction, the shards hold per-shard copies whose minimum
// matches it, so the destination takes the older (smaller) of the two. -1
// means "not started" and acts as +infinity. No-op when ta has no pending
// rows here.
func (p *mapPending) MergeClock(ta int64, since int) {
	if since < 0 {
		return
	}
	cur, ok := p.blockedSince[ta]
	if !ok {
		return
	}
	if cur < 0 || since < cur {
		p.blockedSince[ta] = since
	}
}

// ObserveRound advances the waiting-age clocks after a qualification:
// transactions that progressed this round (or whose clock had not started)
// restart their clock at round; the rest keep their first blocked round.
// progressed may be nil (nothing qualified).
func (p *mapPending) ObserveRound(round int, progressed map[int64]bool) {
	for ta, since := range p.blockedSince {
		if since < 0 || progressed[ta] {
			p.blockedSince[ta] = round
		}
	}
}

// OldestBlocked returns the transaction that has waited the longest without
// progress (smallest last-progress round, ties to the smallest TA) and the
// round its wait started. ok is false when nothing is waiting.
func (p *mapPending) OldestBlocked() (ta int64, since int, ok bool) {
	for t, s := range p.blockedSince {
		if s < 0 {
			continue // admitted this round; clock not started yet
		}
		if !ok || s < since || (s == since && t < ta) {
			ta, since, ok = t, s, true
		}
	}
	return ta, since, ok
}

// Deltas returns the change log accumulated since the last ResetDeltas call,
// appended onto d. The returned slices alias the store's log buffers: they
// are valid until the next mutation after ResetDeltas.
func (p *mapPending) Deltas(d *protocol.Deltas) {
	d.PendingAdded = p.deltas.PendingAdded
	d.PendingRemoved = p.deltas.PendingRemoved
}

// ResetDeltas starts a new change-log window, reusing the log buffers.
func (p *mapPending) ResetDeltas() {
	p.deltas.PendingAdded = p.deltas.PendingAdded[:0]
	p.deltas.PendingRemoved = p.deltas.PendingRemoved[:0]
	clear(p.addedAt)
	clear(p.removedAt)
}

// mapHistory holds the live history, indexed per transaction, and optionally
// the full execution log. Like mapPending, removal swap-compacts a dense slice
// and every mutation is logged in protocol.Deltas shape, so garbage
// collection is O(rows of newly finished transactions) instead of a full
// live scan, and a deadlock victim's executed writes are enumerable in
// O(|TA's rows|) for rollback.
type mapHistory struct {
	live []request.Request
	// byTA maps each live transaction to the positions of its rows in live.
	// GC and victim rollback both address the history by transaction; the
	// index makes them proportional to the transaction, not the store.
	byTA     map[int64][]int32
	finished map[int64]bool
	// gcQueue lists transactions that terminated since the last GC, so a GC
	// pass visits exactly the newly finished transactions instead of
	// scanning every live one.
	gcQueue []int64

	deltas protocol.Deltas
	// appendedAt maps request ID -> position in the current window's
	// appended log. A transaction that executes and commits within one
	// round is appended and garbage-collected inside the same delta window —
	// net absent per the Deltas contract — so the removal cancels the
	// append in place and the protocols never see the no-op pair. Request
	// IDs are the paper's globally unique consecutive request numbers.
	appendedAt map[int64]int32
	// removedAt is the mirror image for the opposite chronology: slot
	// migration can move a row out and back in (the slot bounced between
	// shards) before this shard's window is consumed — net present — and a
	// removal followed by a re-append must likewise cancel in place. Left
	// uncancelled, the pair reads as net absent to the protocols (their
	// incremental engines apply inserts before deletes), silently dropping
	// a live lock row.
	removedAt map[int64]int32

	keepLog bool
	log     []request.Request
	// logRound stamps each log entry with the round it was committed in
	// (the engine sets the clock via SetRound). Slot migration can move an
	// object's later executions to another shard, so merging per-shard logs
	// back into one conflict-preserving order needs the round: within one
	// round an object's requests execute on a single shard in log order,
	// across rounds the stamp orders them.
	logRound []int
	round    int
}

// newMapHistory creates a store. With keepLog, every appended request is also
// retained in an append-only log (used by tests to verify serializability;
// the paper's scheduler would not keep it).
func newMapHistory(keepLog bool) *mapHistory {
	return &mapHistory{
		byTA:       make(map[int64][]int32),
		finished:   make(map[int64]bool),
		keepLog:    keepLog,
		appendedAt: make(map[int64]int32),
		removedAt:  make(map[int64]int32),
	}
}

// Append records executed requests in execution order, logging them as
// HistoryAppended.
func (s *mapHistory) Append(rs ...request.Request) {
	for _, r := range rs {
		s.byTA[r.TA] = append(s.byTA[r.TA], int32(len(s.live)))
		s.live = append(s.live, r)
		if r.Op.IsTermination() {
			s.finished[r.TA] = true
			s.gcQueue = append(s.gcQueue, r.TA)
		} else if s.finished[r.TA] {
			// Out-of-order arrival for an already finished transaction:
			// queue it so the next GC collects the late row.
			s.gcQueue = append(s.gcQueue, r.TA)
		}
		if s.keepLog {
			s.log = append(s.log, r)
			s.logRound = append(s.logRound, s.round)
		}
		s.logAppend(r)
	}
}

// logAppend records r's append in the change log. An append of a request
// removed within the same window cancels the removal instead (migration
// bounced the row out and back in — net present).
func (s *mapHistory) logAppend(r request.Request) {
	if pos, ok := s.removedAt[r.ID]; ok {
		delete(s.removedAt, r.ID)
		rm := s.deltas.HistoryRemoved
		last := int32(len(rm) - 1)
		if pos != last {
			moved := rm[last]
			rm[pos] = moved
			s.removedAt[moved.ID] = pos
		}
		rm[last] = request.Request{}
		s.deltas.HistoryRemoved = rm[:last]
		return
	}
	s.appendedAt[r.ID] = int32(len(s.deltas.HistoryAppended))
	s.deltas.HistoryAppended = append(s.deltas.HistoryAppended, r)
}

// AppendLiveOnly records rows that executed on another shard — a replica
// copy of a cross-partition termination, or rows moved in by slot migration:
// they are live history here (and the protocols see them via the change log)
// but are kept out of the execution log — each request executed once, and
// merged per-shard logs must contain it exactly once.
func (s *mapHistory) AppendLiveOnly(rs ...request.Request) {
	keep := s.keepLog
	s.keepLog = false
	s.Append(rs...)
	s.keepLog = keep
}

// ExtractMatching removes every live row whose object satisfies match,
// logging each as HistoryRemoved, and returns the removed rows. The execution
// log is unaffected. The slot-migration path: the removals feed this shard's
// protocol the exact remove-delta, and the caller appends the rows (via
// AppendLiveOnly) on the destination shard. Rows of finished transactions
// never match — their locks were already released here by the termination
// row, the destination never saw that termination, and the local GC queue
// still owns them — nor do termination rows themselves (they carry no
// object and must stay where the transaction's finished mark lives).
func (s *mapHistory) ExtractMatching(match func(obj int64) bool) []request.Request {
	var taken []request.Request
	for _, r := range s.live {
		if r.Op.IsTermination() || s.finished[r.TA] || !match(r.Object) {
			continue
		}
		taken = append(taken, r)
	}
	for _, r := range taken {
		s.removeRow(r)
	}
	return taken
}

// removeRow drops one specific live row (matched by request ID), fixing up
// the per-transaction index like removeTA does for whole transactions.
func (s *mapHistory) removeRow(r request.Request) {
	positions := s.byTA[r.TA]
	for i, pos := range positions {
		if s.live[pos].ID != r.ID {
			continue
		}
		positions[i] = positions[len(positions)-1]
		positions = positions[:len(positions)-1]
		if len(positions) == 0 {
			delete(s.byTA, r.TA)
		} else {
			s.byTA[r.TA] = positions
		}
		s.logRemoval(r)
		last := int32(len(s.live) - 1)
		if pos != last {
			moved := s.live[last]
			s.live[pos] = moved
			s.repoint(moved.TA, last, pos)
		}
		s.live[last] = request.Request{} // do not pin the removed request
		s.live = s.live[:last]
		return
	}
}

// Live returns the live history slice (order unspecified — removal compacts
// by swapping). Callers must not mutate it, and must not retain it across
// store mutations. The execution-ordered view is Log.
func (s *mapHistory) Live() []request.Request { return s.live }

// SetRound sets the round clock stamped onto subsequent log entries.
func (s *mapHistory) SetRound(round int) { s.round = round }

// Log returns the full execution log (nil unless keepLog).
func (s *mapHistory) Log() []request.Request { return s.log }

// LogRounds returns the per-entry round stamps of the execution log,
// parallel to Log.
func (s *mapHistory) LogRounds() []int { return s.logRound }

// Len returns the live history size.
func (s *mapHistory) Len() int { return len(s.live) }

// Finished reports whether ta has terminated.
func (s *mapHistory) Finished(ta int64) bool { return s.finished[ta] }

// WritesOf returns the objects of ta's executed writes, one entry per write
// (rollback compensates each executed write exactly once). O(|TA's rows|).
func (s *mapHistory) WritesOf(ta int64) []int64 {
	var out []int64
	for _, pos := range s.byTA[ta] {
		if r := s.live[pos]; r.Op == request.Write {
			out = append(out, r.Object)
		}
	}
	return out
}

// WriteCountOf returns how many executed writes ta has in the live history,
// without materialising them — the durable journal's commit gate uses it
// (a commit record may not be journaled before that many of ta's write
// records are). O(|TA's rows|), allocation-free.
func (s *mapHistory) WriteCountOf(ta int64) int {
	n := 0
	for _, pos := range s.byTA[ta] {
		if s.live[pos].Op == request.Write {
			n++
		}
	}
	return n
}

// GC removes every request belonging to a finished transaction, logging each
// as HistoryRemoved, and returns how many were removed. The execution log is
// unaffected. A pass visits only the transactions that terminated since the
// previous GC (rows of an already collected transaction that arrive
// out-of-order re-queue it via Append's termination check — late rows carry
// no termination, so Append re-queues on lookup instead).
func (s *mapHistory) GC() int {
	n := 0
	for _, ta := range s.gcQueue {
		if _, ok := s.byTA[ta]; ok {
			n += s.removeTA(ta)
		}
	}
	s.gcQueue = s.gcQueue[:0]
	return n
}

// removeTA drops all of ta's rows from the live slice, fixing the index
// entries of rows swapped into the holes.
func (s *mapHistory) removeTA(ta int64) int {
	positions := s.byTA[ta]
	delete(s.byTA, ta)
	n := 0
	// Remove from the highest position down, so a swap never moves a row
	// that is itself scheduled for removal.
	mapSortPositionsDesc(positions)
	for _, pos := range positions {
		r := s.live[pos]
		s.logRemoval(r)
		last := int32(len(s.live) - 1)
		if pos != last {
			moved := s.live[last]
			s.live[pos] = moved
			s.repoint(moved.TA, last, pos)
		}
		s.live[last] = request.Request{} // do not pin the removed request
		s.live = s.live[:last]
		n++
	}
	return n
}

// logRemoval records r's removal in the change log. A removal of a request
// appended within the same window cancels the append instead (net absent).
func (s *mapHistory) logRemoval(r request.Request) {
	pos, ok := s.appendedAt[r.ID]
	if !ok {
		s.removedAt[r.ID] = int32(len(s.deltas.HistoryRemoved))
		s.deltas.HistoryRemoved = append(s.deltas.HistoryRemoved, r)
		return
	}
	delete(s.appendedAt, r.ID)
	ap := s.deltas.HistoryAppended
	last := int32(len(ap) - 1)
	if pos != last {
		moved := ap[last]
		ap[pos] = moved
		s.appendedAt[moved.ID] = pos
	}
	ap[last] = request.Request{}
	s.deltas.HistoryAppended = ap[:last]
}

// repoint updates ta's index entry for the row moved from position from to
// position to. Linear in the transaction's row count, which is bounded by
// transaction length.
func (s *mapHistory) repoint(ta int64, from, to int32) {
	ps := s.byTA[ta]
	for i, p := range ps {
		if p == from {
			ps[i] = to
			return
		}
	}
}

// mapSortPositionsDesc sorts a small position list descending (insertion sort:
// the lists are transaction-sized, and the positions arrive mostly
// ascending, i.e. near-reversed — short and cheap either way).
func mapSortPositionsDesc(ps []int32) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] > ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Deltas appends the change log accumulated since the last ResetDeltas call
// onto d. The slices alias the store's log buffers: they are valid until the
// next mutation after ResetDeltas.
func (s *mapHistory) Deltas(d *protocol.Deltas) {
	d.HistoryAppended = s.deltas.HistoryAppended
	d.HistoryRemoved = s.deltas.HistoryRemoved
}

// ResetDeltas starts a new change-log window, reusing the log buffers.
func (s *mapHistory) ResetDeltas() {
	s.deltas.HistoryAppended = s.deltas.HistoryAppended[:0]
	s.deltas.HistoryRemoved = s.deltas.HistoryRemoved[:0]
	clear(s.appendedAt)
	clear(s.removedAt)
}
