// The history store: all relevant prior executed requests, from which "all
// necessary information about the current database state etc. can be
// obtained" (paper Figure 1). Under SS2PL the relevant entries are exactly
// those of unfinished transactions — committed and aborted transactions hold
// no locks — so garbage collection drops whole transactions once terminated
// (the paper's experiment likewise fills the history "without requests of
// committed transactions").

package store

import (
	"repro/internal/protocol"
	"repro/internal/request"
)

// History holds the live history, indexed per transaction, and optionally
// the full execution log. Like Pending, removal swap-compacts a dense slice,
// a slot table addresses the rows by transaction, and every mutation is
// logged in protocol.Deltas shape, so garbage collection is O(rows of newly
// finished transactions) instead of a full live scan, and a deadlock
// victim's executed writes are enumerable in O(|TA's rows|) for rollback.
type History struct {
	// live is the dense row slice; rowSlot and rowAppended run beside it:
	// each row's slot, and its index in the window's HistoryAppended log (-1
	// when it was appended in an earlier window).
	live        []request.Request
	rowSlot     []int32
	rowAppended []int32

	slotOf map[int64]int32
	slots  []historySlot
	free   []int32

	// finished is every transaction that ever terminated. It is read when a
	// transaction gets a slot and written once per termination; the slot's
	// flag answers the per-row checks.
	finished map[int64]bool
	// gcQueue lists transactions that terminated since the last GC, so a GC
	// pass visits exactly the newly finished transactions instead of
	// scanning every live one.
	gcQueue []int64

	deltas protocol.Deltas
	// appendedRow is the position in live of each HistoryAppended entry. A
	// transaction that executes and commits within one round is appended and
	// garbage-collected inside the same delta window — net absent per the
	// Deltas contract — so the removal cancels the append in place and the
	// protocols never see the no-op pair.
	appendedRow []int32
	// removedAt is the mirror image for the opposite chronology: slot
	// migration can move a row out and back in (the slot bounced between
	// shards) before this shard's window is consumed — net present — and a
	// removal followed by a re-append must likewise cancel in place. Left
	// uncancelled, the pair reads as net absent to the protocols (their
	// incremental engines apply inserts before deletes), silently dropping
	// a live lock row. It maps request ID -> position in HistoryRemoved, and
	// only ExtractMatching's removals enter it: GC never re-appends a row.
	// Request IDs are the paper's globally unique consecutive request numbers.
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

// historySlot is one transaction with live history rows. A slot is live while
// rows is non-empty; a freed slot keeps the capacity of its rows.
type historySlot struct {
	ta       int64
	finished bool
	rows     []int32
}

// NewHistory creates a store. With keepLog, every appended request is also
// retained in an append-only log (used by tests to verify serializability;
// the paper's scheduler would not keep it).
func NewHistory(keepLog bool) *History {
	return &History{
		slotOf:    make(map[int64]int32),
		finished:  make(map[int64]bool),
		keepLog:   keepLog,
		removedAt: make(map[int64]int32),
	}
}

// Append records executed requests in execution order, logging them as
// HistoryAppended. A request taken from the pending store keeps the row it
// carries; one that arrives without gets it when Deltas hands it out.
func (s *History) Append(rs ...request.Request) {
	for _, r := range rs {
		sl, ok := s.slotOf[r.TA]
		if !ok {
			sl = s.newSlot(r.TA)
		}
		slot := &s.slots[sl]
		if r.Op.IsTermination() {
			if !slot.finished {
				slot.finished = true
				s.finished[r.TA] = true
			}
			s.gcQueue = append(s.gcQueue, r.TA)
		} else if slot.finished {
			// Out-of-order arrival for an already finished transaction:
			// queue it so the next GC collects the late row.
			s.gcQueue = append(s.gcQueue, r.TA)
		}
		pos := int32(len(s.live))
		slot.rows = append(slot.rows, pos)
		s.live = append(s.live, r)
		s.rowSlot = append(s.rowSlot, sl)
		s.rowAppended = append(s.rowAppended, -1)
		if s.keepLog {
			s.log = append(s.log, r)
			s.logRound = append(s.logRound, s.round)
		}
		s.logAppend(r, pos)
	}
}

// newSlot gives ta a slot, reusing a freed one when there is one.
func (s *History) newSlot(ta int64) int32 {
	var sl int32
	if n := len(s.free); n > 0 {
		sl = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		sl = int32(len(s.slots))
		s.slots = append(s.slots, historySlot{})
	}
	slot := &s.slots[sl]
	slot.ta, slot.finished = ta, s.finished[ta]
	s.slotOf[ta] = sl
	return sl
}

// logAppend records the append of r, stored at pos, in the change log. An
// append of a request removed within the same window cancels the removal
// instead (migration bounced the row out and back in — net present).
func (s *History) logAppend(r request.Request, pos int32) {
	if len(s.removedAt) > 0 {
		if at, ok := s.removedAt[r.ID]; ok {
			delete(s.removedAt, r.ID)
			s.deltas.HistoryRemoved = cancelRemoval(s.deltas.HistoryRemoved, at, s.removedAt)
			return
		}
	}
	s.rowAppended[pos] = int32(len(s.deltas.HistoryAppended))
	s.deltas.HistoryAppended = append(s.deltas.HistoryAppended, r)
	s.appendedRow = append(s.appendedRow, pos)
}

// AppendReplica records a replica copy of a cross-partition termination: the
// row is live history (it releases the transaction's locks in this shard and
// queues it for GC, and the protocols see it via the change log) but is kept
// out of the execution log — the termination executed once, on its home
// shard, and merged per-shard logs must contain it once.
func (s *History) AppendReplica(r request.Request) {
	keep := s.keepLog
	s.keepLog = false
	s.Append(r)
	s.keepLog = keep
}

// AppendMigrated records rows moved in from another shard by slot migration:
// they are live history here (the locks they hold now release on this shard,
// and the protocols see them via the change log) but are kept out of the
// execution log — each request executed once, on the shard that admitted it,
// and merged per-shard logs must contain it exactly once.
func (s *History) AppendMigrated(rs ...request.Request) {
	keep := s.keepLog
	s.keepLog = false
	s.Append(rs...)
	s.keepLog = keep
}

// ExtractMatching removes every live row whose object satisfies match,
// logging each as HistoryRemoved, and returns the removed rows. The execution
// log is unaffected. The slot-migration path: the removals feed this shard's
// protocol the exact remove-delta, and the caller appends the rows (via
// AppendMigrated) on the destination shard. Rows of finished transactions
// never match — their locks were already released here by the termination
// row, the destination never saw that termination, and the local GC queue
// still owns them — nor do termination rows themselves (they carry no
// object and must stay where the transaction's finished mark lives).
func (s *History) ExtractMatching(match func(obj int64) bool) []request.Request {
	var taken []request.Request
	for i, r := range s.live {
		if r.Op.IsTermination() || s.slots[s.rowSlot[i]].finished || !match(r.Object) {
			continue
		}
		taken = append(taken, r)
	}
	for _, r := range taken {
		sl := s.slotOf[r.TA]
		for i, pos := range s.slots[sl].rows {
			if s.live[pos].ID == r.ID {
				s.removeAt(sl, i, true)
				break
			}
		}
	}
	return taken
}

// Live returns the live history slice (order unspecified — removal compacts
// by swapping). Callers must not mutate it, and must not retain it across
// store mutations. The execution-ordered view is Log.
func (s *History) Live() []request.Request { return s.live }

// SetRound sets the round clock stamped onto subsequent log entries.
func (s *History) SetRound(round int) { s.round = round }

// Log returns the full execution log (nil unless keepLog).
func (s *History) Log() []request.Request { return s.log }

// LogRounds returns the per-entry round stamps of the execution log,
// parallel to Log.
func (s *History) LogRounds() []int { return s.logRound }

// Len returns the live history size.
func (s *History) Len() int { return len(s.live) }

// Finished reports whether ta has terminated.
func (s *History) Finished(ta int64) bool { return s.finished[ta] }

// WritesOf returns the objects of ta's executed writes, one entry per write
// (rollback compensates each executed write exactly once). O(|TA's rows|).
func (s *History) WritesOf(ta int64) []int64 {
	sl, ok := s.slotOf[ta]
	if !ok {
		return nil
	}
	var out []int64
	for _, pos := range s.slots[sl].rows {
		if r := &s.live[pos]; r.Op == request.Write {
			out = append(out, r.Object)
		}
	}
	return out
}

// WriteCountOf returns how many executed writes ta has in the live history,
// without materialising them — the durable journal's commit gate uses it
// (a commit record may not be journaled before that many of ta's write
// records are). O(|TA's rows|), allocation-free.
func (s *History) WriteCountOf(ta int64) int {
	sl, ok := s.slotOf[ta]
	if !ok {
		return 0
	}
	n := 0
	for _, pos := range s.slots[sl].rows {
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
// out-of-order re-queue it via Append's finished check).
func (s *History) GC() int {
	n := 0
	for _, ta := range s.gcQueue {
		if sl, ok := s.slotOf[ta]; ok {
			n += s.removeTA(sl)
		}
	}
	s.gcQueue = s.gcQueue[:0]
	return n
}

// removeTA drops all of slot sl's rows from the live slice, releasing the
// slot.
func (s *History) removeTA(sl int32) int {
	rows := s.slots[sl].rows
	n := len(rows)
	// Remove from the highest position down, so a swap never moves a row
	// that is itself scheduled for removal.
	sortPositions(rows)
	for i := n - 1; i >= 0; i-- {
		s.removeAt(sl, i, false)
	}
	return n
}

// removeAt removes the row at index i of slot sl's rows: it logs the
// removal (in removedAt too when migrated is set), releases the slot with its
// last row, and swap-compacts the dense slice.
func (s *History) removeAt(sl int32, i int, migrated bool) {
	slot := &s.slots[sl]
	pos := slot.rows[i]
	s.logRemoval(pos, migrated)
	last := len(slot.rows) - 1
	slot.rows[i] = slot.rows[last]
	slot.rows = slot.rows[:last]
	if last == 0 {
		delete(s.slotOf, slot.ta)
		s.free = append(s.free, sl)
	}
	end := int32(len(s.live) - 1)
	if pos != end {
		s.live[pos] = s.live[end]
		s.rowSlot[pos] = s.rowSlot[end]
		s.rowAppended[pos] = s.rowAppended[end]
		if a := s.rowAppended[pos]; a >= 0 {
			s.appendedRow[a] = pos
		}
		repoint(s.slots[s.rowSlot[pos]].rows, end, pos)
	}
	s.live[end] = request.Request{} // do not pin the removed request
	s.live = s.live[:end]
	s.rowSlot = s.rowSlot[:end]
	s.rowAppended = s.rowAppended[:end]
}

// logRemoval records the removal of the row at pos in the change log. A
// removal of a request appended within the same window cancels the append
// instead (net absent).
func (s *History) logRemoval(pos int32, migrated bool) {
	a := s.rowAppended[pos]
	if a < 0 {
		if migrated {
			s.removedAt[s.live[pos].ID] = int32(len(s.deltas.HistoryRemoved))
		}
		s.deltas.HistoryRemoved = append(s.deltas.HistoryRemoved, s.live[pos])
		return
	}
	ap := s.deltas.HistoryAppended
	last := int32(len(ap) - 1)
	if a != last {
		ap[a] = ap[last]
		s.appendedRow[a] = s.appendedRow[last]
		s.rowAppended[s.appendedRow[a]] = a
	}
	ap[last] = request.Request{}
	s.deltas.HistoryAppended = ap[:last]
	s.appendedRow = s.appendedRow[:last]
	s.rowAppended[pos] = -1
}

// sortPositions sorts a small position list ascending (insertion sort: the
// lists are transaction-sized, and the positions arrive mostly ascending).
func sortPositions(ps []int32) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Deltas appends the change log accumulated since the last ResetDeltas call
// onto d. The slices alias the store's log buffers: they are valid until the
// next mutation after ResetDeltas. As in Pending.Deltas, each appended
// request is given its row, shared with the stored copy.
func (s *History) Deltas(d *protocol.Deltas) {
	withRows(s.deltas.HistoryAppended, s.appendedRow, s.live)
	d.HistoryAppended = s.deltas.HistoryAppended
	d.HistoryRemoved = s.deltas.HistoryRemoved
}

// ResetDeltas starts a new change-log window, reusing the log buffers. Only
// the rows this window logged are touched.
func (s *History) ResetDeltas() {
	for _, pos := range s.appendedRow {
		s.rowAppended[pos] = -1
	}
	s.appendedRow = s.appendedRow[:0]
	s.deltas.HistoryAppended = s.deltas.HistoryAppended[:0]
	s.deltas.HistoryRemoved = s.deltas.HistoryRemoved[:0]
	if len(s.removedAt) > 0 {
		clear(s.removedAt)
	}
}
