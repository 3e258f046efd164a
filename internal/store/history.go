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
// the full execution log. It is the same table as Pending, so garbage
// collection is O(rows of newly finished transactions) instead of a full
// live scan, and a deadlock victim's executed writes are enumerable in
// O(|TA's rows|) for rollback. Live is in unspecified order (removal compacts
// by swapping); the execution-ordered view is Log.
type History struct {
	table
	// slotFinished is each slot's finished flag, the per-row copy of
	// finished.
	slotFinished []bool

	// finished is every transaction that ever terminated. It is read when a
	// transaction gets a slot and written once per termination; the slot's
	// flag answers the per-row checks.
	finished map[int64]bool
	// gcQueue lists transactions that terminated since the last GC, so a GC
	// pass visits exactly the newly finished transactions instead of
	// scanning every live one.
	gcQueue []int64

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

// NewHistory creates a store. With keepLog, every appended request is also
// retained in an append-only log (used by tests to verify serializability;
// the paper's scheduler would not keep it).
func NewHistory(keepLog bool) *History {
	return &History{table: newTable(), finished: make(map[int64]bool), keepLog: keepLog}
}

// Append records executed requests in execution order, logging them as
// HistoryAppended. A request taken from the pending store keeps the row it
// carries; one that arrives without gets it when Deltas hands it out.
func (s *History) Append(rs ...request.Request) { s.append(rs, s.keepLog) }

// AppendLiveOnly is Append for rows that executed on another shard: a replica
// copy of a cross-partition termination (it releases the transaction's locks
// in this shard and queues it for GC), or rows moved in by slot migration
// (the locks they hold now release on this shard). They are live history
// here, and the protocols see them via the change log, but they are kept out
// of the execution log: each request executed once, and merged per-shard
// logs must contain it exactly once.
func (s *History) AppendLiveOnly(rs ...request.Request) { s.append(rs, false) }

// append is Append, entering the rows in the execution log when logged is set.
func (s *History) append(rs []request.Request, logged bool) {
	for _, r := range rs {
		sl, ok := s.slotOf[r.TA]
		if !ok {
			sl = s.newSlot(r.TA)
			s.slotFinished = setSlot(s.slotFinished, sl, s.finished[r.TA])
		}
		if r.Op.IsTermination() {
			if !s.slotFinished[sl] {
				s.slotFinished[sl] = true
				s.finished[r.TA] = true
			}
			s.gcQueue = append(s.gcQueue, r.TA)
		} else if s.slotFinished[sl] {
			// Out-of-order arrival for an already finished transaction:
			// queue it so the next GC collects the late row.
			s.gcQueue = append(s.gcQueue, r.TA)
		}
		s.add(r, sl)
		if logged {
			s.log = append(s.log, r)
			s.logRound = append(s.logRound, s.round)
		}
	}
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
func (s *History) ExtractMatching(match func(obj int64) bool) []request.Request {
	taken := s.matching(match, s.slotFinished)
	for _, r := range taken {
		s.migrate(r)
	}
	return taken
}

// SetRound sets the round clock stamped onto subsequent log entries.
func (s *History) SetRound(round int) { s.round = round }

// Log returns the full execution log (nil unless keepLog).
func (s *History) Log() []request.Request { return s.log }

// LogRounds returns the per-entry round stamps of the execution log,
// parallel to Log.
func (s *History) LogRounds() []int { return s.logRound }

// Finished reports whether ta has terminated.
func (s *History) Finished(ta int64) bool { return s.finished[ta] }

// AppendWritesOf appends the objects of ta's executed writes to dst, one
// entry per write (rollback compensates each executed write exactly once),
// and returns the extended slice. O(|TA's rows|); it allocates only when
// dst must grow.
func (s *History) AppendWritesOf(dst []int64, ta int64) []int64 {
	sl, ok := s.slotOf[ta]
	if !ok {
		return dst
	}
	for _, pos := range s.slots[sl].rows {
		if r := &s.rows[pos]; r.Op == request.Write {
			dst = append(dst, r.Object)
		}
	}
	return dst
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
		if s.rows[pos].Op == request.Write {
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
			n += s.removeSlot(sl)
		}
	}
	s.gcQueue = s.gcQueue[:0]
	return n
}

// Deltas appends the change log accumulated since the last ResetDeltas call
// onto d. The slices alias the store's log buffers: they are valid until the
// next mutation after ResetDeltas. As in Pending.Deltas, each appended
// request is given its row, shared with the stored copy.
func (s *History) Deltas(d *protocol.Deltas) {
	d.HistoryAppended, d.HistoryRemoved = s.window()
}
