// Package store implements the scheduler's two request stores as indexed,
// delta-emitting data structures: the pending-request store (admitted but not
// yet executed requests, paper Figure 1's "pending requests" relation) and
// the history database (executed requests of unfinished transactions). Both
// keep their own change log in the shape the protocols consume
// (protocol.Deltas), so the scheduling engine no longer hand-maintains delta
// slices: every Admit/Remove/Append/GC is the event, and the accumulated log
// between two qualification calls *is* the round delta.
// A request gets its relational row (request.Request.WithRow) when a store
// first hands it to a protocol, in the window that logged its arrival; from
// then on the stores, their logs and the protocols all share that one row.
// A protocol that reads no rows (the imperative ones, FCFS) never causes
// one to be built.
//
// Both stores are a dense swap-remove slice of rows — the materialised
// relation handed to protocols (order unspecified; every protocol orders its
// own output) — plus a per-transaction slot table: one Go map from TA to a
// dense slot, where the slot lists the positions of the transaction's rows
// and carries its per-transaction state (the pending store's waiting-age
// clock, the history's finished flag). Every store operation is one TA
// lookup; a request key is found by scanning its transaction's positions,
// which are transaction-sized. Arrays beside the rows hold each row's slot
// and its entry in the current delta window's log, so cancelling an add
// against a remove in the same window is an O(1) fix-up. Both stores net
// their window the same way — a row added and removed within it is absent, a
// row migrated out and back in is present — so each window's two sides are
// disjoint (the protocol.Deltas contract). Freed slots are reused. The
// pending store's clock is the bookkeeping behind the scheduler's
// waiting-age starvation bound.
package store

import (
	"repro/internal/protocol"
	"repro/internal/request"
)

// Pending is the indexed pending-request store. Not safe for concurrent use;
// the scheduler serialises all store mutations on its round loop.
type Pending struct {
	// reqs is the dense backing slice: removal swaps the last element into
	// the hole, so admit and remove are O(1) and the slice is always a valid
	// materialisation of the store (in unspecified order). rowSlot and
	// rowAdded run beside it: each row's slot, and its index in the window's
	// PendingAdded log (-1 when it was admitted in an earlier window).
	reqs     []request.Request
	rowSlot  []int32
	rowAdded []int32

	slotOf map[int64]int32
	slots  []pendingSlot
	free   []int32

	deltas protocol.Deltas
	// addedRow is the position in reqs of each PendingAdded entry. A request
	// admitted and removed within one delta window (a victim drop in the
	// admission round) is net absent, so the removal cancels the addition in
	// place.
	addedRow []int32
	// removedAt is the mirror image for the opposite chronology, as in
	// History: slot migration can move a row out and back in (the slot
	// bounced between shards) within one window — net present — so the
	// re-admission cancels the removal in place. It maps request ID ->
	// position in PendingRemoved, and only ExtractMatching's removals enter
	// it.
	removedAt map[int64]int32
}

// pendingSlot is one transaction with pending requests. A slot is live while
// rows is non-empty; a freed slot keeps the capacity of its rows.
type pendingSlot struct {
	ta int64
	// since is the round at which the transaction last made progress (had a
	// request qualify) or was admitted — the waiting-age clock of the
	// starvation bound; -1 until the next observed round starts it.
	since int
	rows  []int32
}

// NewPending creates an empty store.
func NewPending() *Pending {
	return &Pending{slotOf: make(map[int64]int32), removedAt: make(map[int64]int32)}
}

// Len returns the number of pending requests.
func (p *Pending) Len() int { return len(p.reqs) }

// Live returns the dense backing slice (order unspecified). Callers must not
// mutate it, and must not retain it across store mutations.
func (p *Pending) Live() []request.Request { return p.reqs }

// Admit inserts requests, logging them as PendingAdded. Requests are keyed
// by (TA, IntraTA), and no admitted key may already be pending here: the
// middleware submits a key once (it refuses a changed duplicate of a live
// key and attaches a retransmission to the copy in flight).
func (p *Pending) Admit(rs ...request.Request) {
	for _, r := range rs {
		s, ok := p.slotOf[r.TA]
		if !ok {
			s = p.newSlot(r.TA)
		}
		pos := int32(len(p.reqs))
		p.reqs = append(p.reqs, r)
		p.rowSlot = append(p.rowSlot, s)
		p.rowAdded = append(p.rowAdded, -1)
		p.slots[s].rows = append(p.slots[s].rows, pos)
		p.logAdd(r, pos)
	}
}

// logAdd records the admission of r, stored at pos, in the change log. An
// admission of a request ExtractMatching removed within the same window
// cancels the removal instead (migration bounced the row out and back in —
// net present).
func (p *Pending) logAdd(r request.Request, pos int32) {
	if len(p.removedAt) > 0 {
		if at, ok := p.removedAt[r.ID]; ok {
			delete(p.removedAt, r.ID)
			p.deltas.PendingRemoved = cancelRemoval(p.deltas.PendingRemoved, at, p.removedAt)
			return
		}
	}
	p.rowAdded[pos] = int32(len(p.deltas.PendingAdded))
	p.deltas.PendingAdded = append(p.deltas.PendingAdded, r)
	p.addedRow = append(p.addedRow, pos)
}

// cancelRemoval deletes entry at of a window's removal log rm — swapping the
// last entry into the hole and repointing its removedAt position — and
// returns the shortened log.
func cancelRemoval(rm []request.Request, at int32, removedAt map[int64]int32) []request.Request {
	last := int32(len(rm) - 1)
	if at != last {
		moved := rm[last]
		rm[at] = moved
		if _, ok := removedAt[moved.ID]; ok {
			removedAt[moved.ID] = at
		}
	}
	rm[last] = request.Request{}
	return rm[:last]
}

// newSlot gives ta a slot, reusing a freed one when there is one.
func (p *Pending) newSlot(ta int64) int32 {
	var s int32
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = int32(len(p.slots))
		p.slots = append(p.slots, pendingSlot{})
	}
	sl := &p.slots[s]
	sl.ta, sl.since = ta, -1 // clock starts at the next observed round
	p.slotOf[ta] = s
	return s
}

// find returns the index in slot s's rows of the request numbered intra, or
// -1.
func (p *Pending) find(s int32, intra int64) int {
	for i, pos := range p.slots[s].rows {
		if p.reqs[pos].IntraTA == intra {
			return i
		}
	}
	return -1
}

// Remove deletes the request with key k, logging it as PendingRemoved. It
// reports whether the key was present.
func (p *Pending) Remove(k request.Key) bool {
	_, ok := p.Take(k)
	return ok
}

// Take is Remove that also returns the stored request: the scheduler restores
// a qualified row's fields the protocol's relation does not carry from the
// copy it removes.
func (p *Pending) Take(k request.Key) (request.Request, bool) {
	s, ok := p.slotOf[k.TA]
	if !ok {
		return request.Request{}, false
	}
	i := p.find(s, k.IntraTA)
	if i < 0 {
		return request.Request{}, false
	}
	r := p.reqs[p.slots[s].rows[i]]
	p.removeAt(s, i, false)
	return r, true
}

// RemoveTA deletes every pending request of transaction ta (the deadlock- and
// starvation-victim path), logging each as PendingRemoved. It returns how
// many were removed.
func (p *Pending) RemoveTA(ta int64) int {
	s, ok := p.slotOf[ta]
	if !ok {
		return 0
	}
	n := len(p.slots[s].rows)
	for i := n - 1; i >= 0; i-- {
		p.removeAt(s, i, false)
	}
	return n
}

// removeAt removes the row at index i of slot s's rows: it logs the removal
// (in removedAt too when migrated is set), releases the slot with its last
// row, and swap-compacts the dense slice.
func (p *Pending) removeAt(s int32, i int, migrated bool) {
	sl := &p.slots[s]
	pos := sl.rows[i]
	p.logRemoval(pos, migrated)
	last := len(sl.rows) - 1
	sl.rows[i] = sl.rows[last]
	sl.rows = sl.rows[:last]
	if last == 0 {
		delete(p.slotOf, sl.ta)
		p.free = append(p.free, s)
	}
	end := int32(len(p.reqs) - 1)
	if pos != end {
		p.reqs[pos] = p.reqs[end]
		p.rowSlot[pos] = p.rowSlot[end]
		p.rowAdded[pos] = p.rowAdded[end]
		if a := p.rowAdded[pos]; a >= 0 {
			p.addedRow[a] = pos
		}
		repoint(p.slots[p.rowSlot[pos]].rows, end, pos)
	}
	p.reqs[end] = request.Request{} // do not pin the removed request
	p.reqs = p.reqs[:end]
	p.rowSlot = p.rowSlot[:end]
	p.rowAdded = p.rowAdded[:end]
}

// logRemoval records the removal of the row at pos in the change log; a
// removal of a request added within the same window cancels the addition
// instead (net absent).
func (p *Pending) logRemoval(pos int32, migrated bool) {
	a := p.rowAdded[pos]
	if a < 0 {
		if migrated {
			p.removedAt[p.reqs[pos].ID] = int32(len(p.deltas.PendingRemoved))
		}
		p.deltas.PendingRemoved = append(p.deltas.PendingRemoved, p.reqs[pos])
		return
	}
	ad := p.deltas.PendingAdded
	last := int32(len(ad) - 1)
	if a != last {
		ad[a] = ad[last]
		p.addedRow[a] = p.addedRow[last]
		p.rowAdded[p.addedRow[a]] = a
	}
	ad[last] = request.Request{}
	p.deltas.PendingAdded = ad[:last]
	p.addedRow = p.addedRow[:last]
	p.rowAdded[pos] = -1
}

// repoint replaces position from with to in a slot's row list. Linear in the
// transaction's row count, which is bounded by transaction length.
func repoint(rows []int32, from, to int32) {
	for i, r := range rows {
		if r == from {
			rows[i] = to
			return
		}
	}
}

// ExtractMatching removes every pending request whose object satisfies match
// (terminations never match — they carry no object and are owned by the
// cross-partition sequencer), logging each as PendingRemoved, and hands each
// to visit together with its transaction's waiting-age clock at extraction
// time (-1 when the clock had not started). The slot-migration path: the
// removals feed this shard's protocol the exact remove-delta, and the caller
// re-admits the rows (with MergeClock) on the destination shard.
func (p *Pending) ExtractMatching(match func(obj int64) bool, visit func(r request.Request, since int)) int {
	var taken []request.Request
	for _, r := range p.reqs {
		if r.Op.IsTermination() || !match(r.Object) {
			continue
		}
		taken = append(taken, r)
	}
	for _, r := range taken {
		s := p.slotOf[r.TA]
		since := p.slots[s].since
		p.removeAt(s, p.find(s, r.IntraTA), true)
		visit(r, since)
	}
	return len(taken)
}

// MergeClock folds a migrated-in waiting-age clock into ta's: the oracle has
// one clock per transaction, the shards hold per-shard copies whose minimum
// matches it, so the destination takes the older (smaller) of the two. -1
// means "not started" and acts as +infinity. No-op when ta has no pending
// rows here.
func (p *Pending) MergeClock(ta int64, since int) {
	if since < 0 {
		return
	}
	s, ok := p.slotOf[ta]
	if !ok {
		return
	}
	if sl := &p.slots[s]; sl.since < 0 || since < sl.since {
		sl.since = since
	}
}

// ObserveRound advances the waiting-age clocks after a qualification:
// transactions that progressed this round (or whose clock had not started)
// restart their clock at round; the rest keep their first blocked round.
// progressed may be nil (nothing qualified).
func (p *Pending) ObserveRound(round int, progressed map[int64]bool) {
	for i := range p.slots {
		sl := &p.slots[i]
		if len(sl.rows) > 0 && (sl.since < 0 || progressed[sl.ta]) {
			sl.since = round
		}
	}
}

// OldestBlocked returns the transaction that has waited the longest without
// progress (smallest last-progress round, ties to the smallest TA) and the
// round its wait started. ok is false when nothing is waiting.
func (p *Pending) OldestBlocked() (ta int64, since int, ok bool) {
	for i := range p.slots {
		sl := &p.slots[i]
		if len(sl.rows) == 0 || sl.since < 0 {
			continue // free, or admitted this round (clock not started yet)
		}
		if !ok || sl.since < since || (sl.since == since && sl.ta < ta) {
			ta, since, ok = sl.ta, sl.since, true
		}
	}
	return ta, since, ok
}

// Deltas returns the change log accumulated since the last ResetDeltas call,
// appended onto d. The returned slices alias the store's log buffers: they
// are valid until the next mutation after ResetDeltas. Each request the
// window added is given its row here, and the stored copy shares it, so
// the window's removals and every later copy carry it too.
func (p *Pending) Deltas(d *protocol.Deltas) {
	withRows(p.deltas.PendingAdded, p.addedRow, p.reqs)
	d.PendingAdded = p.deltas.PendingAdded
	d.PendingRemoved = p.deltas.PendingRemoved
}

// withRows gives each logged request its row (request.Request.WithRow) and
// the stored copy at rows[at[i]] the same one.
func withRows(logged []request.Request, at []int32, rows []request.Request) {
	for i, pos := range at {
		r := logged[i].WithRow()
		logged[i], rows[pos] = r, r
	}
}

// ResetDeltas starts a new change-log window, reusing the log buffers. Only
// the rows this window logged are touched.
func (p *Pending) ResetDeltas() {
	for _, pos := range p.addedRow {
		p.rowAdded[pos] = -1
	}
	p.addedRow = p.addedRow[:0]
	p.deltas.PendingAdded = p.deltas.PendingAdded[:0]
	p.deltas.PendingRemoved = p.deltas.PendingRemoved[:0]
	if len(p.removedAt) > 0 {
		clear(p.removedAt)
	}
}
