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
// Both stores are one table (table.go) with their own per-transaction state
// beside it. The table is a dense swap-remove slice of rows — the
// materialised relation handed to protocols (order unspecified; every
// protocol orders its own output) — plus a per-transaction slot table: one Go
// map from TA to a dense slot, where the slot lists the positions of the
// transaction's rows. Every store operation is one TA lookup; a request key is
// found by scanning its transaction's positions, which are transaction-sized.
// Arrays beside the rows hold each row's slot and its entry in the current
// delta window's log, so cancelling an add against a remove in the same
// window is an O(1) fix-up. The table nets each window — a row added and
// removed within it is absent, a row migrated out and back in is present — so
// each window's two sides are disjoint (the protocol.Deltas contract). Freed
// slots are reused. Each store keeps its per-transaction state in a slice
// indexed by slot: the pending store's waiting-age clock, the bookkeeping
// behind the scheduler's waiting-age starvation bound, and the history's
// finished flag.
package store

import (
	"repro/internal/protocol"
	"repro/internal/request"
)

// Pending is the indexed pending-request store. Not safe for concurrent use;
// the scheduler serialises all store mutations on its round loop.
type Pending struct {
	table
	// since is each slot's waiting-age clock: the round at which the
	// transaction last made progress (had a request qualify) or was admitted;
	// -1 until the next observed round starts it.
	since []int
}

// NewPending creates an empty store.
func NewPending() *Pending { return &Pending{table: newTable()} }

// Admit inserts requests, logging them as PendingAdded. Requests are keyed
// by (TA, IntraTA), and no admitted key may already be pending here: the
// middleware submits a key once (it refuses a changed duplicate of a live
// key and attaches a retransmission to the copy in flight).
func (p *Pending) Admit(rs ...request.Request) {
	for _, r := range rs {
		s, ok := p.slotOf[r.TA]
		if !ok {
			s = p.newSlot(r.TA)
			p.since = setSlot(p.since, s, -1) // clock starts at the next observed round
		}
		p.add(r, s)
	}
}

// find returns the index in slot s's rows of the request numbered intra, or
// -1.
func (p *Pending) find(s int32, intra int64) int {
	for i, pos := range p.slots[s].rows {
		if p.rows[pos].IntraTA == intra {
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
	r := p.rows[p.slots[s].rows[i]]
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
	return p.removeSlot(s)
}

// ExtractMatching removes every pending request whose object satisfies match
// (terminations never match — they carry no object and are owned by the
// cross-partition sequencer), logging each as PendingRemoved, and hands each
// to visit together with its transaction's waiting-age clock at extraction
// time (-1 when the clock had not started). The slot-migration path: the
// removals feed this shard's protocol the exact remove-delta, and the caller
// re-admits the rows (with MergeClock) on the destination shard.
func (p *Pending) ExtractMatching(match func(obj int64) bool, visit func(r request.Request, since int)) int {
	taken := p.matching(match, nil)
	for _, r := range taken {
		since := p.since[p.slotOf[r.TA]]
		p.migrate(r)
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
	if c := &p.since[s]; *c < 0 || since < *c {
		*c = since
	}
}

// ObserveRound advances the waiting-age clocks after a qualification:
// transactions that progressed this round (or whose clock had not started)
// restart their clock at round; the rest keep their first blocked round.
// progressed may be nil (nothing qualified).
func (p *Pending) ObserveRound(round int, progressed map[int64]bool) {
	for s, sl := range p.slots {
		if len(sl.rows) > 0 && (p.since[s] < 0 || progressed[sl.ta]) {
			p.since[s] = round
		}
	}
}

// OldestBlocked returns the transaction that has waited the longest without
// progress (smallest last-progress round, ties to the smallest TA) and the
// round its wait started. ok is false when nothing is waiting.
func (p *Pending) OldestBlocked() (ta int64, since int, ok bool) {
	for s, sl := range p.slots {
		c := p.since[s]
		if len(sl.rows) == 0 || c < 0 {
			continue // free, or admitted this round (clock not started yet)
		}
		if !ok || c < since || (c == since && sl.ta < ta) {
			ta, since, ok = sl.ta, c, true
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
	d.PendingAdded, d.PendingRemoved = p.window()
}
