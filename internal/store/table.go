package store

import "repro/internal/request"

// table is the row structure under both stores: a dense swap-remove slice of
// rows, a per-transaction slot table addressing them, and the change log of
// the current delta window with its netting. The stores embed it and keep
// their per-slot state (the pending store's waiting-age clock, the history's
// finished flag) in slices indexed by slot beside it.
type table struct {
	// rows is the dense backing slice: removal swaps the last element into
	// the hole, so adding and removing are O(1) and the slice is always a
	// valid materialisation of the store (in unspecified order). rowSlot and
	// rowAdded run beside it: each row's slot, and its index in the window's
	// added log (-1 when it was added in an earlier window).
	rows     []request.Request
	rowSlot  []int32
	rowAdded []int32

	slotOf map[int64]int32
	slots  []slot
	free   []int32

	// added and removed are the window's change log.
	added, removed []request.Request
	// addedRow is the position in rows of each added entry. A row added and
	// removed within one window (a victim dropped in its admission round, a
	// transaction that executes and commits within one round) is net absent,
	// so the removal cancels the addition in place and the protocols never
	// see the no-op pair.
	addedRow []int32
	// removedAt is the mirror image for the opposite chronology: slot
	// migration can move a row out and back in (the slot bounced between
	// shards) within one window — net present — so the re-add cancels the
	// removal in place. Left uncancelled, the pair reads as net absent to the
	// protocols (their incremental engines apply inserts before deletes),
	// silently dropping a live lock row. It maps request ID -> position in
	// removed, and only migrations enter it: no other removal is re-added.
	// Request IDs are the paper's globally unique consecutive request numbers.
	removedAt map[int64]int32
}

// slot is one transaction with rows in the table. A slot is live while rows
// is non-empty; a freed slot keeps the capacity of its rows.
type slot struct {
	ta   int64
	rows []int32
}

// newTable returns an empty table.
func newTable() table {
	return table{slotOf: make(map[int64]int32), removedAt: make(map[int64]int32)}
}

// Len returns the number of rows.
func (t *table) Len() int { return len(t.rows) }

// Live returns the dense row slice (order unspecified). Callers must not
// mutate it, and must not retain it across store mutations.
func (t *table) Live() []request.Request { return t.rows }

// newSlot gives ta a slot, reusing a freed one when there is one.
func (t *table) newSlot(ta int64) int32 {
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = int32(len(t.slots))
		t.slots = append(t.slots, slot{})
	}
	t.slots[s].ta = ta
	t.slotOf[ta] = s
	return s
}

// setSlot sets a store's per-slot state of slot s to v, growing xs when s is
// a slot newSlot has just created.
func setSlot[T any](xs []T, s int32, v T) []T {
	if int(s) == len(xs) {
		return append(xs, v)
	}
	xs[s] = v
	return xs
}

// add stores r as a row of slot s and logs its addition. The addition of a
// request migrated out within the same window cancels the removal instead
// (the row bounced out and back in — net present).
func (t *table) add(r request.Request, s int32) {
	pos := int32(len(t.rows))
	t.rows = append(t.rows, r)
	t.rowSlot = append(t.rowSlot, s)
	t.rowAdded = append(t.rowAdded, -1)
	t.slots[s].rows = append(t.slots[s].rows, pos)
	if len(t.removedAt) > 0 {
		if at, ok := t.removedAt[r.ID]; ok {
			delete(t.removedAt, r.ID)
			last := int32(len(t.removed) - 1)
			if at != last {
				moved := t.removed[last]
				t.removed[at] = moved
				if _, ok := t.removedAt[moved.ID]; ok {
					t.removedAt[moved.ID] = at
				}
			}
			t.removed[last] = request.Request{}
			t.removed = t.removed[:last]
			return
		}
	}
	t.rowAdded[pos] = int32(len(t.added))
	t.added = append(t.added, r)
	t.addedRow = append(t.addedRow, pos)
}

// removeAt removes the row at index i of slot s's rows: it logs the removal
// (in removedAt too when migrated is set), releases the slot with its last
// row, and swap-compacts the dense slice.
func (t *table) removeAt(s int32, i int, migrated bool) {
	sl := &t.slots[s]
	pos := sl.rows[i]
	t.logRemoval(pos, migrated)
	last := len(sl.rows) - 1
	sl.rows[i] = sl.rows[last]
	sl.rows = sl.rows[:last]
	if last == 0 {
		delete(t.slotOf, sl.ta)
		t.free = append(t.free, s)
	}
	end := int32(len(t.rows) - 1)
	if pos != end {
		t.rows[pos] = t.rows[end]
		t.rowSlot[pos] = t.rowSlot[end]
		t.rowAdded[pos] = t.rowAdded[end]
		if a := t.rowAdded[pos]; a >= 0 {
			t.addedRow[a] = pos
		}
		repoint(t.slots[t.rowSlot[pos]].rows, end, pos)
	}
	t.rows[end] = request.Request{} // do not pin the removed request
	t.rows = t.rows[:end]
	t.rowSlot = t.rowSlot[:end]
	t.rowAdded = t.rowAdded[:end]
}

// logRemoval records the removal of the row at pos in the change log; a
// removal of a row added within the same window cancels the addition instead
// (net absent).
func (t *table) logRemoval(pos int32, migrated bool) {
	a := t.rowAdded[pos]
	if a < 0 {
		if migrated {
			t.removedAt[t.rows[pos].ID] = int32(len(t.removed))
		}
		t.removed = append(t.removed, t.rows[pos])
		return
	}
	last := int32(len(t.added) - 1)
	if a != last {
		t.added[a] = t.added[last]
		t.addedRow[a] = t.addedRow[last]
		t.rowAdded[t.addedRow[a]] = a
	}
	t.added[last] = request.Request{}
	t.added = t.added[:last]
	t.addedRow = t.addedRow[:last]
	t.rowAdded[pos] = -1
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

// removeSlot removes every row of slot s, releasing the slot, and returns how
// many were removed. It takes the slot's last index each time, so the slot's
// remaining rows are the ones a swap repoints.
func (t *table) removeSlot(s int32) int {
	n := len(t.slots[s].rows)
	for i := n - 1; i >= 0; i-- {
		t.removeAt(s, i, false)
	}
	return n
}

// matching returns the rows whose object satisfies match: the rows a
// migration moves. Terminations never match (they carry no object), nor do
// the rows of a slot marked in pinned (nil marks none).
func (t *table) matching(match func(obj int64) bool, pinned []bool) []request.Request {
	var taken []request.Request
	for i, r := range t.rows {
		if r.Op.IsTermination() || (pinned != nil && pinned[t.rowSlot[i]]) || !match(r.Object) {
			continue
		}
		taken = append(taken, r)
	}
	return taken
}

// migrate removes r's row, logging the removal in removedAt so that a
// same-window re-add cancels it.
func (t *table) migrate(r request.Request) {
	s := t.slotOf[r.TA]
	for i, pos := range t.slots[s].rows {
		if t.rows[pos].ID == r.ID {
			t.removeAt(s, i, true)
			return
		}
	}
}

// window returns the change log accumulated since the last ResetDeltas call.
// The slices alias the log buffers: they are valid until the next mutation
// after ResetDeltas. Each request the window added is given its row here
// (request.Request.WithRow), and the stored copy shares it, so the window's
// removals and every later copy carry it too.
func (t *table) window() (added, removed []request.Request) {
	for i, pos := range t.addedRow {
		r := t.added[i].WithRow()
		t.added[i], t.rows[pos] = r, r
	}
	return t.added, t.removed
}

// ResetDeltas starts a new change-log window, reusing the log buffers. Only
// the rows this window logged are touched.
func (t *table) ResetDeltas() {
	for _, pos := range t.addedRow {
		t.rowAdded[pos] = -1
	}
	t.addedRow = t.addedRow[:0]
	t.added = t.added[:0]
	t.removed = t.removed[:0]
	if len(t.removedAt) > 0 {
		clear(t.removedAt)
	}
}
