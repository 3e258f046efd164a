package relation

// Bag is a counted multiset of tuples with incrementally maintained
// multi-column equality indexes: the set-backed materialization behind the
// SQL executor's delta-maintained views. Where Relation stores a flat row
// slice (and must drop its EqIndex cache on any interior delete), a Bag
// stores one cell per distinct tuple with a count, so single-copy inserts
// and removals are O(1) per attached index — exactly the shape incremental
// view maintenance needs: per-round deltas patch the standing views and the
// join/anti-join probes of the delta rules hit the maintained key indexes
// instead of rebuilding per round.
//
// A Bag is not safe for concurrent mutation; reads (Count, Index probes) are
// safe once mutation has stopped, mirroring Relation's contract.
type Bag struct {
	schema  *Schema
	cells   map[uint64][]*BagCell // full-tuple hash -> distinct tuples
	indexes map[string]*BagIndex  // maskKey(cols) -> maintained index
	total   int                   // total copies across all cells
	ncells  int                   // distinct tuples
	// free recycles removed cells: a steady-state churn round (remove a
	// batch, add a batch) allocates no cells at all. Its length is capped
	// from the observed per-round churn history (see trimFree), so a one-off
	// burst round does not leave an oversized freelist pinned forever.
	free []*BagCell
	// churn is a ring of cells freed per bulk round; churnAt is the next
	// write position and freedIn counts frees in the current window.
	churn   [bagChurnWindow]int
	churnAt int
	freedIn int
	// Batch state (BeginBulk/EndBulk): index maintenance is deferred to one
	// pass over the cells whose membership actually changed.
	bulk    bool
	touched []*BagCell
}

// bagChurnWindow is how many recent rounds of churn size the freelist: the
// cap tracks the workload's recent high-water mark, so steady-state rounds
// recycle every cell while a burst's surplus is released within a window.
const bagChurnWindow = 8

// BagCell is one distinct tuple of a Bag together with its current count.
// Cells are shared with the bag's indexes; callers must not mutate them.
type BagCell struct {
	tuple Tuple
	n     int
	// mark is the cell's batch state under BeginBulk: 0 untouched this
	// batch, 1 was present at batch start, 2 was absent (created or
	// resurrected during the batch).
	mark uint8
}

// Tuple returns the cell's tuple. The caller must not mutate it.
func (c *BagCell) Tuple() Tuple { return c.tuple }

// Count returns the cell's current multiplicity. It is 0 for a cell that has
// been removed from its bag while a caller still holds it.
func (c *BagCell) Count() int { return c.n }

// NewBag creates an empty bag over the given schema.
func NewBag(schema *Schema) *Bag {
	return &Bag{
		schema:  schema,
		cells:   make(map[uint64][]*BagCell),
		indexes: make(map[string]*BagIndex),
	}
}

// BagOf builds a bag holding every row of r (bag semantics: duplicates
// accumulate counts).
func BagOf(r *Relation) *Bag {
	b := NewBag(r.Schema())
	for _, t := range r.Rows() {
		b.Add(t, 1)
	}
	return b
}

// Schema returns the bag's schema.
func (b *Bag) Schema() *Schema { return b.schema }

// Len returns the total number of copies held (bag cardinality).
func (b *Bag) Len() int { return b.total }

// DistinctLen returns the number of distinct tuples held.
func (b *Bag) DistinctLen() int { return b.ncells }

// MapKeys returns the key count of the bag's largest hash map — the cell map
// or any attached index. It never exceeds DistinctLen: the maps hold what the
// bag holds, however many tuples have passed through it.
func (b *Bag) MapKeys() int {
	n := len(b.cells)
	for _, ix := range b.indexes {
		n = max(n, len(ix.buckets))
	}
	return n
}

// Count returns t's current multiplicity.
func (b *Bag) Count(t Tuple) int {
	for _, c := range b.cells[t.Hash()] {
		if c.tuple.Equal(t) {
			return c.n
		}
	}
	return 0
}

// newCell takes a cell from the freelist or allocates one.
func (b *Bag) newCell(t Tuple, k int) *BagCell {
	if n := len(b.free); n > 0 {
		c := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		c.tuple, c.n, c.mark = t, k, 0
		return c
	}
	return &BagCell{tuple: t, n: k}
}

// freeCell returns a removed cell to the freelist. The tuple reference is
// dropped so recycled cells do not keep dead rows alive.
func (b *Bag) freeCell(c *BagCell) {
	c.tuple, c.n, c.mark = nil, 0, 0
	b.free = append(b.free, c)
	b.freedIn++
}

// trimFree closes a churn window: the frees observed since the last call
// are recorded in the ring, and the freelist is truncated to the recent
// high-water churn plus slack. Dropped cells are unreferenced so the GC can
// take them.
func (b *Bag) trimFree() {
	b.churn[b.churnAt] = b.freedIn
	b.churnAt = (b.churnAt + 1) % bagChurnWindow
	b.freedIn = 0
	max := 0
	for _, n := range b.churn {
		if n > max {
			max = n
		}
	}
	limit := max + max/4 + 4
	if len(b.free) <= limit {
		return
	}
	for i := limit; i < len(b.free); i++ {
		b.free[i] = nil
	}
	b.free = b.free[:limit]
}

// touch records a cell's membership at batch start, once per batch.
func (b *Bag) touch(c *BagCell) {
	if c.mark != 0 {
		return
	}
	if c.n > 0 {
		c.mark = 1
	} else {
		c.mark = 2
	}
	b.touched = append(b.touched, c)
}

// Add inserts k copies of t (k > 0) and returns the new count. A tuple going
// 0 -> present is linked into every attached index (deferred to EndBulk
// inside a bulk batch).
func (b *Bag) Add(t Tuple, k int) int {
	h := t.Hash()
	for _, c := range b.cells[h] {
		if c.tuple.Equal(t) {
			if b.bulk {
				b.touch(c)
				if c.n == 0 {
					b.ncells++ // resurrected within the batch
				}
			}
			c.n += k
			b.total += k
			return c.n
		}
	}
	c := b.newCell(t, k)
	b.cells[h] = append(b.cells[h], c)
	b.total += k
	b.ncells++
	if b.bulk {
		c.mark = 2
		b.touched = append(b.touched, c)
		return c.n
	}
	for _, ix := range b.indexes {
		ix.link(c)
	}
	return c.n
}

// Remove deletes k copies of t, returning the new count; ok is false (and the
// bag unchanged) when fewer than k copies are present — the caller's delta
// has diverged from the bag's ground truth. A tuple going present -> 0 is
// unlinked from every attached index (deferred to EndBulk inside a bulk
// batch, so a same-batch re-add finds the cell again).
func (b *Bag) Remove(t Tuple, k int) (int, bool) {
	h := t.Hash()
	bucket := b.cells[h]
	for i, c := range bucket {
		if !c.tuple.Equal(t) {
			continue
		}
		if c.n < k {
			return c.n, false
		}
		if b.bulk {
			b.touch(c)
			c.n -= k
			b.total -= k
			if c.n == 0 {
				b.ncells--
			}
			return c.n, true
		}
		c.n -= k
		b.total -= k
		if c.n == 0 {
			swapRemoveCell(b.cells, h, bucket, i)
			b.ncells--
			for _, ix := range b.indexes {
				ix.unlink(c)
			}
			b.freeCell(c)
			return 0, true
		}
		return c.n, true
	}
	return 0, false
}

// BeginBulk starts a batched mutation: Add and Remove adjust counts only,
// and the index maintenance that normally runs per mutation is deferred to
// one EndBulk pass over the cells whose membership actually changed — a
// tuple removed and re-added within the batch touches no index at all.
// Reads (Count) stay exact throughout; iteration (Each/EachCell/Relation)
// and index probes must wait for EndBulk. Batches do not nest.
func (b *Bag) BeginBulk() { b.bulk = true }

// EndBulk resolves the batch: cells that ended absent are dropped from the
// bag and unlinked from every index (skipping cells that were also created
// within the batch and were never linked), and cells that ended present but
// started absent are linked.
func (b *Bag) EndBulk() {
	for i, c := range b.touched {
		b.touched[i] = nil
		was := c.mark == 1
		now := c.n > 0
		c.mark = 0
		switch {
		case was && !now:
			b.dropCell(c)
			for _, ix := range b.indexes {
				ix.unlink(c)
			}
			b.freeCell(c)
		case !was && !now:
			b.dropCell(c) // created then removed within the batch: never linked
			b.freeCell(c)
		case !was && now:
			for _, ix := range b.indexes {
				ix.link(c)
			}
		}
	}
	b.touched = b.touched[:0]
	b.bulk = false
	b.trimFree()
}

// dropCell removes a cell from the hash map (the cell's count bookkeeping
// has already happened).
func (b *Bag) dropCell(c *BagCell) {
	h := c.tuple.Hash()
	bucket := b.cells[h]
	for i, cc := range bucket {
		if cc == c {
			swapRemoveCell(b.cells, h, bucket, i)
			return
		}
	}
}

// swapRemoveCell removes bucket[i], bucket being m[h], by swapping in the
// bucket's last cell. The vacated tail slot is cleared so the backing array
// does not pin the cell, and the key is deleted when the bucket empties:
// tuple hashes are effectively unique per tuple, so a map that kept emptied
// buckets would grow with every tuple ever held and every iteration would pay
// for all of them.
func swapRemoveCell(m map[uint64][]*BagCell, h uint64, bucket []*BagCell, i int) {
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	bucket[last] = nil
	if last == 0 {
		delete(m, h)
	} else {
		m[h] = bucket[:last]
	}
}

// Each calls fn for every distinct tuple with its count, in unspecified
// order. fn must not mutate the bag.
func (b *Bag) Each(fn func(t Tuple, n int)) {
	for _, bucket := range b.cells {
		for _, c := range bucket {
			fn(c.tuple, c.n)
		}
	}
}

// EachCell calls fn for every cell, in unspecified order. fn must not mutate
// the bag.
func (b *Bag) EachCell(fn func(c *BagCell)) {
	for _, bucket := range b.cells {
		for _, c := range bucket {
			fn(c)
		}
	}
}

// Relation flattens the bag into a fresh relation (each distinct tuple
// appears count times; order is unspecified).
func (b *Bag) Relation() *Relation {
	out := New(b.schema)
	out.rows = make([]Tuple, 0, b.total)
	b.Each(func(t Tuple, n int) {
		for i := 0; i < n; i++ {
			out.rows = append(out.rows, t)
		}
	})
	return out
}

// Index returns the maintained equality index over cols, building it from
// the current cells on first use. The index stays valid across Add/Remove —
// maintenance is O(1) per mutation (plus bucket scans on unlink) — which is
// the point: delta-rule probes never pay a rebuild. Tuples with a NULL in
// any indexed column are excluded (equi-join semantics).
func (b *Bag) Index(cols []int) *BagIndex {
	return b.index(cols, false)
}

// IndexNullable is Index with NULL treated as an ordinary key value (hashed
// like any other), for grouping keys — SQL GROUP BY puts NULLs in one group.
func (b *Bag) IndexNullable(cols []int) *BagIndex {
	return b.index(cols, true)
}

func (b *Bag) index(cols []int, nullable bool) *BagIndex {
	k := maskKey(cols)
	if nullable {
		k = "n" + k
	}
	ix := b.indexes[k]
	if ix == nil {
		ix = &BagIndex{
			cols:     append([]int(nil), cols...),
			nullable: nullable,
			buckets:  make(map[uint64][]*BagCell, b.ncells),
		}
		for _, bucket := range b.cells {
			for _, c := range bucket {
				ix.link(c)
			}
		}
		b.indexes[k] = ix
	}
	return ix
}

// BagIndex is a multi-column equality index over a Bag's cells: distinct
// tuples bucketed by the uint64 hash of the indexed columns, with equality
// verification left to the caller. Tuples with a NULL in any indexed column
// are not indexed — NULL never matches in an equi-join (ra.keyHasNull), so
// excluding them keeps probes exact.
type BagIndex struct {
	cols     []int
	nullable bool
	buckets  map[uint64][]*BagCell
}

// Cols returns the indexed column positions. Callers must not mutate it.
func (ix *BagIndex) Cols() []int { return ix.cols }

// keyHash hashes t's indexed columns; ok is false when any is NULL and the
// index is not nullable.
func (ix *BagIndex) keyHash(t Tuple) (uint64, bool) {
	if !ix.nullable {
		for _, c := range ix.cols {
			if t[c].IsNull() {
				return 0, false
			}
		}
	}
	return t.HashCols(ix.cols), true
}

func (ix *BagIndex) link(c *BagCell) {
	if h, ok := ix.keyHash(c.tuple); ok {
		ix.buckets[h] = append(ix.buckets[h], c)
	}
}

func (ix *BagIndex) unlink(c *BagCell) {
	h, ok := ix.keyHash(c.tuple)
	if !ok {
		return
	}
	bucket := ix.buckets[h]
	for i, cc := range bucket {
		if cc == c {
			swapRemoveCell(ix.buckets, h, bucket, i)
			return
		}
	}
}

// CandidatesHash returns the cells bucketed under a precomputed key hash
// (Tuple.HashCols over the probe side's key columns agrees with the
// bucketing by construction). Collisions are possible: callers must verify
// the column values. The returned slice is owned by the index; callers must
// not mutate it and must finish with it before the bag is mutated again.
func (ix *BagIndex) CandidatesHash(h uint64) []*BagCell {
	return ix.buckets[h]
}
