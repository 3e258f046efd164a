package relation

import "slices"

// Bag is a counted multiset of tuples with incrementally maintained
// multi-column equality indexes: the set-backed materialization behind the
// SQL executor's delta-maintained views. Where a Relation is an append-only
// row slice, a Bag keeps each distinct tuple once with a count, so inserts
// and removals are O(1) per attached index — exactly the shape incremental
// view maintenance needs: per-round deltas patch the standing views and the
// join/anti-join probes of the delta rules hit the maintained key indexes
// instead of rebuilding per round. Relation.Distinct and Equal use a Bag as
// their hash table too, and the Datalog engine keeps every predicate's facts
// in one, each at count 1.
//
// Distinct tuples sit dense at positions 0..DistinctLen()-1 beside their
// counts and cached full-tuple hashes, a membership Chain files them by that
// hash and one Chain per index by the key hash; a tuple whose count reaches
// zero leaves every chain and the last position is swap-moved into its hole.
// The chains double when the tuple count reaches their bucket count and
// halve when it drops below a quarter of it, so a bag's footprint follows
// what it holds, not the burst it once held: Buckets() ≤ 4·DistinctLen() +
// MinBuckets. Reset and Reserve are the exceptions, for a bag that is
// emptied and re-filled every round: they keep (or set) a bucket count for
// the next fill, and the bound then holds over that count.
//
// A Bag keeps the instance of each tuple that made it present and never
// mutates it; a caller whose tuples live in reused storage (a Region) copies
// one before it enters, and may keep the bag's instance (At) instead of its
// own. Find, AddAt, AddNew and RemoveAt split Add and Remove at that point.
//
// A Bag is not safe for concurrent mutation; reads (counts, index probes) are
// safe once mutation has stopped, mirroring Relation's contract. Positions
// are valid until the next mutation.
type Bag struct {
	schema  *Schema
	tuples  []Tuple
	counts  []int
	hashes  []uint64 // full-tuple hash per position
	member  Chain
	indexes []*BagIndex
	total   int // total copies across all tuples
}

// NewBag creates an empty bag over the given schema.
func NewBag(schema *Schema) *Bag {
	return &Bag{schema: schema, member: NewChain()}
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

// DistinctLen returns the number of distinct tuples held: positions
// 0..DistinctLen()-1.
func (b *Bag) DistinctLen() int { return len(b.tuples) }

// Buckets returns the bucket count every chain of the bag shares — its
// footprint beyond the tuples themselves, at most 4·DistinctLen() +
// MinBuckets however many tuples have passed through it.
func (b *Bag) Buckets() int { return b.member.Buckets() }

// Tuples returns the distinct tuples in position order. The slice is the
// bag's own and the caller must not mutate it. A range over it may go on
// while tuples are added, and sees none of them; a removal or a Reset moves
// or drops the tuples it holds.
func (b *Bag) Tuples() []Tuple { return b.tuples }

// At returns the tuple at position p. The caller must not mutate it.
func (b *Bag) At(p int32) Tuple { return b.tuples[p] }

// CountAt returns the multiplicity of the tuple at position p.
func (b *Bag) CountAt(p int32) int { return b.counts[p] }

// HashAt returns the full-tuple hash (Tuple.Hash) of the tuple at position p.
func (b *Bag) HashAt(p int32) uint64 { return b.hashes[p] }

// Find returns the position of t, whose hash is h = t.Hash(), or -1. Only a
// removal moves a position, so a bag that is only added to numbers its
// distinct tuples in first-insertion order.
func (b *Bag) Find(t Tuple, h uint64) int32 {
	for p := b.member.First(h); p >= 0; p = b.member.Next(p) {
		if b.hashes[p] == h && b.tuples[p].Equal(t) {
			return p
		}
	}
	return -1
}

// Count returns t's current multiplicity.
func (b *Bag) Count(t Tuple) int { return b.CountHash(t, t.Hash()) }

// CountHash is Count for a caller that already holds h = t.Hash().
func (b *Bag) CountHash(t Tuple, h uint64) int {
	if p := b.Find(t, h); p >= 0 {
		return b.counts[p]
	}
	return 0
}

// Add inserts k copies of t (k > 0) and returns the new count.
func (b *Bag) Add(t Tuple, k int) int { return b.AddHash(t, t.Hash(), k) }

// AddHash is Add for a caller that already holds h = t.Hash().
func (b *Bag) AddHash(t Tuple, h uint64, k int) int {
	if p := b.Find(t, h); p >= 0 {
		return b.AddAt(p, k)
	}
	b.AddNew(t, h, k)
	return k
}

// AddAt adds k copies (k > 0) of the tuple at position p and returns its new
// count.
func (b *Bag) AddAt(p int32, k int) int {
	b.total += k
	b.counts[p] += k
	return b.counts[p]
}

// AddNew inserts k copies (k > 0) of t, whose hash is h, which the bag does
// not hold (Find returned -1): t takes the next position, is filed in every
// chain, and is the instance the bag keeps.
func (b *Bag) AddNew(t Tuple, h uint64, k int) {
	b.total += k
	if len(b.tuples) == b.member.Buckets() {
		b.member.Grow(func(p int32) uint64 { return b.hashes[p] })
		for _, ix := range b.indexes {
			ix.chain.Grow(func(p int32) uint64 { return b.tuples[p].HashCols(ix.cols) })
		}
	}
	b.tuples = append(b.tuples, t)
	b.counts = append(b.counts, k)
	b.hashes = append(b.hashes, h)
	b.member.Link(h)
	for _, ix := range b.indexes {
		ix.file(t)
	}
}

// Remove deletes k copies of t, returning the new count; ok is false (and the
// bag unchanged) when fewer than k copies are present — the caller's delta
// has diverged from the bag's ground truth.
func (b *Bag) Remove(t Tuple, k int) (int, bool) { return b.RemoveHash(t, t.Hash(), k) }

// RemoveHash is Remove for a caller that already holds h = t.Hash().
func (b *Bag) RemoveHash(t Tuple, h uint64, k int) (int, bool) {
	p := b.Find(t, h)
	if p < 0 {
		return 0, false
	}
	return b.RemoveAt(p, k)
}

// RemoveAt is Remove of the tuple at position p. A tuple going present -> 0
// leaves every chain, the last position moves into its hole, and the chains
// halve once the bag holds under a quarter of their buckets.
func (b *Bag) RemoveAt(p int32, k int) (int, bool) {
	if b.counts[p] < k {
		return b.counts[p], false
	}
	b.total -= k
	if b.counts[p] -= k; b.counts[p] > 0 {
		return b.counts[p], true
	}
	b.member.Drop(p)
	for _, ix := range b.indexes {
		ix.chain.Drop(p)
	}
	last := len(b.tuples) - 1
	b.tuples[p], b.counts[p], b.hashes[p] = b.tuples[last], b.counts[last], b.hashes[last]
	b.tuples[last] = nil
	b.tuples, b.counts, b.hashes = b.tuples[:last], b.counts[:last], b.hashes[:last]
	if nb := b.member.Buckets(); last < nb/4 && nb > MinBuckets {
		b.member.Shrink()
		for _, ix := range b.indexes {
			ix.chain.Shrink()
		}
		nb /= 2
		b.tuples, b.counts, b.hashes = resized(b.tuples, nb), resized(b.counts, nb), resized(b.hashes, nb)
	}
	return 0, true
}

// Reset empties the bag, keeping its capacity, its bucket count and its
// indexes, so re-filling it to its former size allocates nothing. It drops
// the tuple references, so a reset bag keeps no dead rows alive.
func (b *Bag) Reset() {
	clear(b.tuples)
	b.tuples, b.counts, b.hashes = b.tuples[:0], b.counts[:0], b.hashes[:0]
	b.total = 0
	b.member.Reset()
	for _, ix := range b.indexes {
		ix.chain.Reset()
	}
}

// Reserve sizes an empty bag for n distinct tuples — its tuple, count and
// hash slices, and every chain's buckets and links — so filling it grows
// none of them. A bag that holds tuples is left as it is.
func (b *Bag) Reserve(n int) {
	if len(b.tuples) > 0 {
		return
	}
	b.tuples, b.counts, b.hashes = slices.Grow(b.tuples, n), slices.Grow(b.counts, n), slices.Grow(b.hashes, n)
	b.member.Reserve(n)
	b.member.ReserveLinks(n)
	for _, ix := range b.indexes {
		ix.chain.Reserve(n)
		ix.chain.ReserveLinks(n)
	}
}

// Each calls fn for every distinct tuple with its count, in position order.
// fn must not mutate the bag.
func (b *Bag) Each(fn func(t Tuple, n int)) {
	for p, t := range b.tuples {
		fn(t, b.counts[p])
	}
}

// Relation flattens the bag into a fresh relation (each distinct tuple
// appears count times, in position order).
func (b *Bag) Relation() *Relation {
	out := New(b.schema)
	out.rows = make([]Tuple, 0, b.total)
	for p, t := range b.tuples {
		for range b.counts[p] {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// Index returns the maintained equality index over cols, building it from
// the current tuples on first use. The index stays valid across Add/Remove —
// maintenance is O(1) per mutation — which is the point: delta-rule probes
// never pay a rebuild. Tuples with a NULL in any indexed column are filed
// nowhere (equi-join semantics: NULL never matches).
func (b *Bag) Index(cols []int) *BagIndex { return b.index(cols, false) }

// IndexNullable is Index with NULL treated as an ordinary key value (hashed
// like any other), for Datalog's rule steps, which unify NULL with NULL.
func (b *Bag) IndexNullable(cols []int) *BagIndex { return b.index(cols, true) }

func (b *Bag) index(cols []int, nullable bool) *BagIndex {
	for _, ix := range b.indexes {
		if ix.nullable == nullable && slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &BagIndex{cols: slices.Clone(cols), nullable: nullable, chain: NewChain()}
	ix.chain.Reserve(b.member.Buckets())
	for _, t := range b.tuples {
		ix.file(t)
	}
	b.indexes = append(b.indexes, ix)
	return ix
}

// Indexes returns the bag's maintained indexes, in the order they were first
// asked for. Callers must not mutate the slice.
func (b *Bag) Indexes() []*BagIndex { return b.indexes }

// BagIndex is a multi-column equality index over a Bag's positions, filed by
// the hash of the indexed columns (Tuple.HashCols, which agrees with
// HashValues over a probe key). A probe walks the positions sharing the
// key's bucket — First, then Next until -1 — and the caller verifies the
// column values and reads the bag at each position.
type BagIndex struct {
	cols     []int
	nullable bool
	chain    Chain
}

// Cols returns the indexed column positions. Callers must not mutate it.
func (ix *BagIndex) Cols() []int { return ix.cols }

// First returns the first candidate position for key hash h, or -1.
func (ix *BagIndex) First(h uint64) int32 { return ix.chain.First(h) }

// Next returns the candidate position after p, or -1.
func (ix *BagIndex) Next(p int32) int32 { return ix.chain.Next(p) }

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

// file appends the next position, filed under t's key hash (or nowhere).
func (ix *BagIndex) file(t Tuple) {
	if h, ok := ix.keyHash(t); ok {
		ix.chain.Link(h)
	} else {
		ix.chain.Skip()
	}
}
