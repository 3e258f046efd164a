package datalog

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/arena"
	"repro/internal/relation"
)

// factSet stores the tuples of one predicate with set semantics plus hash
// indexes over the column subsets the compiled rules actually look up. It is
// a chained hash table over tuple positions: the tuples sit dense in a slice
// (a removal swap-moves the last one into the hole) and every chain — the
// membership chain over the whole tuple and one per index mask — files each
// position under hash & mask in a flat power-of-two bucket array, with
// collisions and slot sharing resolved by equality on the walk. Chains are
// doubly linked through two int32 arrays parallel to tuples, and a bucket's
// first tuple carries the bucket's number as its back link, so add, remove
// and the swap-move each touch a constant number of cells — without hashing
// anything again — however long a chain is (an index on a one-valued column
// is one chain holding every row); no key strings, maps or per-bucket slices
// are built. Inserting costs the amortised growth of the parallel arrays, the
// bucket arrays double together when the tuple count reaches their length,
// and a reset-for-reuse set (the engine leases round-scoped sets from a pool)
// re-fills retained capacity without allocating. The index column masks are
// chosen at compile time (NewEngine registers the bound positions of every
// atom occurrence), so indexes are maintained eagerly on every insert.
type factSet struct {
	arity   int
	tuples  []relation.Tuple
	member  chain   // over the whole tuple (cols == nil)
	indexes []chain // one per registered column mask

	// clones, when non-nil, backs copy-on-insert clones (round-leased sets
	// share the engine's round arena, reset when the round's leases are
	// released). Persistent sets leave it nil and clone on the heap.
	clones *arena.Slab[relation.Value]
}

// chain is one hash chaining of a fact set's positions: membership when cols
// is nil, otherwise the equality index over that column subset. All chains of
// a set have equally many buckets.
type chain struct {
	cols    []int
	buckets []int32 // position+1 of the first tuple filed under the slot; 0 empty
	links   []int32 // links[i]: position+1 after tuple i in its bucket; 0 ends
	prev    []int32 // prev[i]: position+1 before tuple i; -(slot+1) when i heads bucket slot
}

// minBuckets is the bucket count of a new set (a power of two).
const minBuckets = 8

func newChain(cols []int) chain {
	return chain{cols: cols, buckets: make([]int32, minBuckets)}
}

// newFactSet creates a set with eager indexes for the given column masks.
func newFactSet(arity int, masks [][]int) *factSet {
	f := &factSet{arity: arity, member: newChain(nil), indexes: make([]chain, len(masks))}
	for i, m := range masks {
		f.indexes[i] = newChain(m)
	}
	return f
}

// hash is the chain's key hash of tuple t.
func (c *chain) hash(t relation.Tuple) uint64 {
	if c.cols == nil {
		return t.Hash()
	}
	return t.HashCols(c.cols)
}

// first returns position+1 of the first tuple in the bucket of hash h.
func (c *chain) first(h uint64) int32 { return c.buckets[h&uint64(len(c.buckets)-1)] }

// link files the next position (len(links)) at the front of h's bucket.
func (c *chain) link(h uint64) {
	slot := int32(h & uint64(len(c.buckets)-1))
	pos, old := int32(len(c.links)), c.buckets[slot]
	if old != 0 {
		c.prev[old-1] = pos + 1
	}
	c.links = append(c.links, old)
	c.prev = append(c.prev, -slot-1)
	c.buckets[slot] = pos + 1
}

// setNext makes n (a position+1, or 0) what follows p: a position+1, or the
// head marker of a bucket.
func (c *chain) setNext(p, n int32) {
	if p < 0 {
		c.buckets[-p-1] = n
	} else {
		c.links[p-1] = n
	}
	if n != 0 {
		c.prev[n-1] = p
	}
}

// chainUnlink takes position pos out of its bucket.
func chainUnlink(c *chain, pos int32) { c.setNext(c.prev[pos], c.links[pos]) }

// chainRepoint gives position from's place in its bucket to position to
// after a swap-move (to must be unlinked).
func chainRepoint(c *chain, from, to int32) {
	c.setNext(c.prev[from], to+1)
	c.setNext(to+1, c.links[from])
}

// drop removes position pos from the chain and moves the last position's
// entry into it, mirroring the swap-remove of tuples.
func (c *chain) drop(pos int32) {
	last := int32(len(c.links) - 1)
	chainUnlink(c, pos)
	if pos != last {
		chainRepoint(c, last, pos)
	}
	c.links, c.prev = c.links[:last], c.prev[:last]
}

// grow doubles the bucket array, splitting every bucket in place between its
// old slot and slot+old by the next hash bit. Tuples that stay together keep
// their relative order and no position changes, so a walk that stands on a
// tuple when an insert below it grows the set (a recursive rule probing the
// predicate it derives) still finds every tuple of its key ahead of it.
func (c *chain) grow(tuples []relation.Tuple) {
	old := len(c.buckets)
	c.buckets = append(c.buckets, make([]int32, old)...)
	for b := 0; b < old; b++ {
		p := c.buckets[b]
		c.buckets[b] = 0
		tail := [2]int32{-int32(b) - 1, -int32(b+old) - 1} // what ends the low and the high bucket so far
		for p != 0 {
			n := c.links[p-1]
			side := (c.hash(tuples[p-1]) & uint64(old)) / uint64(old) // the next hash bit
			c.links[p-1] = 0
			c.setNext(tail[side], p)
			tail[side] = p
			p = n
		}
	}
}

// reset empties the chain, retaining its capacity and bucket count.
func (c *chain) reset() {
	clear(c.buckets)
	c.links, c.prev = c.links[:0], c.prev[:0]
}

// reset empties the set for reuse, retaining the tuple/link capacity and the
// grown bucket arrays so the next round's fills allocate nothing. Tuple
// references are dropped so recycled sets do not keep dead rows alive.
func (f *factSet) reset() {
	if len(f.tuples) == 0 {
		return
	}
	clear(f.tuples)
	f.tuples = f.tuples[:0]
	f.member.reset()
	for i := range f.indexes {
		f.indexes[i].reset()
	}
}

// reserve sizes the bucket arrays of an empty set for n tuples.
func (f *factSet) reserve(n int) {
	nb := len(f.member.buckets)
	for nb < n {
		nb *= 2
	}
	if nb > len(f.member.buckets) {
		f.member.buckets = make([]int32, nb)
		for i := range f.indexes {
			f.indexes[i].buckets = make([]int32, nb)
		}
	}
}

// find returns the position of the stored tuple equal to t, whose hash is h,
// or -1.
func (f *factSet) find(t relation.Tuple, h uint64) int32 {
	for p := f.member.first(h); p != 0; p = f.member.links[p-1] {
		if f.tuples[p-1].Equal(t) {
			return p - 1
		}
	}
	return -1
}

// add inserts a tuple, returning whether it was new and the instance the set
// retains. With copyOnInsert the tuple is cloned before being stored — into
// the round arena when one is attached — so callers may pass a reused scratch
// buffer (the clone is only paid for genuinely new facts, not for the
// duplicate derivations that dominate rule firing).
func (f *factSet) add(t relation.Tuple, copyOnInsert bool) (bool, relation.Tuple, error) {
	if len(t) != f.arity {
		return false, nil, fmt.Errorf("datalog: arity mismatch: tuple %d vs predicate %d", len(t), f.arity)
	}
	h := t.Hash()
	if pos := f.find(t, h); pos >= 0 {
		return false, f.tuples[pos], nil
	}
	stored := t
	if copyOnInsert {
		if f.clones != nil {
			stored = relation.Tuple(f.clones.Clone(t))
		} else {
			stored = t.Clone()
		}
	}
	if len(f.tuples) == len(f.member.buckets) {
		f.member.grow(f.tuples)
		for i := range f.indexes {
			f.indexes[i].grow(f.tuples)
		}
	}
	f.tuples = append(f.tuples, stored)
	f.member.link(h)
	for i := range f.indexes {
		f.indexes[i].link(f.indexes[i].hash(stored))
	}
	return true, stored, nil
}

// remove deletes a tuple if present: its position leaves every chain and is
// filled by the last tuple, whose chain entries move with it.
func (f *factSet) remove(t relation.Tuple) bool {
	if len(t) != f.arity {
		return false
	}
	pos := f.find(t, t.Hash())
	if pos < 0 {
		return false
	}
	f.member.drop(pos)
	for i := range f.indexes {
		f.indexes[i].drop(pos)
	}
	last := len(f.tuples) - 1
	f.tuples[pos] = f.tuples[last]
	f.tuples[last] = nil
	f.tuples = f.tuples[:last]
	return true
}

func (f *factSet) len() int { return len(f.tuples) }

// matchAt verifies that tuple t carries vals at the given columns.
func matchAt(t relation.Tuple, cols []int, vals []relation.Value) bool {
	for i, c := range cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// anySchemas caches the dynamically typed schemas by arity: every engine
// round converting a fact set to a relation reuses one immutable schema
// instead of rebuilding it (schemas are never mutated after construction).
var anySchemas sync.Map // int -> *relation.Schema

// anySchema builds (or recalls) a dynamically typed schema — every column
// accepts any kind — named arg0..argN-1.
func anySchema(arity int) *relation.Schema {
	if s, ok := anySchemas.Load(arity); ok {
		return s.(*relation.Schema)
	}
	cols := make([]relation.Column, arity)
	for i := range cols {
		cols[i] = relation.Column{Name: "arg" + strconv.Itoa(i), Kind: relation.KindNull}
	}
	s, _ := anySchemas.LoadOrStore(arity, relation.NewSchema(cols...))
	return s.(*relation.Schema)
}

// relation converts the fact set to a Relation with an any-kind schema.
func (f *factSet) relation() *relation.Relation {
	out := relation.New(anySchema(f.arity))
	for _, t := range f.tuples {
		out.MustAppend(t)
	}
	return out
}
