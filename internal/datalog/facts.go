package datalog

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/arena"
	"repro/internal/relation"
)

// factSet stores the tuples of one predicate with set semantics plus hash
// indexes over the column subsets the compiled rules actually look up.
// Membership and index buckets are intrusive int32 chains over the tuple
// positions — a head map from uint64 key hash to first position, plus a
// links array parallel to tuples — with equality verification on collisions;
// no key strings and no per-bucket slices are ever built. Inserting a tuple
// therefore costs only the amortised growth of the parallel arrays, and a
// reset-for-reuse set (the engine leases round-scoped sets from a pool)
// re-fills retained capacity without allocating at all. The index column
// masks are chosen at compile time (NewEngine registers the bound positions
// of every atom occurrence), so indexes are maintained eagerly on every
// insert instead of being rebuilt lazily inside the join loop.
type factSet struct {
	arity   int
	tuples  []relation.Tuple
	head    map[uint64]int32 // Tuple.Hash -> first position+1 of the chain
	links   []int32          // links[i]: next position+1 after tuple i; 0 ends
	indexes []factIndex      // one per registered column mask

	// clones, when non-nil, backs copy-on-insert clones (round-leased sets
	// share the engine's round arena, reset when the round's leases are
	// released). Persistent sets leave it nil and
	// clone on the heap.
	clones *arena.Slab[relation.Value]
}

// factIndex is an equality index over a fixed column subset, chained the
// same way as the membership buckets.
type factIndex struct {
	cols  []int
	head  map[uint64]int32
	links []int32
}

// newFactSet creates a set with eager indexes for the given column masks.
func newFactSet(arity int, masks [][]int) *factSet {
	f := &factSet{
		arity:   arity,
		head:    make(map[uint64]int32),
		indexes: make([]factIndex, len(masks)),
	}
	for i, m := range masks {
		f.indexes[i] = factIndex{cols: m, head: make(map[uint64]int32)}
	}
	return f
}

// reset empties the set for reuse, retaining the tuple/link capacity and the
// map buckets so the next round's fills allocate nothing. Tuple references
// are dropped so recycled sets do not keep dead rows alive.
func (f *factSet) reset() {
	for i := range f.tuples {
		f.tuples[i] = nil
	}
	f.tuples = f.tuples[:0]
	f.links = f.links[:0]
	clear(f.head)
	for i := range f.indexes {
		f.indexes[i].links = f.indexes[i].links[:0]
		clear(f.indexes[i].head)
	}
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
	for p := f.head[h]; p != 0; p = f.links[p-1] {
		if f.tuples[p-1].Equal(t) {
			return false, f.tuples[p-1], nil
		}
	}
	stored := t
	if copyOnInsert {
		if f.clones != nil {
			stored = relation.Tuple(f.clones.Clone(t))
		} else {
			stored = t.Clone()
		}
	}
	pos := int32(len(f.tuples))
	f.tuples = append(f.tuples, stored)
	f.links = append(f.links, f.head[h])
	f.head[h] = pos + 1
	for i := range f.indexes {
		ix := &f.indexes[i]
		ih := stored.HashCols(ix.cols)
		ix.links = append(ix.links, ix.head[ih])
		ix.head[ih] = pos + 1
	}
	return true, stored, nil
}

// remove deletes a tuple if present, keeping all chains consistent. The
// vacated position is filled by moving the last tuple, whose chain entries
// are repointed in place.
func (f *factSet) remove(t relation.Tuple) bool {
	if len(t) != f.arity {
		return false
	}
	h := t.Hash()
	pos := int32(-1)
	for p := f.head[h]; p != 0; p = f.links[p-1] {
		if f.tuples[p-1].Equal(t) {
			pos = p - 1
			break
		}
	}
	if pos < 0 {
		return false
	}
	stored := f.tuples[pos]
	chainUnlink(f.head, f.links, h, pos)
	for i := range f.indexes {
		ix := &f.indexes[i]
		chainUnlink(ix.head, ix.links, stored.HashCols(ix.cols), pos)
	}
	last := int32(len(f.tuples) - 1)
	if pos != last {
		moved := f.tuples[last]
		f.tuples[pos] = moved
		// pos is unlinked from every chain, so its link slots are free to
		// carry moved's outgoing links before the heads are repointed.
		f.links[pos] = f.links[last]
		chainRepoint(f.head, f.links, moved.Hash(), last, pos)
		for i := range f.indexes {
			ix := &f.indexes[i]
			ix.links[pos] = ix.links[last]
			chainRepoint(ix.head, ix.links, moved.HashCols(ix.cols), last, pos)
		}
	}
	f.tuples[last] = nil
	f.tuples = f.tuples[:last]
	f.links = f.links[:last]
	for i := range f.indexes {
		f.indexes[i].links = f.indexes[i].links[:last]
	}
	return true
}

// chainUnlink removes position pos from the chain of hash h.
func chainUnlink(head map[uint64]int32, links []int32, h uint64, pos int32) {
	p := head[h]
	if p == pos+1 {
		if links[pos] == 0 {
			delete(head, h)
		} else {
			head[h] = links[pos]
		}
		return
	}
	for p != 0 {
		n := links[p-1]
		if n == pos+1 {
			links[p-1] = links[pos]
			return
		}
		p = n
	}
}

// chainRepoint rewrites the single pointer at position from to point at
// position to, after a swap-move (to must not be in the chain).
func chainRepoint(head map[uint64]int32, links []int32, h uint64, from, to int32) {
	if head[h] == from+1 {
		head[h] = to + 1
		return
	}
	for p := head[h]; p != 0; p = links[p-1] {
		if links[p-1] == from+1 {
			links[p-1] = to + 1
			return
		}
	}
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
