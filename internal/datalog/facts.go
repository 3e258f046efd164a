package datalog

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/relation"
)

// factSet stores the tuples of one predicate with set semantics plus hash
// indexes over the column subsets the compiled rules actually look up. It is
// a relation.Chain table over tuple positions: the tuples sit dense in a
// slice (a removal swap-moves the last one into the hole) and every chain —
// the membership chain over the whole tuple and one per index mask — files
// each position under hash & mask, so add, remove and the swap-move each
// touch a constant number of cells however long a chain is (an index on a
// one-valued column is one chain holding every row). Inserting costs the
// amortised growth of the parallel arrays, the bucket arrays double together
// when the tuple count reaches their length, and a reset set (a re-derived
// predicate, a semi-naive delta between passes) re-fills retained capacity
// without allocating — so, unlike a relation.Bag, a set never shrinks. The
// index column masks are chosen at compile time (NewEngine registers the
// bound positions of every atom occurrence), so indexes are maintained
// eagerly on every insert.
type factSet struct {
	arity   int
	tuples  []relation.Tuple
	member  relation.Chain // over the whole tuple
	indexes []index        // one per registered column mask
}

// index is the equality index of a fact set over one column subset.
type index struct {
	cols []int
	relation.Chain
}

// newFactSet creates a set with eager indexes for the given column masks.
func newFactSet(arity int, masks [][]int) *factSet {
	f := &factSet{arity: arity, member: relation.NewChain(), indexes: make([]index, len(masks))}
	for i, m := range masks {
		f.indexes[i] = index{cols: m, Chain: relation.NewChain()}
	}
	return f
}

// reset empties the set for reuse, retaining the tuple/link capacity and the
// grown bucket arrays so the next round's fills allocate nothing. Tuple
// references are dropped so recycled sets do not keep dead rows alive. A nil
// set (a delta that never held a fact) is empty already.
func (f *factSet) reset() {
	if f == nil || len(f.tuples) == 0 {
		return
	}
	clear(f.tuples)
	f.tuples = f.tuples[:0]
	f.member.Reset()
	for i := range f.indexes {
		f.indexes[i].Reset()
	}
}

// reserve sizes the bucket arrays of an empty set for n tuples.
func (f *factSet) reserve(n int) {
	f.member.Reserve(n)
	for i := range f.indexes {
		f.indexes[i].Reserve(n)
	}
}

// find returns the position of the stored tuple equal to t, whose hash is h,
// or -1.
func (f *factSet) find(t relation.Tuple, h uint64) int32 {
	for p := f.member.First(h); p >= 0; p = f.member.Next(p) {
		if f.tuples[p].Equal(t) {
			return p
		}
	}
	return -1
}

// add inserts a tuple, returning whether it was new and the instance the set
// retains. With copyOnInsert the tuple is cloned before being stored, so
// callers may pass a reused scratch buffer (the clone is only paid for
// genuinely new facts, not for the duplicate derivations that dominate rule
// firing).
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
		stored = t.Clone()
	}
	if len(f.tuples) == f.member.Buckets() {
		f.member.Grow(func(p int32) uint64 { return f.tuples[p].Hash() })
		for i := range f.indexes {
			ix := &f.indexes[i]
			ix.Grow(func(p int32) uint64 { return f.tuples[p].HashCols(ix.cols) })
		}
	}
	f.tuples = append(f.tuples, stored)
	f.member.Link(h)
	for i := range f.indexes {
		f.indexes[i].Link(stored.HashCols(f.indexes[i].cols))
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
	f.member.Drop(pos)
	for i := range f.indexes {
		f.indexes[i].Drop(pos)
	}
	last := len(f.tuples) - 1
	f.tuples[pos] = f.tuples[last]
	f.tuples[last] = nil
	f.tuples = f.tuples[:last]
	return true
}

// len counts the tuples; a nil set is empty.
func (f *factSet) len() int {
	if f == nil {
		return 0
	}
	return len(f.tuples)
}

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
