package datalog

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/relation"
)

// A predicate's facts are a relation.Bag in which every tuple has count 1.
// The rules probe them through indexes built with IndexNullable: Datalog
// unifies NULL with NULL (relation.Value.Equal), so a NULL key is filed like
// any other.

// insert adds t to f unless f holds it already, reporting whether it was
// new. f keeps t itself: callers pass tuples that outlive f's contents (EDB
// rows, program facts); rule heads go through emitFact, which
// carves a copy from the predicate's region instead.
func insert(f *relation.Bag, t relation.Tuple) bool {
	h := t.Hash()
	if f.Find(t, h) >= 0 {
		return false
	}
	f.AddNew(t, h, 1)
	return true
}

// insertEDB adds an incoming EDB row to f, refusing a row of another arity.
func insertEDB(f *relation.Bag, t relation.Tuple) error {
	if n := f.Schema().Len(); len(t) != n {
		return fmt.Errorf("datalog: arity mismatch: tuple %d vs predicate %d", len(t), n)
	}
	insert(f, t)
	return nil
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

// anySchemas caches the dynamically typed schemas by arity: every fact set
// and every relation the engine hands out shares one immutable schema per
// arity (schemas are never mutated after construction).
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
