package main

import (
	"fmt"

	"repro/internal/request"
)

// checkSerializable verifies that an executed log is conflict serializable
// over its committed transactions — protocol.CheckSerializable's question,
// answered in linear time, because that function compares every pair of log
// entries and a traced run's log has hundreds of thousands. Per object it
// keeps the last writer and the readers since; each operation gets an edge
// from the operations it directly follows and conflicts with, which has the
// same reachability as the full precedence graph. main_test.go holds the two
// checkers against each other.
func checkSerializable(log []request.Request) error {
	committed := make(map[int64]bool)
	for _, r := range log {
		switch r.Op {
		case request.Commit:
			committed[r.TA] = true
		}
	}
	for _, r := range log {
		if r.Op == request.Abort {
			delete(committed, r.TA)
		}
	}

	type objectState struct {
		writer  int64 // last writer, 0 for none
		readers []int64
	}
	objects := make(map[int64]*objectState)
	succ := make(map[int64][]int64)
	indegree := make(map[int64]int, len(committed))
	edge := func(from, to int64) {
		if from != 0 && from != to {
			succ[from] = append(succ[from], to)
			indegree[to]++
		}
	}
	for _, r := range log {
		if r.Op.IsTermination() || !committed[r.TA] {
			continue
		}
		o := objects[r.Object]
		if o == nil {
			o = &objectState{}
			objects[r.Object] = o
		}
		edge(o.writer, r.TA)
		if r.Op == request.Read {
			o.readers = append(o.readers, r.TA)
			continue
		}
		for _, reader := range o.readers {
			edge(reader, r.TA)
		}
		o.writer, o.readers = r.TA, o.readers[:0]
	}

	// Kahn's algorithm: the graph is acyclic iff every transaction can be
	// removed in topological order.
	var ready []int64
	for ta := range committed {
		if indegree[ta] == 0 {
			ready = append(ready, ta)
		}
	}
	removed := 0
	for len(ready) > 0 {
		ta := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for _, next := range succ[ta] {
			if indegree[next]--; indegree[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if removed != len(committed) {
		return fmt.Errorf("executed log is not conflict-serializable: %d of %d committed transactions lie on or behind a precedence cycle",
			len(committed)-removed, len(committed))
	}
	return nil
}
