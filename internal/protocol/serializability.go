package protocol

import (
	"fmt"

	"repro/internal/request"
)

// ConflictGraph is the precedence graph of an executed schedule: an edge
// TA1 -> TA2 means some operation of TA1 precedes a conflicting operation of
// TA2 in the execution order.
type ConflictGraph struct {
	Edges map[int64]map[int64]bool
}

// BuildConflictGraph builds the precedence graph over the committed
// transactions of an executed schedule (requests in execution order).
// Operations of aborted or still-running transactions are ignored, as usual
// in conflict serializability of committed projections.
func BuildConflictGraph(executed []request.Request) *ConflictGraph {
	committed := make(map[int64]bool)
	aborted := make(map[int64]bool)
	for _, r := range executed {
		switch r.Op {
		case request.Commit:
			committed[r.TA] = true
		case request.Abort:
			aborted[r.TA] = true
		}
	}
	g := &ConflictGraph{Edges: make(map[int64]map[int64]bool)}
	for i, a := range executed {
		if !committed[a.TA] || aborted[a.TA] {
			continue
		}
		for _, b := range executed[i+1:] {
			if !committed[b.TA] || aborted[b.TA] {
				continue
			}
			if request.Conflicts(a, b) {
				if g.Edges[a.TA] == nil {
					g.Edges[a.TA] = make(map[int64]bool)
				}
				g.Edges[a.TA][b.TA] = true
			}
		}
	}
	return g
}

// Cycle returns a cycle in the graph, or nil if the graph is acyclic.
func (g *ConflictGraph) Cycle() []int64 {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int64]int)
	parent := make(map[int64]int64)
	var cycle []int64
	var dfs func(u int64) bool
	dfs = func(u int64) bool {
		color[u] = grey
		for v := range g.Edges[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Reconstruct u -> ... -> v -> u.
				cycle = []int64{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := range g.Edges {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}

// CheckSerializable verifies that an executed schedule is conflict
// serializable, returning a descriptive error naming a precedence cycle if
// not. This is the correctness invariant SS2PL guarantees (paper Section 4:
// "guaranteeing serializability").
func CheckSerializable(executed []request.Request) error {
	if cyc := BuildConflictGraph(executed).Cycle(); cyc != nil {
		return fmt.Errorf("protocol: schedule not conflict-serializable: precedence cycle %v", cyc)
	}
	return nil
}

// CheckTerminationOrder reports the first executed request that follows its
// own transaction's commit or abort (a second termination included), which
// CheckSerializable, reading only which transactions committed, cannot see.
func CheckTerminationOrder(executed []request.Request) error {
	ended := make(map[int64]request.Request)
	for _, r := range executed {
		if end, ok := ended[r.TA]; ok {
			return fmt.Errorf("protocol: %v executed after its transaction's %v", r, end)
		}
		if r.Op.IsTermination() {
			ended[r.TA] = r
		}
	}
	return nil
}

// CheckQualifiedConflictFree verifies the per-round invariant of a strict
// protocol: a qualified batch never contains two conflicting requests, and
// no qualified request conflicts with a lock held by a live foreign
// transaction in the history.
func CheckQualifiedConflictFree(qualified, history []request.Request) error {
	for i, a := range qualified {
		for _, b := range qualified[i+1:] {
			if request.Conflicts(a, b) {
				return fmt.Errorf("protocol: qualified batch contains conflicting %v and %v", a, b)
			}
		}
	}
	locks := LiveLocks(history)
	for _, r := range qualified {
		for ta := range locks.Write[r.Object] {
			if ta != r.TA && !r.Op.IsTermination() {
				return fmt.Errorf("protocol: qualified %v conflicts with write lock of ta%d", r, ta)
			}
		}
		if r.Op == request.Write {
			for ta := range locks.Read[r.Object] {
				if ta != r.TA {
					return fmt.Errorf("protocol: qualified write %v conflicts with read lock of ta%d", r, ta)
				}
			}
		}
	}
	return nil
}
