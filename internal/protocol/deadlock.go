package protocol

import (
	"sort"

	"repro/internal/request"
)

// WaitsFor builds the waits-for graph of a scheduling round: an edge
// TA1 -> TA2 means a pending request of TA1 cannot qualify because of TA2 —
// either TA2 holds a conflicting lock in the history, or TA2 has a
// conflicting pending request with a smaller transaction number (Listing 1's
// intra-batch precedence, which is persistent because transaction numbers
// never change and therefore participates in deadlocks).
//
// The lock edges are the ones LiveLocks implies, read off the history
// directly: only objects a pending data request names can contribute, so one
// pass keeps the reader and writer TAs of those objects (chained per object
// in one flat slice) and nothing else. A transaction that read and wrote an
// object appears in both roles; its read entry only repeats the edge its
// write lock already gives, so the read-to-write upgrade needs no table.
// The pending requests are chained per object the same way, so a request is
// compared with the batch members on its object, not with the whole batch.
func WaitsFor(pending, history []request.Request) map[int64]map[int64]bool {
	// Per contended object, index+1 of the newest entry of its two chains.
	type chains struct{ holder, pending int32 }
	heads := make(map[int64]chains, len(pending))
	pendingNext := make([]int32, len(pending))
	for i, r := range pending {
		if r.Op.IsTermination() {
			continue
		}
		c := heads[r.Object]
		pendingNext[i] = c.pending
		c.pending = int32(i + 1)
		heads[r.Object] = c
	}
	type holder struct {
		ta    int64
		next  int32
		write bool
	}
	var holders []holder
	finished := make(map[int64]bool)
	for _, h := range history {
		if h.Op.IsTermination() {
			finished[h.TA] = true
			continue
		}
		if c, ok := heads[h.Object]; ok {
			holders = append(holders, holder{ta: h.TA, next: c.holder, write: h.Op == request.Write})
			c.holder = int32(len(holders))
			heads[h.Object] = c
		}
	}
	edges := make(map[int64]map[int64]bool)
	add := func(from, to int64) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = make(map[int64]bool)
		}
		edges[from][to] = true
	}
	for _, r := range pending {
		if r.Op.IsTermination() {
			continue
		}
		c := heads[r.Object]
		for i := c.holder; i != 0; i = holders[i-1].next {
			h := &holders[i-1]
			if (h.write || r.Op == request.Write) && !finished[h.ta] {
				add(r.TA, h.ta)
			}
		}
		for i := c.pending; i != 0; i = pendingNext[i-1] {
			other := &pending[i-1]
			if other.TA < r.TA && (other.Op == request.Write || r.Op == request.Write) {
				add(r.TA, other.TA)
			}
		}
	}
	return edges
}

// DeadlockVictims returns the transactions to abort so that the waits-for
// graph becomes acyclic: for every cycle the youngest member (largest TA) is
// chosen, iteratively, mirroring common DBMS victim policies. The result is
// sorted and deterministic.
func DeadlockVictims(pending, history []request.Request) []int64 {
	edges := WaitsFor(pending, history)
	dead := make(map[int64]bool)
	var victims []int64
	for {
		cyc := findCycle(edges, dead)
		if cyc == nil {
			break
		}
		victim := cyc[0]
		for _, ta := range cyc {
			if ta > victim {
				victim = ta
			}
		}
		dead[victim] = true
		victims = append(victims, victim)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	return victims
}

// findCycle returns some cycle in the graph restricted to nodes not in dead,
// or nil. The returned slice contains exactly the nodes on the cycle.
func findCycle(edges map[int64]map[int64]bool, dead map[int64]bool) []int64 {
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
		// Deterministic iteration keeps victim selection stable.
		var targets []int64
		for v := range edges[u] {
			if !dead[v] {
				targets = append(targets, v)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, v := range targets {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				cycle = []int64{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	var nodes []int64
	for u := range edges {
		if !dead[u] {
			nodes = append(nodes, u)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, u := range nodes {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}
