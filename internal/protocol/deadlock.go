package protocol

import (
	"cmp"
	"slices"

	"repro/internal/request"
)

// waitsFor is the waits-for graph of a scheduling round in compressed sparse
// row form. The transactions that wait for someone, ascending, are numbered
// densely by their position in nodes; node u's edges are
// edges[off[u]:off[u+1]], ascending by target, and adj holds each edge's
// target node, or -1 for a target that waits for nobody (it cannot be on a
// cycle).
type waitsFor struct {
	nodes []int64
	off   []int32
	edges []edge
	adj   []int32
}

// edge is one wait: transaction from waits for transaction to.
type edge struct{ from, to int64 }

// objectFilterBits sizes the bit filter over the objects of pending data
// requests that lets the history pass skip a row without a map probe: a
// paper-mix round names ~200 objects, about 5% of the bits.
const objectFilterBits = 4096

// objectBit is an object's bit in the filter (a Fibonacci hash, so strided
// object numbers spread too).
func objectBit(obj int64) uint64 { return uint64(obj) * 0x9E3779B97F4A7C15 >> 52 }

// Detector finds the victims of the waits-for cycles of a scheduling round.
// It owns every buffer the graph and the cycle search need — the per-object
// chains, the edge, node, offset and adjacency slices, the search arrays —
// and each call clears and refills them, so a detector that has seen a
// round of some size allocates nothing for the next one of that size. The
// zero Detector is ready to use. Not safe for concurrent use; the scheduler
// keeps one on its round loop.
type Detector struct {
	g waitsFor

	// Graph-building scratch (build): per contended object, index+1 of the
	// newest entry of its history-holder and pending chains; the pending
	// chain's links; the holders; the transactions with a termination in
	// the history.
	heads       map[int64]chains
	pendingNext []int32
	holders     []holder
	finished    map[int64]bool

	// Cycle-search scratch (Victims), one entry per node.
	dead  []bool
	color []uint8
	next  []int32
	stack []int32
}

// chains locates an object's two chains: index+1 of the newest entry of
// each, 0 for none.
type chains struct{ holder, pending int32 }

// holder is one history row on a contended object, linked to the object's
// previous holder.
type holder struct {
	ta    int64
	next  int32
	write bool
}

// build builds the waits-for graph of a scheduling round into d.g: an edge
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
// The edges are collected into one slice, sorted and deduplicated.
func (d *Detector) build(pending, history []request.Request) *waitsFor {
	if d.heads == nil {
		d.heads, d.finished = make(map[int64]chains), make(map[int64]bool)
	}
	heads := d.heads
	clear(heads)
	clear(d.finished)
	pendingNext := grow(d.pendingNext, len(pending))
	d.pendingNext = pendingNext
	var filter [objectFilterBits / 64]uint64
	for i, r := range pending {
		if r.Op.IsTermination() {
			continue
		}
		c := heads[r.Object]
		pendingNext[i] = c.pending
		c.pending = int32(i + 1)
		heads[r.Object] = c
		b := objectBit(r.Object)
		filter[b/64] |= 1 << (b % 64)
	}
	holders := d.holders[:0]
	for i := range history {
		h := &history[i] // not a copy: the pass reads three fields of each row
		if h.Op.IsTermination() {
			d.finished[h.TA] = true
			continue
		}
		if b := objectBit(h.Object); filter[b/64]&(1<<(b%64)) == 0 {
			continue
		}
		if c, ok := heads[h.Object]; ok {
			holders = append(holders, holder{ta: h.TA, next: c.holder, write: h.Op == request.Write})
			c.holder = int32(len(holders))
			heads[h.Object] = c
		}
	}
	d.holders = holders
	g := &d.g
	edges := g.edges[:0]
	for _, r := range pending {
		if r.Op.IsTermination() {
			continue
		}
		c := heads[r.Object]
		for i := c.holder; i != 0; i = holders[i-1].next {
			h := &holders[i-1]
			if (h.write || r.Op == request.Write) && h.ta != r.TA && !d.finished[h.ta] {
				edges = append(edges, edge{r.TA, h.ta})
			}
		}
		for i := c.pending; i != 0; i = pendingNext[i-1] {
			other := &pending[i-1]
			if other.TA < r.TA && (other.Op == request.Write || r.Op == request.Write) {
				edges = append(edges, edge{r.TA, other.TA})
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	g.edges = slices.Compact(edges)
	g.nodes, g.off, g.adj = g.nodes[:0], g.off[:0], g.adj[:0]
	for i, e := range g.edges {
		if i == 0 || e.from != g.edges[i-1].from {
			g.nodes = append(g.nodes, e.from)
			g.off = append(g.off, int32(i))
		}
	}
	g.off = append(g.off, int32(len(g.edges)))
	for _, e := range g.edges {
		v, ok := slices.BinarySearch(g.nodes, e.to)
		if !ok {
			v = -1
		}
		g.adj = append(g.adj, int32(v))
	}
	return g
}

// grow returns buf resized to n entries, reusing its storage when it is
// large enough. The entries' values are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// WaitsFor returns the waits-for graph of a scheduling round (see
// Detector.build) as adjacency sets: edges[TA1][TA2] for every edge, and no
// entry for a transaction that waits for nobody.
func WaitsFor(pending, history []request.Request) map[int64]map[int64]bool {
	var d Detector
	g := d.build(pending, history)
	edges := make(map[int64]map[int64]bool, len(g.nodes))
	for u, from := range g.nodes {
		m := make(map[int64]bool, g.off[u+1]-g.off[u])
		for _, e := range g.edges[g.off[u]:g.off[u+1]] {
			m[e.to] = true
		}
		edges[from] = m
	}
	return edges
}

// Victims returns the transactions to abort so that the waits-for graph
// becomes acyclic: for every cycle the youngest member (largest TA) is
// chosen, iteratively, mirroring common DBMS victim policies. The result is
// sorted and deterministic, nil when the graph is acyclic, and the caller's
// to keep.
func (d *Detector) Victims(pending, history []request.Request) []int64 {
	g := d.build(pending, history)
	n := len(g.nodes)
	d.dead = grow(d.dead, n)
	clear(d.dead)
	d.color = grow(d.color, n)
	d.next = grow(d.next, n)
	var victims []int64
	for {
		v := d.cycleVictim()
		if v < 0 {
			break
		}
		d.dead[v] = true
		victims = append(victims, g.nodes[v])
	}
	slices.Sort(victims)
	return victims
}

// cycleVictim searches d.g restricted to live (not dead) nodes for a cycle
// and returns its largest node, or -1 when the graph is acyclic. The
// depth-first search is iterative — color and next are per-node scratch,
// the stack is the grey path — and visits roots and targets in ascending
// order, so the cycle found (and with it the victim) is deterministic.
func (d *Detector) cycleVictim() int32 {
	const white, grey, black = 0, 1, 2
	g, dead, color, next := &d.g, d.dead, d.color, d.next
	clear(color)
	stack := d.stack // kept grown on d for the next call
	for root := range g.nodes {
		if dead[root] || color[root] != white {
			continue
		}
		color[root], next[root] = grey, g.off[root]
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if next[u] == g.off[u+1] {
				color[u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := g.adj[next[u]]
			next[u]++
			if v < 0 || dead[v] {
				continue
			}
			switch color[v] {
			case white:
				color[v], next[v] = grey, g.off[v]
				stack = append(stack, v)
			case grey:
				// The cycle is the grey path from v to the top of the stack.
				victim := v
				for i := len(stack) - 1; stack[i] != v; i-- {
					victim = max(victim, stack[i])
				}
				d.stack = stack
				return victim
			}
		}
	}
	d.stack = stack
	return -1
}
