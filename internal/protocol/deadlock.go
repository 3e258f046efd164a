package protocol

import (
	"math/bits"
	"slices"

	"repro/internal/request"
)

// waitsFor is the waits-for graph of a scheduling round in compressed sparse
// row form. The transactions that wait for someone are numbered densely by
// their position in nodes; node u's edges are to[off[u]:off[u+1]], the
// transactions it waits for, and adj holds each edge's target node, or -1
// for a target that waits for nobody (it cannot be on a cycle). As built,
// nodes and targets are in the order found, a target possibly repeated;
// placed in order (Detector.place), both are ascending and without repeats.
type waitsFor struct {
	nodes []int64
	off   []int32
	to    []int64
	adj   []int32
}

// rawEdge is one wait as the build finds it: the waiting transaction's node
// and the transaction it waits for.
type rawEdge struct {
	from int32
	to   int64
}

// objectFilterBits sizes the bit filter over the objects of pending data
// requests that lets the history pass skip a row without a table probe: a
// paper-mix round names ~200 objects, about 1.3% of the bits.
const objectFilterBits = 1 << 14

// fibonacci is 2^64 divided by the golden ratio: multiplying by it spreads
// strided ids over the high bits, which the filter and the tables read.
const fibonacci = 0x9E3779B97F4A7C15

// objectBit is an object's bit in the filter.
func objectBit(obj int64) uint64 { return uint64(obj) * fibonacci >> (64 - 14) }

// Detector finds the victims of the waits-for cycles of a scheduling round.
// It owns every buffer the graph and the cycle search need — the object and
// transaction tables, the per-object chains, the edge, node, offset and
// adjacency slices, the search arrays — and each call clears and refills
// them, so a detector that has seen a round of some size allocates nothing
// for the next one of that size. The zero Detector is ready to use. Not safe
// for concurrent use; the scheduler keeps one on its round loop.
type Detector struct {
	g waitsFor

	// Graph-building scratch (build): per object a pending data request
	// names, index+1 of the newest entry of its history-holder and pending
	// chains; the pending chain's links; the holders; the transactions with
	// a termination in the history; per waiting transaction its node+1, and
	// per node its edges; the edges as found; place's renumbering.
	objects     idTable[chains]
	pendingNext []int32
	holders     []holder
	finished    idTable[struct{}]
	nodeOf      idTable[int32]
	count       []int32
	raw         []rawEdge
	rank        []int32

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

// build builds the waits-for graph of a scheduling round into d.g, in the
// order found: an edge TA1 -> TA2 means a pending request of TA1 cannot
// qualify because of TA2 — either TA2 holds a conflicting lock in the
// history, or TA2 has a conflicting pending request with a smaller
// transaction number (Listing 1's intra-batch precedence, which is
// persistent because transaction numbers never change and therefore
// participates in deadlocks).
//
// The lock edges are the ones LiveLocks implies, read off the history
// directly: only objects a pending data request names can contribute, so one
// pass keeps the reader and writer TAs of those objects (chained per object
// in one flat slice) and nothing else. A transaction that read and wrote an
// object appears in both roles; its read entry only repeats the edge its
// write lock already gives, so the read-to-write upgrade needs no table.
// The pending requests are chained per object the same way, so a request is
// compared with the batch members on its object, not with the whole batch.
// The terminated transactions are looked up only when the history holds a
// termination (the engine's history holds none at resolve time: its
// collection ends the commit stage).
func (d *Detector) build(pending, history []request.Request) *waitsFor {
	d.objects.reset(len(pending))
	pendingNext := grow(d.pendingNext, len(pending))
	d.pendingNext = pendingNext
	var filter [objectFilterBits / 64]uint64
	for i := range pending {
		r := &pending[i]
		if r.Op.IsTermination() {
			continue
		}
		c := d.objects.insert(r.Object)
		pendingNext[i] = c.pending
		c.pending = int32(i + 1)
		b := objectBit(r.Object)
		filter[b/64] |= 1 << (b % 64)
	}
	d.finished.reset(0)
	holders := d.holders[:0]
	for i := range history {
		h := &history[i] // not a copy: the pass reads three fields of each row
		if h.Op.IsTermination() {
			d.finished.insert(h.TA)
			continue
		}
		if b := objectBit(h.Object); filter[b/64]&(1<<(b%64)) == 0 {
			continue
		}
		if c := d.objects.find(h.Object); c != nil {
			holders = append(holders, holder{ta: h.TA, next: c.holder, write: h.Op == request.Write})
			c.holder = int32(len(holders))
		}
	}
	d.holders = holders
	anyFinished := len(d.finished.used) > 0

	d.nodeOf.reset(len(pending))
	d.g.nodes, d.count, d.raw = d.g.nodes[:0], d.count[:0], d.raw[:0]
	for _, slot := range d.objects.used {
		c := d.objects.slots[slot].val
		for i := c.pending; i != 0; i = pendingNext[i-1] {
			r := &pending[i-1]
			from := int32(-1)
			for j := c.holder; j != 0; j = holders[j-1].next {
				h := &holders[j-1]
				if (h.write || r.Op == request.Write) && h.ta != r.TA && !(anyFinished && d.finished.find(h.ta) != nil) {
					d.wait(&from, r.TA, h.ta)
				}
			}
			for j := c.pending; j != 0; j = pendingNext[j-1] {
				other := &pending[j-1]
				if other.TA < r.TA && (other.Op == request.Write || r.Op == request.Write) {
					d.wait(&from, r.TA, other.TA)
				}
			}
		}
	}
	d.place(false)
	return &d.g
}

// wait records that transaction ta waits for transaction to. from is ta's
// node, -1 until this request's first wait; a transaction's first wait
// makes it a node.
func (d *Detector) wait(from *int32, ta, to int64) {
	if *from < 0 {
		v := d.nodeOf.insert(ta)
		if *v == 0 {
			d.g.nodes = append(d.g.nodes, ta)
			d.count = append(d.count, 0)
			*v = int32(len(d.g.nodes))
		}
		*from = *v - 1
	}
	d.count[*from]++
	d.raw = append(d.raw, rawEdge{*from, to})
}

// place lays the edges found out in d.g by node, by counting: each node's
// targets in the order found or, ordered, with the nodes renumbered in
// ascending transaction order and each node's targets ascending and without
// repeats — the order the cycle search must visit them in for its victims to
// be deterministic. Ordering sorts the ~one target of each node and the
// nodes, not the edges.
func (d *Detector) place(ordered bool) {
	g := &d.g
	n := len(g.nodes)
	if ordered {
		rank := grow(d.rank, n)
		d.rank = rank
		slices.Sort(g.nodes)
		for u, ta := range g.nodes {
			v := d.nodeOf.find(ta)
			rank[*v-1], *v = int32(u), int32(u+1)
		}
		clear(d.count)
		for i := range d.raw {
			e := &d.raw[i]
			e.from = rank[e.from]
			d.count[e.from]++
		}
	}
	// off[u] is node u's start, then its fill cursor, so its end.
	g.off = grow(g.off, n+1)
	at := int32(0)
	for u, k := range d.count {
		g.off[u], at = at, at+k
	}
	g.off[n] = at
	g.to = grow(g.to, len(d.raw))
	for _, e := range d.raw {
		g.to[g.off[e.from]] = e.to
		g.off[e.from]++
	}
	start, w := int32(0), int32(0)
	for u := range n {
		end := g.off[u]
		g.off[u] = w
		seg := g.to[start:end]
		if !ordered {
			w = end
		} else {
			slices.Sort(seg)
			for k, t := range seg {
				if k == 0 || t != seg[k-1] {
					g.to[w] = t
					w++
				}
			}
		}
		start = end
	}
	g.off[n] = w
	g.to = g.to[:w]
	g.adj = grow(g.adj, int(w))
	for i, t := range g.to {
		g.adj[i] = -1
		if v := d.nodeOf.find(t); v != nil {
			g.adj[i] = *v - 1
		}
	}
}

// grow returns buf resized to n entries, reusing its storage when it is
// large enough. The entries' values are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// idTable is an open-addressed hash table with linear probing from int64 ids
// (objects, transactions) to values, the detector's replacement for Go maps
// on its hot path. It keeps the slots it filled, so reset clears what the
// last build used, not the whole table, and it doubles past half full, so a
// reused table stops allocating once it has seen its largest round.
type idTable[V any] struct {
	slots []idSlot[V]
	used  []int32 // filled slots, in the order they were filled
	shift uint8   // 64 - log2(len(slots)): a key's home slot is its top bits
}

type idSlot[V any] struct {
	key  int64
	full bool
	val  V
}

// reset empties t and makes room for n keys.
func (t *idTable[V]) reset(n int) {
	for _, i := range t.used {
		t.slots[i] = idSlot[V]{}
	}
	t.used = t.used[:0]
	for len(t.slots) < 2*n || len(t.slots) == 0 {
		t.resize()
	}
}

// resize doubles t's slots (16 to start with) and moves the keys over.
func (t *idTable[V]) resize() {
	old := t.slots
	t.slots = make([]idSlot[V], max(16, 2*len(old)))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for k, i := range t.used {
		j := t.slot(old[i].key)
		t.slots[j] = old[i]
		t.used[k] = int32(j)
	}
}

// slot is key's slot: the one that holds it, or the empty one where probing
// for it stops.
func (t *idTable[V]) slot(key int64) int {
	mask := len(t.slots) - 1
	i := int(uint64(key) * fibonacci >> t.shift)
	for t.slots[i].full && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's value, nil when key is absent.
func (t *idTable[V]) find(key int64) *V {
	if s := &t.slots[t.slot(key)]; s.full {
		return &s.val
	}
	return nil
}

// insert returns key's value, adding key with the zero value when absent.
// The pointer is valid until t next grows or resets.
func (t *idTable[V]) insert(key int64) *V {
	if 2*(len(t.used)+1) > len(t.slots) {
		t.resize()
	}
	i := t.slot(key)
	s := &t.slots[i]
	if !s.full {
		s.key, s.full = key, true
		t.used = append(t.used, int32(i))
	}
	return &s.val
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
		for _, to := range g.to[g.off[u]:g.off[u+1]] {
			m[to] = true
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
//
// Whether the graph has a cycle does not depend on the order the search
// visits it in, so one search over the graph as built answers most calls
// (the engine's starvation bound searches on most paper-mix rounds and
// rarely finds a cycle). Which cycle is found first does depend on it, so a
// graph with one is placed in ascending order before the victims are
// chosen.
func (d *Detector) Victims(pending, history []request.Request) []int64 {
	g := d.build(pending, history)
	n := len(g.nodes)
	d.dead = grow(d.dead, n)
	clear(d.dead)
	d.color = grow(d.color, n)
	d.next = grow(d.next, n)
	if d.cycleVictim() < 0 {
		return nil
	}
	d.place(true)
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
// the stack is the grey path — and visits roots and targets in the order
// placed: ascending once placed in order, so the cycle found (and with it
// the victim, the youngest transaction on it) is deterministic.
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
