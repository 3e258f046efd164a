package minisql

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// Incremental view maintenance over a compiled plan, the plan's one
// evaluator: NewIVM keeps the base tables and every plan node a delta rule
// reads — the inputs of joins, EXCEPT and DISTINCT, and an unordered root —
// as counted multisets (relation.Bag), the per-protocol view cache, starts
// them empty and applies the base tables' rows as its first delta; Apply
// patches the whole graph from each delta by running each operator's delta
// rule (the initial state is the delta from the empty database, as in
// DBToaster). Every other node — a filter, projection, union or join whose
// parents only stream — passes its delta on and keeps no bag. The rules work
// uniformly on *net* signed deltas (inserts and deletes of the same tuple
// cancel first) against the already updated child states:
//
//   - select/project/union map the child delta directly;
//   - inner join uses Δ(L⋈R) = ΔL⋈R_old + L_new⋈ΔR, probing the bags'
//     maintained key indexes (R_old counts are reconstructed as
//     new − net, so no pre-update snapshot is kept);
//   - semi-, anti- and left joins recompute the match count of exactly the
//     affected left groups — the distinct tuples of ΔL plus the left
//     matches of ΔR's keys — and emit the output transitions. When the
//     right side is a small single-column view (Listing 1's finished-TA
//     subquery), this is precisely "probe a delta-maintained ID set"
//     instead of re-scanning the history;
//   - except and distinct derive membership transitions from the children's
//     new counts and the delta's net.
//
// The rules cost O(|Δ| · matches) per node whatever the delta's size: a
// round that replaces a whole table, and the first delta that builds the
// views, take the same path as a trickle. Only sizing tells them apart: a
// base table's signed delta is reserved for its input, and a bag that is
// empty when a delta reaches it is reserved for the delta's cells
// (applyToBag), so the first delta grows none of them.
//
// Every delta cell carries its tuple's hash, computed once where the tuple
// is made, into every probe of a delta or bag and into the bag patch;
// tuples read off a bag reuse its cached hash. All per-round scratch — the
// signed deltas, vanished-cell chains, match buffers — is pooled on the IVM
// and recycled every Apply.
//
// Ownership: a tuple is held when it is never mutated and stays valid while
// anything references it — the tuples of the caller's deltas (see Delta),
// the instances the bags keep, and column runs of either — and each delta
// cell records whether its tuple is one (scell.held). A bag or the ordered
// root keeps a held tuple as it is; every other tuple a rule builds — a
// projection that is not a column run, a join concatenation —
// is carved from the IVM's region, rewound when Apply returns, and copied to
// the heap exactly when it first becomes present in a bag or in the ordered
// root. A bag patch swaps the cell's tuple for the instance the bag holds,
// whether the patch adds it, counts it again or deletes it, so a row that
// moves from the history bag into a view of it is copied once, not per bag.
// A projection onto a contiguous run of its input's columns (SELECT ta,
// intrata over the five-column requests) shares a held input's backing
// array instead of copying it. Held instances being immutable is what lets
// EXCEPT and anti-joins turn a deleted right-side tuple into an inserted
// left row safely. A steady-state warm round so allocates only the built
// tuples that become present somewhere, and a delete-only round allocates
// none. A view over held rows holds them too: the rewrite folds a column
// projection into the join that reads it (rewrite.go, rule 7), so the join
// reads, and its input's bag keeps, the base table's own instances. Listing
// 1's lock-view joins read the history bag and its write filter's, with their
// anti-joins lifted above them (rule 8), so no read or write of a live
// transaction is copied into a lock view, and the only bags beside those
// two are the joins' outputs, each pairing a pending request with the
// history rows on its object.
//
// Every plan operator has a delta rule (the parser refuses LIMIT, whose
// content would depend on physical row order); a SELECT without FROM emits
// its one row in the first delta. Intermediate views' row order is
// unspecified; a root-level ORDER BY is maintained incrementally
// (orderedRoot): the first delta is sorted once, and the sorted cell list
// absorbs each later root delta by binary search instead of re-sorting the
// full result on every Result call, which was the dominant residual cost of
// a warm round. Ties in the sort keys break by whole-tuple comparison — a
// total order, so every ordering is a valid ORDER BY result and maintenance
// is deterministic; for total sort keys (Listing 1's ORDER BY id) it is
// exactly the re-sort's order.
type IVM struct {
	plan   *Plan
	views  []*view          // node id -> view; pass-through nodes alias their source
	tables map[string]*view // base-table views shared by every scan of the table
	order  *orderedRoot     // maintained root ORDER BY, nil when the root is unsorted
	aux    []nodeAux        // node id -> precomputed key positions / NULL pads
	built  bool             // the first delta is applied (opConst's row is in)

	// Round-scoped scratch, recycled across Apply calls.
	pool     []*sdelta // reset deltas ready for reuse
	inUse    []*sdelta // deltas handed out by the current Apply
	empty    *sdelta   // shared all-zero delta; never mutated
	outs     []*sdelta // node id -> output delta of the current Apply
	tdel     map[string]*sdelta
	van      vanishedScratch
	matchBuf []matchEntry
	resBuf   relation.Tuple  // residual-predicate concat buffer
	region   relation.Region // the round's built tuples, rewound by Apply
}

// nodeAux holds the per-node constants the delta rules would otherwise
// rebuild every round: the equi-key column positions of each side, for left
// joins the NULL pad tuple, and for a projection whose items are the input
// columns run, run+1, …, run+len(items)-1 the run's first column (-1 when
// the items are no such run).
type nodeAux struct {
	lpos, rpos []int
	nulls      relation.Tuple
	run        int
}

// Delta is a bag-valued change to one base table: Ins tuples are added, Del
// tuples removed. A tuple appearing equally often in both is a net no-op
// (the two event orders of the scheduler's stores — pending's remove-then-
// add and history's add-then-remove — both net correctly). Apply may keep
// the tuples it is given — a base bag holds an inserted tuple itself, and a
// view over it may hold a column run of it — so the caller must never
// mutate or reuse them; a delete swaps in the bag's own instance. The slices
// are not kept.
type Delta struct {
	Ins, Del []relation.Tuple
}

// view is the materialised state of one plan node.
type view struct {
	node *planNode
	bag  *relation.Bag
}

// NewIVM builds p's view cache from empty: every view starts empty and
// first — each base table's rows as an insert delta, keyed by table name —
// is its first Apply, so a build runs the delta rules every later round
// runs. A table first does not name starts empty. The tuples of first are
// kept under Apply's contract (see Delta).
func NewIVM(p *Plan, first map[string]Delta) (*IVM, error) {
	m := &IVM{
		plan:   p,
		views:  make([]*view, len(p.nodes)),
		tables: make(map[string]*view),
		aux:    make([]nodeAux, len(p.nodes)),
		empty:  newSdelta(),
		van:    vanishedScratch{chain: relation.NewChain()},
	}
	for _, n := range p.nodes {
		switch n.op {
		case opScan:
			if n.cte >= 0 {
				m.views[n.id] = m.views[p.ctes[n.cte].id]
				continue
			}
			tv := m.tables[n.table]
			if tv == nil {
				tv = &view{node: n, bag: relation.NewBag(n.schema)}
				m.tables[n.table] = tv
			}
			m.views[n.id] = tv
		case opRename, opOrderBy:
			m.views[n.id] = m.views[n.l.id]
		default:
			m.views[n.id] = &view{node: n}
		}
	}
	// A view keeps a bag only where a delta rule reads one: the inputs of
	// joins, EXCEPT and DISTINCT, and an unordered root (besides the base
	// tables, whose bags refuse a delete of a row they never held).
	// Every other node streams its delta to its parents.
	materialise := func(n *planNode) {
		if v := m.views[n.id]; v.bag == nil {
			v.bag = relation.NewBag(v.node.schema)
		}
	}
	for _, n := range p.nodes {
		switch n.op {
		case opJoin, opLeftJoin, opSemi, opExcept:
			materialise(n.l)
			materialise(n.r)
		case opDistinct:
			materialise(n.l)
		}
	}
	if root := p.root; root.op == opOrderBy {
		m.order = &orderedRoot{sorts: root.sorts}
	} else {
		materialise(root)
	}
	// Build the indexes the delta rules probe, while every bag is empty, and
	// the per-node constants.
	for _, n := range m.plan.nodes {
		switch n.op {
		case opJoin, opLeftJoin, opSemi:
			if len(n.keys) > 0 {
				lpos, rpos := keyCols(n.keys)
				m.aux[n.id].lpos, m.aux[n.id].rpos = lpos, rpos
				m.views[n.l.id].bag.Index(lpos)
				m.views[n.r.id].bag.Index(rpos)
			}
			if n.op == opLeftJoin {
				nulls := make(relation.Tuple, n.r.schema.Len())
				for i := range nulls {
					nulls[i] = relation.Null()
				}
				m.aux[n.id].nulls = nulls
			}
		case opProject:
			m.aux[n.id].run = columnRun(n.items)
		}
	}
	if err := m.Apply(first); err != nil {
		return nil, err
	}
	return m, nil
}

// columnRun returns k when the projection items are the input columns k,
// k+1, …, k+len(items)-1, in that order, and -1 otherwise.
func columnRun(items []ra.NamedExpr) int {
	k := -1
	for i, it := range items {
		c, ok := it.E.(ra.Col)
		if !ok || (i > 0 && c.Pos != k+i) {
			return -1
		}
		if i == 0 {
			k = c.Pos
		}
	}
	return k
}

// Bags returns the materialised views, one bag per base table and per plan
// node that owns one. Read-only: the bounded-growth tests check each bag's
// footprint against what it holds (relation.Bag.Buckets).
func (m *IVM) Bags() []*relation.Bag {
	var out []*relation.Bag
	for _, tv := range m.tables {
		out = append(out, tv.bag)
	}
	for _, n := range m.plan.nodes {
		if v := m.views[n.id]; v != nil && v.node == n && n.op != opScan && v.bag != nil {
			out = append(out, v.bag)
		}
	}
	return out
}

// Explain renders the plan as Plan.String does, with each materialised
// view's size at the end of its node's line: the bag's distinct rows and the
// columns of each index the delta rules keep on it (a base table's bag under
// every scan of the table), and the ordered root's distinct rows. It reads
// the views as they stand and times nothing, so the per-node footprint of a
// view cache can be read without touching the round path.
func (m *IVM) Explain() string {
	return m.plan.render(func(n *planNode) string {
		if n == m.plan.root && m.order != nil {
			return fmt.Sprintf("  [ordered: %d distinct rows]", len(m.order.cells))
		}
		v := m.views[n.id]
		if v == nil || v.bag == nil || v.node != n && (n.op != opScan || n.cte >= 0) {
			return ""
		}
		var b strings.Builder
		fmt.Fprintf(&b, "  [%d distinct rows", v.bag.DistinctLen())
		for i, ix := range v.bag.Indexes() {
			if i == 0 {
				b.WriteString("; indexed on ")
			} else {
				b.WriteString(", ")
			}
			names := make([]string, len(ix.Cols()))
			for k, c := range ix.Cols() {
				names[k] = n.schema.Col(c).Name
			}
			fmt.Fprintf(&b, "(%s)", strings.Join(names, ", "))
		}
		b.WriteString("]")
		return b.String()
	})
}

// Result flattens the maintained root view into a relation (see
// AppendResult).
func (m *IVM) Result() (*relation.Relation, error) {
	rel := relation.New(m.plan.root.schema)
	rel.AppendTrusted(m.AppendResult(nil)...)
	return rel, nil
}

// AppendResult appends the maintained root view's rows to dst, each as often
// as it counts, and returns the extended slice. With a root-level ORDER BY the
// incrementally maintained sorted cells are emitted directly — no re-sort;
// otherwise row order is unspecified. The rows are the view cache's own:
// the caller must not mutate them.
func (m *IVM) AppendResult(dst []relation.Tuple) []relation.Tuple {
	if m.order != nil {
		return m.order.appendRows(dst)
	}
	b := m.views[m.plan.root.id].bag
	dst = slices.Grow(dst, b.Len())
	for p := range int32(b.DistinctLen()) {
		for range b.CountAt(p) {
			dst = append(dst, b.At(p))
		}
	}
	return dst
}

// acquire hands out a reset signed delta from the pool; every delta acquired
// during an Apply is recycled when the Apply finishes.
func (m *IVM) acquire() *sdelta {
	var d *sdelta
	if n := len(m.pool); n > 0 {
		d = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		d = newSdelta()
	}
	m.inUse = append(m.inUse, d)
	return d
}

// releaseAll ends the round: every delta goes back to the pool and the
// region is rewound (no bag holds a tuple carved from it).
func (m *IVM) releaseAll() {
	for i, d := range m.inUse {
		d.reset()
		m.pool = append(m.pool, d)
		m.inUse[i] = nil
	}
	m.inUse = m.inUse[:0]
	m.region.Reset()
}

// Apply patches every view from the given base-table deltas (keyed by
// lower-cased table name; tables the plan does not read are ignored). On
// error the IVM's state is undefined and the caller must discard it — the
// usual cause is a delta diverging from the maintained ground truth
// (deleting a tuple that is not present).
func (m *IVM) Apply(deltas map[string]Delta) error {
	if m.outs == nil {
		m.outs = make([]*sdelta, len(m.plan.nodes))
	}
	outs := m.outs
	first := !m.built
	m.built = true
	defer func() {
		for i := range outs {
			outs[i] = nil
		}
		m.releaseAll()
	}()
	// Net the base deltas and patch the base-table bags first: every rule
	// below reads children's *new* states.
	if m.tdel == nil {
		m.tdel = make(map[string]*sdelta, len(deltas))
	} else {
		clear(m.tdel)
	}
	for name, d := range deltas {
		tv := m.tables[strings.ToLower(name)]
		if tv == nil {
			continue
		}
		sd := m.acquire()
		sd.reserve(len(d.Ins) + len(d.Del))
		for _, t := range d.Ins {
			sd.add(t, 1, true)
		}
		for _, t := range d.Del {
			sd.add(t, -1, true)
		}
		m.tdel[strings.ToLower(name)] = sd
		if err := applyToBag(tv.bag, sd); err != nil {
			return fmt.Errorf("minisql: ivm: table %s: %w", name, err)
		}
	}
	for _, n := range m.plan.nodes {
		switch n.op {
		case opScan:
			if n.cte >= 0 {
				outs[n.id] = outs[m.plan.ctes[n.cte].id]
				continue
			}
			if sd := m.tdel[n.table]; sd != nil {
				outs[n.id] = sd
			} else {
				outs[n.id] = m.empty
			}
			continue
		case opRename, opOrderBy:
			outs[n.id] = outs[n.l.id]
			continue
		}
		var dL, dR *sdelta
		if n.l != nil {
			dL = outs[n.l.id]
		}
		if n.r != nil {
			dR = outs[n.r.id]
		}
		var out *sdelta
		switch n.op {
		case opConst:
			out = m.empty
			if first {
				out = m.acquire()
				out.add(relation.Tuple{}, 1, true)
			}
		case opSelect:
			out = m.selectDelta(n, dL)
		case opProject:
			out = m.projectDelta(n, dL)
		case opJoin:
			out = m.joinDelta(n, dL, dR)
		case opLeftJoin, opSemi:
			out = m.matchDelta(n, dL, dR)
		case opUnionAll:
			out = m.acquire()
			for _, d := range [2]*sdelta{dL, dR} {
				for i := range d.cells {
					c := &d.cells[i]
					out.addHash(c.t, c.h, c.n, c.held)
				}
			}
		case opExcept:
			out = m.exceptDelta(n, dL, dR)
		case opDistinct:
			out = m.distinctDelta(n, dL)
		default:
			return fmt.Errorf("minisql: ivm: no delta rule for operator %d", n.op)
		}
		outs[n.id] = out
		if b := m.views[n.id].bag; b != nil {
			if err := applyToBag(b, out); err != nil {
				return fmt.Errorf("minisql: ivm: node %d: %w", n.id, err)
			}
		}
	}
	if m.order != nil {
		if err := m.order.apply(outs[m.plan.root.id]); err != nil {
			return err
		}
	}
	return nil
}

// orderedRoot maintains the root ORDER BY result as a sorted list of counted
// cells. Cells are ordered by the sort specs with a whole-tuple tie-break
// (Value.Compare is total and agrees with Equal, so the order is total and
// binary search identifies a tuple's unique cell). Each round's root delta
// is merged in O(churn · (log n + move)) instead of re-sorting all n rows.
type orderedRoot struct {
	sorts []ra.SortSpec
	cells []orderedCell
	total int // row count, summed over cell counts
}

type orderedCell struct {
	t relation.Tuple
	n int
}

// cmp is the total cell order: sort specs first, then the remaining columns
// lexicographically. cmp == 0 implies tuple equality.
func (o *orderedRoot) cmp(a, b relation.Tuple) int {
	for _, s := range o.sorts {
		c := a[s.Pos].Compare(b[s.Pos])
		if s.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// apply merges a net signed delta into the sorted cells. A delta that finds
// no cells — the first, say — is sorted once instead (fill).
func (o *orderedRoot) apply(d *sdelta) error {
	if len(o.cells) == 0 {
		return o.fill(d)
	}
	for ci := range d.cells {
		c := &d.cells[ci]
		if c.n == 0 {
			continue
		}
		i := sort.Search(len(o.cells), func(i int) bool { return o.cmp(o.cells[i].t, c.t) >= 0 })
		if i < len(o.cells) && o.cmp(o.cells[i].t, c.t) == 0 {
			o.cells[i].n += c.n
			o.total += c.n
			switch {
			case o.cells[i].n == 0:
				o.cells = append(o.cells[:i], o.cells[i+1:]...)
			case o.cells[i].n < 0:
				return fmt.Errorf("minisql: ivm: ordered root count below zero for %s", c.t)
			}
			continue
		}
		if c.n < 0 {
			return fmt.Errorf("minisql: ivm: ordered root delta removes absent %s", c.t)
		}
		t := c.t
		if !c.held {
			t = t.Clone()
		}
		o.cells = append(o.cells, orderedCell{})
		copy(o.cells[i+1:], o.cells[i:])
		o.cells[i] = orderedCell{t: t, n: c.n}
		o.total += c.n
	}
	return nil
}

// fill sorts a net delta into the empty cell list. The delta's cells are
// distinct tuples, so each becomes one cell.
func (o *orderedRoot) fill(d *sdelta) error {
	o.cells = slices.Grow(o.cells, len(d.cells))
	for ci := range d.cells {
		c := &d.cells[ci]
		if c.n == 0 {
			continue
		}
		if c.n < 0 {
			return fmt.Errorf("minisql: ivm: ordered root delta removes absent %s", c.t)
		}
		t := c.t
		if !c.held {
			t = t.Clone()
		}
		o.cells = append(o.cells, orderedCell{t: t, n: c.n})
		o.total += c.n
	}
	slices.SortFunc(o.cells, func(a, b orderedCell) int { return o.cmp(a.t, b.t) })
	return nil
}

// appendRows appends the sorted rows to dst, each cell repeated by its count.
func (o *orderedRoot) appendRows(dst []relation.Tuple) []relation.Tuple {
	dst = slices.Grow(dst, o.total)
	for _, c := range o.cells {
		for range c.n {
			dst = append(dst, c.t)
		}
	}
	return dst
}

// sdelta is a signed counted multiset: the net form every delta rule works
// on. Cells keep insertion order so propagation stays deterministic and
// carry their tuple's hash; a relation.Chain files them by it. The
// representation is pool-friendly — a reset delta clears only the buckets it
// used and reuses all of its storage — so a steady-state round allocates
// nothing here.
type sdelta struct {
	cells []scell
	chain relation.Chain
}

// scell is one tuple's net change. held reports that t is an instance a bag
// holds or held (see IVM: never mutated, valid as long as it is referenced),
// which a bag or the ordered root may keep as it is; any other t lives for
// the round and is copied when it becomes present.
type scell struct {
	t    relation.Tuple
	h    uint64 // t.Hash()
	n    int
	held bool
}

func newSdelta() *sdelta { return &sdelta{chain: relation.NewChain()} }

// reserve sizes an empty delta for n cells, so filling it grows nothing.
func (d *sdelta) reserve(n int) {
	d.cells = slices.Grow(d.cells, n)
	d.chain.Reserve(n)
	d.chain.ReserveLinks(n)
}

// find returns the index of t's cell, h being t.Hash(), or -1.
func (d *sdelta) find(t relation.Tuple, h uint64) int32 {
	for p := d.chain.First(h); p >= 0; p = d.chain.Next(p) {
		if d.cells[p].h == h && d.cells[p].t.Equal(t) {
			return p
		}
	}
	return -1
}

// push appends a cell for a tuple known to be absent.
func (d *sdelta) push(t relation.Tuple, h uint64, k int, held bool) {
	if len(d.cells) == d.chain.Buckets() {
		d.chain.Grow(func(p int32) uint64 { return d.cells[p].h })
	}
	d.cells = append(d.cells, scell{t: t, h: h, n: k, held: held})
	d.chain.Link(h)
}

// add adds k to t's net count; held says whether t is a held instance.
func (d *sdelta) add(t relation.Tuple, k int, held bool) { d.addHash(t, t.Hash(), k, held) }

// addHash is add for a caller that already holds h = t.Hash(). A held t
// replaces a cell's round-lived tuple, so the cell need not be copied.
func (d *sdelta) addHash(t relation.Tuple, h uint64, k int, held bool) {
	if k == 0 {
		return
	}
	if p := d.find(t, h); p >= 0 {
		c := &d.cells[p]
		c.n += k
		if held && !c.held {
			c.t, c.held = t, true
		}
	} else {
		d.push(t, h, k, held)
	}
}

// net returns the signed count for t, whose hash is h (0 when untouched).
func (d *sdelta) net(t relation.Tuple, h uint64) int {
	if p := d.find(t, h); p >= 0 {
		return d.cells[p].n
	}
	return 0
}

// ensure registers t, a held instance, with net 0 if absent — the zero-net
// marker the affected-group collection uses for dedup (add drops k == 0 on
// purpose).
func (d *sdelta) ensure(t relation.Tuple, h uint64) {
	if d.find(t, h) < 0 {
		d.push(t, h, 0, true)
	}
}

// reset empties the delta for reuse, dropping tuple references so recycled
// cells do not keep dead rows alive.
func (d *sdelta) reset() {
	clear(d.cells)
	d.cells = d.cells[:0]
	d.chain.Reset()
}

// applyToBag patches a bag with a net delta. Its cells are distinct tuples,
// so each is one count change, and the bag reuses the cell's hash. A tuple
// new to the bag enters as itself when held and as a heap copy otherwise;
// every changed cell then carries the instance the bag holds (or held, for
// a delete), so the parents' rules and bags share it. An empty bag — every
// bag, when the first delta reaches it — is first reserved for the delta's
// cells.
func applyToBag(b *relation.Bag, d *sdelta) error {
	if b.DistinctLen() == 0 {
		b.Reserve(len(d.cells))
	}
	for i := range d.cells {
		c := &d.cells[i]
		if c.n == 0 {
			continue
		}
		p := b.Find(c.t, c.h)
		switch {
		case p >= 0:
			c.t, c.held = b.At(p), true
			if c.n > 0 {
				b.AddAt(p, c.n)
			} else if _, ok := b.RemoveAt(p, -c.n); !ok {
				return fmt.Errorf("delta removes %s beyond its count", c.t)
			}
		case c.n > 0:
			if !c.held {
				c.t, c.held = c.t.Clone(), true
			}
			b.AddNew(c.t, c.h, c.n)
		default:
			return fmt.Errorf("delta removes absent %s", c.t)
		}
	}
	return nil
}

// keyCols splits equi-keys into per-side position lists.
func keyCols(keys []ra.EquiKey) (lpos, rpos []int) {
	lpos = make([]int, len(keys))
	rpos = make([]int, len(keys))
	for i, k := range keys {
		lpos[i], rpos[i] = k.L, k.R
	}
	return lpos, rpos
}

// sideKeyHash hashes t's key columns; ok is false when any is NULL (a NULL
// key never equi-matches).
func sideKeyHash(t relation.Tuple, pos []int) (uint64, bool) {
	for _, p := range pos {
		if t[p].IsNull() {
			return 0, false
		}
	}
	return t.HashCols(pos), true
}

// sideKeysEqual verifies a hash-bucket hit: the key columns of a and b must
// really match, and neither side may hold a NULL.
func sideKeysEqual(a relation.Tuple, apos []int, b relation.Tuple, bpos []int) bool {
	for i := range apos {
		if a[apos[i]].IsNull() || b[bpos[i]].IsNull() || !a[apos[i]].Equal(b[bpos[i]]) {
			return false
		}
	}
	return true
}

// concat carves a ++ b from the round's region.
func (m *IVM) concat(a, b relation.Tuple) relation.Tuple {
	t := m.region.New(len(a) + len(b))
	copy(t[copy(t, a):], b)
	return t
}

// residualTrue evaluates a join residual over the concatenated tuple (nil
// residual always passes).
func residualTrue(pred ra.Expr, buf *relation.Tuple, lt, rt relation.Tuple) bool {
	if pred == nil {
		return true
	}
	*buf = append(append((*buf)[:0], lt...), rt...)
	return ra.Truth(pred.Eval(*buf)) == ra.True
}

func (m *IVM) selectDelta(n *planNode, dL *sdelta) *sdelta {
	out := m.acquire()
	for i := range dL.cells {
		c := &dL.cells[i]
		if c.n == 0 {
			continue
		}
		pass := true
		for _, p := range n.preds {
			if ra.Truth(p.Eval(c.t)) != ra.True {
				pass = false
				break
			}
		}
		if pass {
			out.push(c.t, c.h, c.n, c.held) // dL's cells are distinct tuples
		}
	}
	return out
}

// projectDelta maps the child delta through the projection items. A held
// cell's column run is shared as a held slice of it; any other cell's row is
// built in the round's region.
func (m *IVM) projectDelta(n *planNode, dL *sdelta) *sdelta {
	out := m.acquire()
	run, w := m.aux[n.id].run, len(n.items)
	for i := range dL.cells {
		c := &dL.cells[i]
		if c.n == 0 {
			continue
		}
		if run >= 0 && c.held {
			out.add(c.t[run:run+w:run+w], c.n, true)
			continue
		}
		nt := m.region.New(w)
		for i, it := range n.items {
			nt[i] = it.E.Eval(c.t)
		}
		out.add(nt, c.n, false)
	}
	return out
}

// vanishedScratch collects the delta cells that were removed from a bag
// entirely (new count 0, negative net): the part of the old state an index
// probe of the new state can no longer see. The cells are recorded as
// indexes into the delta's cell slice, chained per key hash when the
// operator has equi-keys — bulk deletes would otherwise make propagation
// O(|ΔL| × |vanished|). One scratch instance serves every node of a round in
// turn; collect resets it.
type vanishedScratch struct {
	idxs  []int32
	keys  []uint64       // key hash per entry (keyed mode only)
	chain relation.Chain // entries filed by key hash (keyed mode only)
}

// collect gathers the vanished cells of d against bag b. With rpos the
// entries are chained by key hash and NULL-key cells are dropped (they can
// never equi-match); without, all entries land in idxs for a linear scan.
func (v *vanishedScratch) collect(b *relation.Bag, d *sdelta, rpos []int, keyed bool) {
	v.idxs, v.keys = v.idxs[:0], v.keys[:0]
	v.chain.Reset()
	for i := range d.cells {
		c := &d.cells[i]
		if c.n >= 0 || b.CountHash(c.t, c.h) != 0 {
			continue
		}
		if keyed {
			h, ok := sideKeyHash(c.t, rpos)
			if !ok {
				continue
			}
			if len(v.idxs) == v.chain.Buckets() {
				v.chain.Grow(func(p int32) uint64 { return v.keys[p] })
			}
			v.keys = append(v.keys, h)
			v.chain.Link(h)
		}
		v.idxs = append(v.idxs, int32(i))
	}
}

// each calls fn with the index of every vanished cell that may match key
// hash h (keyed mode; the caller verifies the key columns).
func (v *vanishedScratch) each(h uint64, fn func(i int32)) {
	for p := v.chain.First(h); p >= 0; p = v.chain.Next(p) {
		if v.keys[p] == h {
			fn(v.idxs[p])
		}
	}
}

// joinDelta is the inner-join rule: Δ = ΔL ⋈ R_old  +  L_new ⋈ ΔR. R_old
// counts are reconstructed as new − net; right tuples deleted to zero are
// re-surfaced from the delta's vanished cells.
func (m *IVM) joinDelta(n *planNode, dL, dR *sdelta) *sdelta {
	lbag := m.views[n.l.id].bag
	rbag := m.views[n.r.id].bag
	aux := &m.aux[n.id]
	out := m.acquire()
	// L_new ⋈ ΔR.
	if len(dR.cells) > 0 {
		var lix *relation.BagIndex
		if len(n.keys) > 0 {
			lix = lbag.Index(aux.lpos)
		}
		for i := range dR.cells {
			rc := &dR.cells[i]
			if rc.n == 0 {
				continue
			}
			emit := func(p int32) {
				lt := lbag.At(p)
				if len(n.keys) > 0 && !sideKeysEqual(lt, aux.lpos, rc.t, aux.rpos) {
					return
				}
				if residualTrue(n.pred, &m.resBuf, lt, rc.t) {
					out.add(m.concat(lt, rc.t), lbag.CountAt(p)*rc.n, false)
				}
			}
			if lix == nil {
				for p := range int32(lbag.DistinctLen()) {
					emit(p)
				}
			} else if h, ok := sideKeyHash(rc.t, aux.rpos); ok {
				for p := lix.First(h); p >= 0; p = lix.Next(p) {
					emit(p)
				}
			}
		}
	}
	// ΔL ⋈ R_old.
	if len(dL.cells) > 0 {
		var rix *relation.BagIndex
		keyed := len(n.keys) > 0
		m.van.collect(rbag, dR, aux.rpos, keyed)
		if keyed {
			rix = rbag.Index(aux.rpos)
		}
		for i := range dL.cells {
			lc := &dL.cells[i]
			if lc.n == 0 {
				continue
			}
			emit := func(rt relation.Tuple, rh uint64, newCnt int) {
				if keyed && !sideKeysEqual(lc.t, aux.lpos, rt, aux.rpos) {
					return
				}
				oldCnt := newCnt - dR.net(rt, rh)
				if oldCnt == 0 {
					return
				}
				if residualTrue(n.pred, &m.resBuf, lc.t, rt) {
					out.add(m.concat(lc.t, rt), lc.n*oldCnt, false)
				}
			}
			vanished := func(vi int32) { emit(dR.cells[vi].t, dR.cells[vi].h, 0) }
			if rix == nil {
				for p := range int32(rbag.DistinctLen()) {
					emit(rbag.At(p), rbag.HashAt(p), rbag.CountAt(p))
				}
				for _, vi := range m.van.idxs {
					vanished(vi)
				}
			} else if h, ok := sideKeyHash(lc.t, aux.lpos); ok {
				for p := rix.First(h); p >= 0; p = rix.Next(p) {
					emit(rbag.At(p), rbag.HashAt(p), rbag.CountAt(p))
				}
				m.van.each(h, vanished)
			}
			// NULL key with keys present: never joins, and vanished rows
			// cannot match either.
		}
	}
	return out
}

// matchEntry is one right-side match of an affected left group in
// matchDelta, with its new and reconstructed old counts.
type matchEntry struct {
	rt             relation.Tuple
	newCnt, oldCnt int
}

// matchDelta is the shared rule of the match-dependent operators — semi-,
// anti- and left joins: collect the affected left groups (ΔL's tuples plus
// the left matches of ΔR's keys), recompute each group's old and new match
// counts against the right view, and emit the output transitions. With a
// single-column right view this degenerates to hash-set membership probes.
func (m *IVM) matchDelta(n *planNode, dL, dR *sdelta) *sdelta {
	lbag := m.views[n.l.id].bag
	rbag := m.views[n.r.id].bag
	aux := &m.aux[n.id]
	keyed := len(n.keys) > 0

	// Affected left groups, deduplicated, in deterministic order.
	affected := m.acquire()
	for i := range dL.cells {
		c := &dL.cells[i]
		if c.n != 0 {
			affected.push(c.t, c.h, c.n, c.held) // dL's cells are distinct tuples
		}
	}
	if len(dR.cells) > 0 {
		if !keyed {
			for p := range int32(lbag.DistinctLen()) {
				affected.ensure(lbag.At(p), lbag.HashAt(p))
			}
		} else {
			lix := lbag.Index(aux.lpos)
			for i := range dR.cells {
				rc := &dR.cells[i]
				if rc.n == 0 {
					continue
				}
				if h, ok := sideKeyHash(rc.t, aux.rpos); ok {
					for p := lix.First(h); p >= 0; p = lix.Next(p) {
						if sideKeysEqual(lbag.At(p), aux.lpos, rc.t, aux.rpos) {
							affected.ensure(lbag.At(p), lbag.HashAt(p))
						}
					}
				}
			}
		}
	}

	var rix *relation.BagIndex
	m.van.collect(rbag, dR, aux.rpos, keyed)
	if keyed {
		rix = rbag.Index(aux.rpos)
	}
	out := m.acquire()
	matches := m.matchBuf[:0]
	for ai := range affected.cells {
		lt, lh, lheld := affected.cells[ai].t, affected.cells[ai].h, affected.cells[ai].held
		newMult := lbag.CountHash(lt, lh)
		oldMult := newMult - dL.net(lt, lh)
		matches = matches[:0]
		newMatch, oldMatch := 0, 0
		consider := func(rt relation.Tuple, rh uint64, newCnt int) {
			if keyed && !sideKeysEqual(lt, aux.lpos, rt, aux.rpos) {
				return
			}
			if !residualTrue(n.pred, &m.resBuf, lt, rt) {
				return
			}
			oldCnt := newCnt - dR.net(rt, rh)
			newMatch += newCnt
			oldMatch += oldCnt
			if n.op == opLeftJoin {
				matches = append(matches, matchEntry{rt: rt, newCnt: newCnt, oldCnt: oldCnt})
			}
		}
		vanished := func(vi int32) { consider(dR.cells[vi].t, dR.cells[vi].h, 0) }
		if !keyed {
			for p := range int32(rbag.DistinctLen()) {
				consider(rbag.At(p), rbag.HashAt(p), rbag.CountAt(p))
			}
			for _, vi := range m.van.idxs {
				vanished(vi)
			}
		} else if h, ok := sideKeyHash(lt, aux.lpos); ok {
			for p := rix.First(h); p >= 0; p = rix.Next(p) {
				consider(rbag.At(p), rbag.HashAt(p), rbag.CountAt(p))
			}
			m.van.each(h, vanished)
		}
		if n.op == opLeftJoin {
			for _, mt := range matches {
				if d := newMult*mt.newCnt - oldMult*mt.oldCnt; d != 0 {
					out.add(m.concat(lt, mt.rt), d, false)
				}
			}
			newPad, oldPad := 0, 0
			if newMatch == 0 {
				newPad = newMult
			}
			if oldMatch == 0 {
				oldPad = oldMult
			}
			if d := newPad - oldPad; d != 0 {
				out.add(m.concat(lt, aux.nulls), d, false)
			}
			continue
		}
		condNew, condOld := newMatch > 0, oldMatch > 0
		if n.anti {
			condNew, condOld = !condNew, !condOld
		}
		newOut, oldOut := 0, 0
		if condNew {
			newOut = newMult
		}
		if condOld {
			oldOut = oldMult
		}
		if d := newOut - oldOut; d != 0 {
			out.push(lt, lh, d, lheld) // affected's cells are distinct tuples
		}
	}
	m.matchBuf = matches[:0]
	return out
}

func (m *IVM) exceptDelta(n *planNode, dL, dR *sdelta) *sdelta {
	lbag := m.views[n.l.id].bag
	rbag := m.views[n.r.id].bag
	out := m.acquire()
	emit := func(c *scell) {
		if c.n == 0 || out.find(c.t, c.h) >= 0 {
			return // dL and dR may both hold t: its transition is out already
		}
		newL, newR := lbag.CountHash(c.t, c.h), rbag.CountHash(c.t, c.h)
		oldL := newL - dL.net(c.t, c.h)
		oldR := newR - dR.net(c.t, c.h)
		inNew := newL > 0 && newR == 0
		inOld := oldL > 0 && oldR == 0
		switch {
		case inNew && !inOld:
			out.push(c.t, c.h, 1, c.held)
		case !inNew && inOld:
			out.push(c.t, c.h, -1, c.held)
		}
	}
	for i := range dL.cells {
		emit(&dL.cells[i])
	}
	for i := range dR.cells {
		emit(&dR.cells[i])
	}
	return out
}

func (m *IVM) distinctDelta(n *planNode, dL *sdelta) *sdelta {
	lbag := m.views[n.l.id].bag
	out := m.acquire()
	for i := range dL.cells {
		c := &dL.cells[i]
		if c.n == 0 {
			continue
		}
		newC := lbag.CountHash(c.t, c.h)
		oldC := newC - c.n
		switch {
		case newC > 0 && oldC <= 0:
			out.push(c.t, c.h, 1, c.held) // dL's cells are distinct tuples
		case newC <= 0 && oldC > 0:
			out.push(c.t, c.h, -1, c.held)
		}
	}
	return out
}
