package relation

import "testing"

func bagSchema() *Schema {
	return NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindInt},
	)
}

func TestBagCountsAndFlatten(t *testing.T) {
	b := NewBag(bagSchema())
	t1 := Tuple{Int(1), Int(2)}
	t2 := Tuple{Int(1), Int(3)}
	if got := b.Add(t1, 1); got != 1 {
		t.Fatalf("add: count %d", got)
	}
	if got := b.Add(t1, 2); got != 3 {
		t.Fatalf("re-add: count %d", got)
	}
	b.Add(t2, 1)
	if b.Len() != 4 || b.DistinctLen() != 2 {
		t.Fatalf("len %d distinct %d", b.Len(), b.DistinctLen())
	}
	if b.Count(t1) != 3 || b.Count(t2) != 1 || b.Count(Tuple{Int(9), Int(9)}) != 0 {
		t.Fatalf("counts: %d %d", b.Count(t1), b.Count(t2))
	}
	rel := b.Relation()
	if rel.Len() != 4 {
		t.Fatalf("flatten: %d rows", rel.Len())
	}
	// Remove more copies than present: refused, bag unchanged.
	if _, ok := b.Remove(t2, 2); ok {
		t.Fatal("over-remove accepted")
	}
	if b.Count(t2) != 1 {
		t.Fatalf("over-remove mutated: %d", b.Count(t2))
	}
	if n, ok := b.Remove(t1, 3); !ok || n != 0 {
		t.Fatalf("remove to zero: %d %v", n, ok)
	}
	if b.Count(t1) != 0 || b.Len() != 1 || b.DistinctLen() != 1 {
		t.Fatalf("after removal: count %d len %d distinct %d", b.Count(t1), b.Len(), b.DistinctLen())
	}
	if _, ok := b.Remove(t1, 1); ok {
		t.Fatal("removing an absent tuple accepted")
	}
}

func TestBagIndexMaintained(t *testing.T) {
	b := NewBag(bagSchema())
	ix := b.Index([]int{0})
	probe := func(key Value) int {
		total := 0
		for _, c := range ix.CandidatesHash(Tuple{key}.HashCols([]int{0})) {
			if c.Tuple()[0].Equal(key) {
				total += c.Count()
			}
		}
		return total
	}
	b.Add(Tuple{Int(1), Int(2)}, 2)
	b.Add(Tuple{Int(1), Int(3)}, 1)
	b.Add(Tuple{Int(2), Int(2)}, 1)
	if got := probe(Int(1)); got != 3 {
		t.Fatalf("probe after adds: %d", got)
	}
	// Index built after the fact sees the same cells.
	ix2 := b.Index([]int{0, 1})
	if got := len(ix2.CandidatesHash(Tuple{Int(1), Int(2)}.HashCols([]int{0, 1}))); got != 1 {
		t.Fatalf("late index: %d candidates", got)
	}
	// Removal to zero unlinks from every index; partial removal keeps the cell.
	b.Remove(Tuple{Int(1), Int(2)}, 1)
	if got := probe(Int(1)); got != 2 {
		t.Fatalf("probe after partial removal: %d", got)
	}
	b.Remove(Tuple{Int(1), Int(2)}, 1)
	b.Remove(Tuple{Int(1), Int(3)}, 1)
	if got := probe(Int(1)); got != 0 {
		t.Fatalf("probe after unlink: %d", got)
	}
	if got := probe(Int(2)); got != 1 {
		t.Fatalf("unrelated key disturbed: %d", got)
	}
	// NULL keys are never indexed.
	b.Add(Tuple{Null(), Int(7)}, 1)
	if b.Count(Tuple{Null(), Int(7)}) != 1 {
		t.Fatal("null-key tuple not counted")
	}
	found := false
	for _, bucket := range ix.buckets {
		for _, c := range bucket {
			if c.Tuple()[0].IsNull() {
				found = true
			}
		}
	}
	if found {
		t.Fatal("null key linked into index")
	}
}

// TestBagBulkBatch drives the deferred-index batch API through every
// membership transition: present→absent, absent→present, remove-then-re-add
// (membership unchanged: no index traffic), and create-then-remove within the
// batch (never linked). After EndBulk the bag and all indexes must be
// indistinguishable from the same mutations applied singly.
func TestBagBulkBatch(t *testing.T) {
	mk := func() (*Bag, *BagIndex) {
		b := NewBag(bagSchema())
		ix := b.Index([]int{0})
		b.Add(Tuple{Int(1), Int(10)}, 2)
		b.Add(Tuple{Int(1), Int(11)}, 1)
		b.Add(Tuple{Int(2), Int(20)}, 1)
		return b, ix
	}
	probe := func(ix *BagIndex, key Value) int {
		total := 0
		for _, c := range ix.CandidatesHash(Tuple{key}.HashCols([]int{0})) {
			if c.Tuple()[0].Equal(key) {
				total += c.Count()
			}
		}
		return total
	}
	apply := func(b *Bag) {
		b.Remove(Tuple{Int(1), Int(11)}, 1) // present → absent
		b.Add(Tuple{Int(3), Int(30)}, 2)    // absent → present
		b.Remove(Tuple{Int(2), Int(20)}, 1) // removed...
		b.Add(Tuple{Int(2), Int(20)}, 3)    // ...and re-added: net count change only
		b.Add(Tuple{Int(4), Int(40)}, 1)    // created...
		b.Remove(Tuple{Int(4), Int(40)}, 1) // ...and removed: must vanish
		b.Add(Tuple{Int(1), Int(10)}, 1)    // count-only change
	}

	single, six := mk()
	apply(single)

	bulk, bix := mk()
	bulk.BeginBulk()
	apply(bulk)
	// Mid-batch counts are exact even for membership changes.
	if bulk.Count(Tuple{Int(1), Int(11)}) != 0 || bulk.Count(Tuple{Int(3), Int(30)}) != 2 {
		t.Fatalf("mid-batch counts wrong: %d %d",
			bulk.Count(Tuple{Int(1), Int(11)}), bulk.Count(Tuple{Int(3), Int(30)}))
	}
	bulk.EndBulk()

	if bulk.Len() != single.Len() || bulk.DistinctLen() != single.DistinctLen() {
		t.Fatalf("bulk len/distinct %d/%d, single %d/%d",
			bulk.Len(), bulk.DistinctLen(), single.Len(), single.DistinctLen())
	}
	single.Each(func(tu Tuple, n int) {
		if got := bulk.Count(tu); got != n {
			t.Errorf("count of %v: bulk %d, single %d", tu, got, n)
		}
	})
	for _, key := range []Value{Int(1), Int(2), Int(3), Int(4)} {
		if g, w := probe(bix, key), probe(six, key); g != w {
			t.Errorf("index probe key %v: bulk %d, single %d", key, g, w)
		}
	}
	// A second batch reuses freed cells; the bag stays consistent.
	bulk.BeginBulk()
	bulk.Add(Tuple{Int(4), Int(40)}, 1)
	bulk.Remove(Tuple{Int(3), Int(30)}, 2)
	bulk.EndBulk()
	if bulk.Count(Tuple{Int(4), Int(40)}) != 1 || bulk.Count(Tuple{Int(3), Int(30)}) != 0 {
		t.Fatalf("second batch wrong: %d %d",
			bulk.Count(Tuple{Int(4), Int(40)}), bulk.Count(Tuple{Int(3), Int(30)}))
	}
	if got := probe(bix, Int(3)); got != 0 {
		t.Fatalf("second-batch unlink missed: %d", got)
	}
	if got := probe(bix, Int(4)); got != 1 {
		t.Fatalf("second-batch link missed: %d", got)
	}
}

func TestBagOfRelation(t *testing.T) {
	r := New(bagSchema())
	r.MustAppend(Tuple{Int(1), Int(1)})
	r.MustAppend(Tuple{Int(1), Int(1)})
	r.MustAppend(Tuple{Int(2), Int(1)})
	b := BagOf(r)
	if b.Len() != 3 || b.DistinctLen() != 2 || b.Count(Tuple{Int(1), Int(1)}) != 2 {
		t.Fatalf("bagof: len %d distinct %d", b.Len(), b.DistinctLen())
	}
	if !b.Relation().Equal(r) {
		t.Fatal("flatten does not round-trip")
	}
}

// churnRound replaces one generation of rows with the next inside a bulk
// batch: gen g's tuples leave (freeing their cells) and gen g+1's arrive
// (recycling them). n is the generation size.
func churnRound(b *Bag, gen, n int) {
	b.BeginBulk()
	for i := 0; i < n; i++ {
		b.Remove(Tuple{Int(int64(gen*n + i)), Int(0)}, 1)
	}
	for i := 0; i < n; i++ {
		b.Add(Tuple{Int(int64((gen+1)*n + i)), Int(0)}, 1)
	}
	b.EndBulk()
}

// TestBagFreelistSteadyState: once warm, per-round churn stops growing the
// freelist — every round recycles the cells the previous round freed.
func TestBagFreelistSteadyState(t *testing.T) {
	const n = 32
	b := NewBag(bagSchema())
	b.Index([]int{0}) // maintained index exercises link/unlink on the way
	b.BeginBulk()
	for i := 0; i < n; i++ {
		b.Add(Tuple{Int(int64(n + i)), Int(0)}, 1)
	}
	b.EndBulk()

	var warm int
	for gen := 1; gen <= 24; gen++ {
		churnRound(b, gen, n)
		if b.Len() != n {
			t.Fatalf("gen %d: bag size %d, want %d", gen, b.Len(), n)
		}
		switch {
		case gen == 4:
			warm = len(b.free)
		case gen > 4:
			if len(b.free) > warm {
				t.Fatalf("gen %d: freelist grew %d -> %d in steady state", gen, warm, len(b.free))
			}
		}
	}
	if warm > n+n/4+4 {
		t.Fatalf("steady-state freelist %d exceeds churn cap for churn %d", warm, n)
	}
}

// TestBagFreelistShrinksAfterBurst: a burst round's surplus cells are
// released once the churn window rolls past the burst.
func TestBagFreelistShrinksAfterBurst(t *testing.T) {
	const burst, small = 1000, 8
	b := NewBag(bagSchema())
	b.BeginBulk()
	for i := 0; i < burst; i++ {
		b.Add(Tuple{Int(int64(i)), Int(1)}, 1)
	}
	b.EndBulk()
	// The burst: drop everything, keep a small working set.
	b.BeginBulk()
	for i := 0; i < burst; i++ {
		b.Remove(Tuple{Int(int64(i)), Int(1)}, 1)
	}
	for i := 0; i < small; i++ {
		b.Add(Tuple{Int(int64(small + i)), Int(0)}, 1)
	}
	b.EndBulk()
	if len(b.free) < burst-small {
		t.Fatalf("freelist right after burst = %d, expected ~%d", len(b.free), burst-small)
	}
	for gen := 1; gen <= bagChurnWindow+1; gen++ {
		churnRound(b, gen, small)
	}
	limit := small + small/4 + 4
	if len(b.free) > limit {
		t.Fatalf("freelist %d after the window rolled, want <= %d", len(b.free), limit)
	}
	// The bag itself still answers exactly.
	if b.Len() != small {
		t.Fatalf("bag size %d after burst cycle, want %d", b.Len(), small)
	}
}

// TestBagMapsStayBoundedUnderTurnover: a bag whose tuples turn over — every
// round removes old tuples and adds fresh ones, each a new hash, as request
// ids are in the SQL protocol's view cache — keeps its hash maps the size of
// what it holds, not of everything it ever held. 100k unique tuples pass
// through a standing population of 64, through both mutation paths.
func TestBagMapsStayBoundedUnderTurnover(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		b := NewBag(bagSchema())
		byA := b.Index([]int{0})
		byB := b.IndexNullable([]int{1})
		const standing, batch, cycles = 64, 10, 10_000
		tuple := func(i int) Tuple { return Tuple{Int(int64(i)), Int(int64(i) * 7)} }
		for i := 0; i < standing; i++ {
			b.Add(tuple(i), 1)
		}
		next := standing
		for c := 0; c < cycles; c++ {
			if bulk {
				b.BeginBulk()
			}
			for k := 0; k < batch; k++ {
				if _, ok := b.Remove(tuple(next-standing), 1); !ok {
					t.Fatalf("bulk=%v cycle %d: tuple %d missing", bulk, c, next-standing)
				}
				b.Add(tuple(next), 1)
				next++
			}
			if bulk {
				b.EndBulk()
			}
		}
		live := b.DistinctLen()
		if live != standing {
			t.Fatalf("bulk=%v: %d distinct tuples, want %d", bulk, live, standing)
		}
		if len(b.cells) > live {
			t.Errorf("bulk=%v: cells map holds %d keys for %d live tuples", bulk, len(b.cells), live)
		}
		for name, ix := range map[string]*BagIndex{"a": byA, "b (nullable)": byB} {
			if len(ix.buckets) > live {
				t.Errorf("bulk=%v: index on %s holds %d keys for %d live tuples", bulk, name, len(ix.buckets), live)
			}
		}
		if got := b.MapKeys(); got > live {
			t.Errorf("bulk=%v: MapKeys %d for %d live tuples", bulk, got, live)
		}
		seen := 0
		b.Each(func(Tuple, int) { seen++ })
		if seen != live {
			t.Errorf("bulk=%v: Each visited %d tuples, want %d", bulk, seen, live)
		}
	}
}

// TestBagIndexUnlinkReleasesCell: the slot a swap-remove vacates at the tail
// of an index bucket is cleared, so the bucket's backing array does not pin a
// cell the bag has freed.
func TestBagIndexUnlinkReleasesCell(t *testing.T) {
	b := NewBag(bagSchema())
	ix := b.Index([]int{0})
	t1, t2 := Tuple{Int(1), Int(1)}, Tuple{Int(1), Int(2)}
	b.Add(t1, 1)
	b.Add(t2, 1)
	h := t1.HashCols([]int{0})
	if _, ok := b.Remove(t2, 1); !ok {
		t.Fatal("remove failed")
	}
	bucket := ix.CandidatesHash(h)
	if len(bucket) != 1 {
		t.Fatalf("bucket has %d cells, want 1", len(bucket))
	}
	if tail := bucket[:2][1]; tail != nil {
		t.Fatalf("vacated tail slot still references a cell (%v)", tail.tuple)
	}
}
