package relation

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

func bagSchema() *Schema {
	return NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindInt},
	)
}

// probeCount sums the counts of the tuples whose ix columns equal key,
// walking the index the way the delta rules do.
func probeCount(b *Bag, ix *BagIndex, key Tuple) int {
	total := 0
	for p := ix.First(HashValues(key)); p >= 0; p = ix.Next(p) {
		if keyMatches(b.At(p), ix.Cols(), key) {
			total += b.CountAt(p)
		}
	}
	return total
}

func keyMatches(t Tuple, cols []int, key Tuple) bool {
	for i, c := range cols {
		if !t[c].Equal(key[i]) {
			return false
		}
	}
	return true
}

// checkBag verifies the layout every mutation must preserve: parallel dense
// arrays with positive counts and exact cached hashes, a total that sums the
// counts, every chain consistent (Chain.Check) over the same bucket count
// with non-nullable indexes filing NULL keys nowhere, the load factor at most
// 1, the footprint bound, and no tuple referenced past the live positions.
func checkBag(b *Bag) error { return checkBagOver(b, 0) }

// checkBagOver is checkBag for a bag that was Reset or Reserved at floor
// buckets: its footprint bound is max(floor, 4·DistinctLen() + MinBuckets).
func checkBagOver(b *Bag, floor int) error {
	n := len(b.tuples)
	if len(b.counts) != n || len(b.hashes) != n {
		return fmt.Errorf("%d tuples, %d counts, %d hashes", n, len(b.counts), len(b.hashes))
	}
	total := 0
	for p, t := range b.tuples {
		if b.counts[p] <= 0 {
			return fmt.Errorf("position %d (%s) holds count %d", p, t, b.counts[p])
		}
		if b.hashes[p] != t.Hash() {
			return fmt.Errorf("position %d (%s) caches a stale hash", p, t)
		}
		total += b.counts[p]
	}
	if total != b.total {
		return fmt.Errorf("counts sum to %d, Len says %d", total, b.total)
	}
	nb := b.Buckets()
	if n > nb || nb > max(floor, 4*n+MinBuckets) {
		return fmt.Errorf("%d buckets for %d tuples", nb, n)
	}
	if err := b.member.Check(n, func(p int32) (uint64, bool) { return b.hashes[p], true }); err != nil {
		return fmt.Errorf("membership %w", err)
	}
	for _, ix := range b.indexes {
		if ix.chain.Buckets() != nb {
			return fmt.Errorf("index %v: %d buckets, membership %d", ix.cols, ix.chain.Buckets(), nb)
		}
		if err := ix.chain.Check(n, func(p int32) (uint64, bool) { return ix.keyHash(b.tuples[p]) }); err != nil {
			return fmt.Errorf("index %v (nullable %v): %w", ix.cols, ix.nullable, err)
		}
	}
	for i, t := range b.tuples[n:cap(b.tuples)] {
		if t != nil {
			return fmt.Errorf("slot %d past the %d live positions still references %s", n+i, n, t)
		}
	}
	return nil
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
	probe := func(key Value) int { return probeCount(b, ix, Tuple{key}) }
	b.Add(Tuple{Int(1), Int(2)}, 2)
	b.Add(Tuple{Int(1), Int(3)}, 1)
	b.Add(Tuple{Int(2), Int(2)}, 1)
	if got := probe(Int(1)); got != 3 {
		t.Fatalf("probe after adds: %d", got)
	}
	// Index built after the fact sees the same tuples.
	ix2 := b.Index([]int{0, 1})
	if got := probeCount(b, ix2, Tuple{Int(1), Int(2)}); got != 2 {
		t.Fatalf("late index: count %d", got)
	}
	if b.Index([]int{0}) != ix || b.IndexNullable([]int{0}) == ix {
		t.Fatal("index lookup ignores columns or nullability")
	}
	// Removal to zero unlinks from every index; partial removal keeps the tuple.
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
	// NULL keys are never indexed (checkBag verifies the index files the
	// position nowhere); the nullable index groups them.
	b.Add(Tuple{Null(), Int(7)}, 1)
	if b.Count(Tuple{Null(), Int(7)}) != 1 {
		t.Fatal("null-key tuple not counted")
	}
	if got := probe(Null()); got != 0 {
		t.Fatalf("null key found through the equi-join index: %d", got)
	}
	if got := probeCount(b, b.IndexNullable([]int{0}), Tuple{Null()}); got != 1 {
		t.Fatalf("nullable index probe of NULL: %d", got)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
}

// TestBagBulkBatch applies a netted batch — the shape the SQL view cache
// patches a bag with: distinct tuples, each with a signed count — through
// every membership transition (present→absent, absent→present, count-only
// changes up and down), twice, and requires the maintained indexes to answer
// exactly like indexes built from scratch over the result.
func TestBagBulkBatch(t *testing.T) {
	b := NewBag(bagSchema())
	byA := b.Index([]int{0})
	b.Add(Tuple{Int(1), Int(10)}, 2)
	b.Add(Tuple{Int(1), Int(11)}, 1)
	b.Add(Tuple{Int(2), Int(20)}, 1)
	type cell struct {
		t Tuple
		n int
	}
	apply := func(batch []cell) {
		for _, c := range batch {
			if c.n > 0 {
				b.Add(c.t, c.n)
			} else if _, ok := b.Remove(c.t, -c.n); !ok {
				t.Fatalf("remove %s x%d refused", c.t, -c.n)
			}
		}
	}
	apply([]cell{
		{Tuple{Int(1), Int(11)}, -1}, // present → absent
		{Tuple{Int(3), Int(30)}, 2},  // absent → present
		{Tuple{Int(2), Int(20)}, 2},  // count-only change up
		{Tuple{Int(1), Int(10)}, -1}, // count-only change down
	})
	apply([]cell{
		{Tuple{Int(4), Int(40)}, 1},  // takes the position the first batch freed
		{Tuple{Int(3), Int(30)}, -2}, // moves the last position
	})
	fresh := NewBag(bagSchema())
	fresh.Add(Tuple{Int(1), Int(10)}, 1)
	fresh.Add(Tuple{Int(2), Int(20)}, 3)
	fresh.Add(Tuple{Int(4), Int(40)}, 1)
	if b.Len() != fresh.Len() || b.DistinctLen() != fresh.DistinctLen() {
		t.Fatalf("len/distinct %d/%d, want %d/%d", b.Len(), b.DistinctLen(), fresh.Len(), fresh.DistinctLen())
	}
	fresh.Each(func(tu Tuple, n int) {
		if got := b.Count(tu); got != n {
			t.Errorf("count of %v: %d, want %d", tu, got, n)
		}
	})
	for _, key := range []Value{Int(1), Int(2), Int(3), Int(4)} {
		if g, w := probeCount(b, byA, Tuple{key}), probeCount(fresh, fresh.Index([]int{0}), Tuple{key}); g != w {
			t.Errorf("index probe key %v: %d, fresh index %d", key, g, w)
		}
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
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

// TestBagFootprintStaysOLive: a bag whose tuples turn over — every round
// removes old tuples and adds fresh ones, each a new hash, as request ids are
// in the SQL protocol's view cache — keeps its chains the size of what it
// holds, not of everything it ever held or of the largest burst it held: 100k
// unique tuples pass through a standing 64, then a 1,000-tuple burst arrives
// and drains to 8. Its buckets end within 4·live + MinBuckets, and the dense
// arrays reference no removed tuple.
func TestBagFootprintStaysOLive(t *testing.T) {
	b := NewBag(bagSchema())
	b.Index([]int{0})
	b.IndexNullable([]int{1})
	tuple := func(i int) Tuple { return Tuple{Int(int64(i)), Int(int64(i) * 7)} }
	const standing, batch, cycles = 64, 10, 10_000
	for i := 0; i < standing; i++ {
		b.Add(tuple(i), 1)
	}
	next := standing
	for c := 0; c < cycles; c++ {
		for k := 0; k < batch; k++ {
			if _, ok := b.Remove(tuple(next-standing), 1); !ok {
				t.Fatalf("cycle %d: tuple %d missing", c, next-standing)
			}
			b.Add(tuple(next), 1)
			next++
		}
	}
	if live := b.DistinctLen(); live != standing || b.Buckets() > 4*live+MinBuckets {
		t.Fatalf("after turnover: %d buckets for %d live tuples (want %d)", b.Buckets(), live, standing)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
	const burst, small = 1000, 8
	for i := 0; i < burst; i++ {
		b.Add(tuple(next+i), 1)
	}
	high := b.Buckets()
	for i := next - standing; i < next+burst-small; i++ {
		if _, ok := b.Remove(tuple(i), 1); !ok {
			t.Fatalf("drain: tuple %d missing", i)
		}
	}
	live := b.DistinctLen()
	if live != small || b.Buckets() > 4*live+MinBuckets {
		t.Fatalf("after the burst (%d buckets at its peak): %d buckets for %d live tuples", high, b.Buckets(), live)
	}
	if c := cap(b.tuples); c > 4*live+MinBuckets {
		t.Errorf("dense arrays keep capacity %d for %d live tuples", c, live)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
	seen := 0
	b.Each(func(Tuple, int) { seen++ })
	if seen != live {
		t.Errorf("Each visited %d tuples, want %d", seen, live)
	}
}

// churnRound removes generation gen's n tuples and adds generation gen+1's:
// the SQL view cache's per-round request turnover.
func churnRound(t *testing.T, b *Bag, gen, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := b.Remove(Tuple{Int(int64(gen*n + i)), Int(0)}, 1); !ok {
			t.Fatalf("gen %d: tuple %d missing", gen, gen*n+i)
		}
	}
	for i := 0; i < n; i++ {
		b.Add(Tuple{Int(int64((gen+1)*n + i)), Int(0)}, 1)
	}
}

// TestBagFreelistSteadyState: once warm, per-round churn stops growing the
// bag — from the fourth round on, neither the chains' buckets nor the dense
// arrays' capacity exceeds what that round left them, and both stay within
// the footprint bound of the churn.
func TestBagFreelistSteadyState(t *testing.T) {
	const n = 32
	b := NewBag(bagSchema())
	b.Index([]int{0}) // maintained index exercises link/unlink on the way
	for i := 0; i < n; i++ {
		b.Add(Tuple{Int(int64(n + i)), Int(0)}, 1)
	}
	var warmBuckets, warmCap int
	for gen := 1; gen <= 24; gen++ {
		churnRound(t, b, gen, n)
		if b.Len() != n {
			t.Fatalf("gen %d: bag size %d, want %d", gen, b.Len(), n)
		}
		switch {
		case gen == 4:
			warmBuckets, warmCap = b.Buckets(), cap(b.tuples)
		case gen > 4:
			if b.Buckets() > warmBuckets || cap(b.tuples) > warmCap {
				t.Fatalf("gen %d: buckets %d -> %d, capacity %d -> %d in steady state",
					gen, warmBuckets, b.Buckets(), warmCap, cap(b.tuples))
			}
		}
	}
	if limit := 4*n + MinBuckets; warmBuckets > limit || warmCap > limit {
		t.Fatalf("steady state holds %d buckets, capacity %d for churn %d (limit %d)", warmBuckets, warmCap, n, limit)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
}

// TestBagFreelistShrinksAfterBurst: a burst's surplus is released by the
// round that drains it, with no window of later rounds to wait out: 1,000
// tuples grow the chains past 1,000 buckets, and once they are dropped for a
// working set of 8 the buckets and the dense arrays' capacity are back within
// 4·live + MinBuckets, and stay there as small rounds churn on.
func TestBagFreelistShrinksAfterBurst(t *testing.T) {
	const burst, small = 1000, 8
	b := NewBag(bagSchema())
	b.Index([]int{0})
	for i := 0; i < burst; i++ {
		b.Add(Tuple{Int(int64(i)), Int(1)}, 1)
	}
	if high := b.Buckets(); high < burst {
		t.Fatalf("burst of %d tuples holds only %d buckets", burst, high)
	}
	for i := 0; i < burst; i++ {
		if _, ok := b.Remove(Tuple{Int(int64(i)), Int(1)}, 1); !ok {
			t.Fatalf("drain: tuple %d missing", i)
		}
	}
	for i := 0; i < small; i++ {
		b.Add(Tuple{Int(int64(small + i)), Int(0)}, 1)
	}
	limit := 4*small + MinBuckets
	check := func(when string) {
		t.Helper()
		if b.Len() != small {
			t.Fatalf("%s: bag size %d, want %d", when, b.Len(), small)
		}
		if b.Buckets() > limit || cap(b.tuples) > limit {
			t.Fatalf("%s: %d buckets, capacity %d, want <= %d", when, b.Buckets(), cap(b.tuples), limit)
		}
		if err := checkBag(b); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("right after the burst")
	for gen := 1; gen <= 8; gen++ {
		churnRound(t, b, gen, small)
	}
	check("after churn")
}

// TestBagMapsStayBoundedUnderTurnover: under turnover — 100k unique tuples,
// each a new hash, through a standing 64 — every chain the bag holds (the
// membership chain and each index's) stays the size of what the bag holds,
// not of everything it ever held, and each index still finds every live
// tuple.
func TestBagMapsStayBoundedUnderTurnover(t *testing.T) {
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
		for k := 0; k < batch; k++ {
			if _, ok := b.Remove(tuple(next-standing), 1); !ok {
				t.Fatalf("cycle %d: tuple %d missing", c, next-standing)
			}
			b.Add(tuple(next), 1)
			next++
		}
	}
	live := b.DistinctLen()
	if live != standing {
		t.Fatalf("%d distinct tuples, want %d", live, standing)
	}
	limit := 4*live + MinBuckets
	if got := b.member.Buckets(); got > limit {
		t.Errorf("membership chain holds %d buckets for %d live tuples", got, live)
	}
	for name, ix := range map[string]*BagIndex{"a": byA, "b (nullable)": byB} {
		if got := ix.chain.Buckets(); got > limit {
			t.Errorf("index on %s holds %d buckets for %d live tuples", name, got, live)
		}
	}
	b.Each(func(tu Tuple, n int) {
		if a, bb := probeCount(b, byA, Tuple{tu[0]}), probeCount(b, byB, Tuple{tu[1]}); a != n || bb != n {
			t.Errorf("%s (count %d): index on a finds %d, on b %d", tu, n, a, bb)
		}
	})
}

// TestBagIndexUnlinkReleasesCell: removing a tuple unlinks its position from
// the index chains, and the tail slot the swap-move vacates is cleared, so
// the dense array's backing store does not pin a tuple the bag has dropped.
func TestBagIndexUnlinkReleasesCell(t *testing.T) {
	b := NewBag(bagSchema())
	ix := b.Index([]int{0})
	t1, t2 := Tuple{Int(1), Int(1)}, Tuple{Int(1), Int(2)}
	b.Add(t1, 1)
	b.Add(t2, 1)
	if _, ok := b.Remove(t1, 1); !ok { // t2 moves from the tail into t1's position
		t.Fatal("remove failed")
	}
	var bucket []Tuple
	for p := ix.First(HashValues(Tuple{Int(1)})); p >= 0; p = ix.Next(p) {
		bucket = append(bucket, b.At(p))
	}
	if len(bucket) != 1 || !bucket[0].Equal(t2) {
		t.Fatalf("index bucket holds %v, want only %s", bucket, t2)
	}
	if tail := b.tuples[:2][1]; tail != nil {
		t.Fatalf("vacated tail slot still references %s", tail)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
}

// bagModel drives a Bag and a map[int]int reference (keyed by the tuple's
// id, which its second column holds) through the same operations. floor is
// the bucket count the last Reset or Reserve left (0 before any): the
// footprint bound holds over it.
type bagModel struct {
	b     *Bag
	ref   map[int]int
	floor int
}

// bagModelTuple is the id-th tuple of the fuzz universe: a column with a few
// values and NULLs, a unique column and a one-valued string column.
func bagModelTuple(id int) Tuple {
	a := Int(int64(id % 7))
	if id%7 == 6 {
		a = Null()
	}
	return Tuple{a, Int(int64(id)), String("k")}
}

// bagProbes are the indexes a probe op may use: the first exists before any
// add, the others are created by the first probe that names them.
var bagProbes = []struct {
	cols     []int
	nullable bool
}{{[]int{0}, false}, {[]int{0}, true}, {[]int{2}, false}, {[]int{0, 2}, true}}

func newBagModel() *bagModel {
	m := &bagModel{b: NewBag(nil), ref: map[int]int{}}
	m.b.Index(bagProbes[0].cols)
	return m
}

func (m *bagModel) probe(which, id int) error {
	pr := bagProbes[which%len(bagProbes)]
	ix := m.b.index(pr.cols, pr.nullable)
	t := bagModelTuple(id)
	key := make(Tuple, len(pr.cols))
	for i, c := range pr.cols {
		key[i] = t[c]
	}
	want := 0
	for k, n := range m.ref {
		other := bagModelTuple(k)
		if _, ok := ix.keyHash(other); ok && keyMatches(other, pr.cols, key) {
			want += n
		}
	}
	if got := probeCount(m.b, ix, key); got != want {
		return fmt.Errorf("probe %v (nullable %v) for %s: %d, model %d", pr.cols, pr.nullable, key, got, want)
	}
	return nil
}

// totals compares Each, Relation and Tuples with the model.
func (m *bagModel) totals() error {
	seen := map[int]int{}
	m.b.Each(func(t Tuple, n int) { seen[int(t[1].AsInt())] += n })
	for p, t := range m.b.Tuples() {
		if !t.Equal(m.b.At(int32(p))) || seen[int(t[1].AsInt())] == 0 {
			return fmt.Errorf("Tuples()[%d] = %s, not the tuple at its position", p, t)
		}
	}
	if len(m.b.Tuples()) != m.b.DistinctLen() {
		return fmt.Errorf("Tuples() holds %d, DistinctLen %d", len(m.b.Tuples()), m.b.DistinctLen())
	}
	for _, t := range m.b.Relation().Rows() {
		seen[int(t[1].AsInt())]--
	}
	if len(seen) != len(m.ref) {
		return fmt.Errorf("Each visits %d distinct tuples, model %d", len(seen), len(m.ref))
	}
	for k, n := range seen {
		if n != 0 || m.ref[k] == 0 {
			return fmt.Errorf("Each and Relation disagree on %s (or it is not in the model)", bagModelTuple(k))
		}
	}
	return nil
}

// run decodes a byte stream into operations over a universe of 1024 ids —
// three bytes each: an opcode, then a little-endian id in the low ten bits
// and an argument in the high six — checking the bag after every one, and
// finally drains it to empty. Two opcodes are single byte values so they stay
// rare: 0xff resets the bag and 0xfe reserves it for id tuples.
func (m *bagModel) run(data []byte) error {
	for i := 0; i+3 <= len(data); i += 3 {
		v := int(binary.LittleEndian.Uint16(data[i+1:]))
		id, arg := v&1023, v>>10
		t := bagModelTuple(id)
		k := 1 + arg%3
		var err error
		switch op := data[i] % 8; {
		case data[i] == 0xff:
			err = m.reset()
		case data[i] == 0xfe:
			err = m.reserve(id)
		case op <= 2:
			m.ref[id] += k
			if got := m.b.Add(t, k); got != m.ref[id] {
				err = fmt.Errorf("add %s x%d: count %d, model %d", t, k, got, m.ref[id])
			}
		case op <= 4:
			have := m.ref[id]
			before := m.b.Len()
			got, ok := m.b.Remove(t, k)
			switch {
			case have < k && (ok || got != have || m.b.Len() != before):
				err = fmt.Errorf("over-remove %s x%d of %d: ok=%v count %d len %d→%d", t, k, have, ok, got, before, m.b.Len())
			case have >= k && (!ok || got != have-k):
				err = fmt.Errorf("remove %s x%d of %d: ok=%v count %d", t, k, have, ok, got)
			case have >= k:
				if m.ref[id] -= k; m.ref[id] == 0 {
					delete(m.ref, id)
				}
			}
		case op == 5:
			if got := m.b.Count(t); got != m.ref[id] {
				err = fmt.Errorf("count %s: %d, model %d", t, got, m.ref[id])
			}
		case op == 6:
			err = m.probe(arg, id)
		default:
			err = m.totals()
		}
		if err == nil {
			err = checkBagOver(m.b, m.floor)
		}
		if err == nil && m.b.DistinctLen() != len(m.ref) {
			err = fmt.Errorf("%d distinct tuples, model %d", m.b.DistinctLen(), len(m.ref))
		}
		if err != nil {
			return fmt.Errorf("op %d (%#x, id %d): %w", i/3, data[i], id, err)
		}
	}
	for which := range bagProbes {
		if err := m.probe(which, 0); err != nil {
			return err
		}
	}
	if err := m.totals(); err != nil {
		return err
	}
	for k, n := range m.ref {
		if _, ok := m.b.Remove(bagModelTuple(k), n); !ok {
			return fmt.Errorf("drain: %s x%d refused", bagModelTuple(k), n)
		}
	}
	if err := checkBagOver(m.b, m.floor); err != nil {
		return fmt.Errorf("drained: %w", err)
	}
	if m.b.Len() != 0 || m.b.DistinctLen() != 0 || m.b.Buckets() > max(m.floor, MinBuckets) {
		return fmt.Errorf("drained bag: len %d distinct %d buckets %d", m.b.Len(), m.b.DistinctLen(), m.b.Buckets())
	}
	return nil
}

// reset empties the bag and the model: the bucket count and every index stay.
func (m *bagModel) reset() error {
	buckets, indexes := m.b.Buckets(), len(m.b.indexes)
	m.b.Reset()
	clear(m.ref)
	if m.b.Len() != 0 || m.b.DistinctLen() != 0 || len(m.b.Tuples()) != 0 {
		return fmt.Errorf("reset bag: len %d distinct %d", m.b.Len(), m.b.DistinctLen())
	}
	if m.b.Buckets() != buckets || len(m.b.indexes) != indexes {
		return fmt.Errorf("reset bag: %d buckets, %d indexes; had %d, %d", m.b.Buckets(), len(m.b.indexes), buckets, indexes)
	}
	m.floor = buckets
	return nil
}

// reserve sizes an empty bag for n tuples; a bag holding tuples is left as
// it is.
func (m *bagModel) reserve(n int) error {
	buckets := m.b.Buckets()
	m.b.Reserve(n)
	switch {
	case len(m.ref) > 0 && m.b.Buckets() != buckets:
		return fmt.Errorf("reserve %d on %d tuples: %d buckets, had %d", n, len(m.ref), m.b.Buckets(), buckets)
	case len(m.ref) == 0 && m.b.Buckets() < n:
		return fmt.Errorf("reserve %d: %d buckets", n, m.b.Buckets())
	case len(m.ref) == 0:
		m.floor = m.b.Buckets()
	}
	return nil
}

// FuzzBagOps: any byte stream, read as bagModel operations, keeps the bag
// equal to the map model with its layout intact.
func FuzzBagOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 3, 1, 2, 6, 1, 1, 5, 1, 0, 7, 0, 0})
	grow := make([]byte, 0, 3*300)
	for id := 0; id < 200; id++ { // past several doublings, then half back out
		grow = append(grow, 0, byte(id), byte(id>>8))
	}
	for id := 0; id < 200; id += 2 {
		grow = append(grow, 3, byte(id), byte(id>>8))
	}
	f.Add(append(grow, 6, 5, 1, 6, 6, 3, 7, 0, 0, 4, 9, 0))
	f.Add(append(grow, 0xff, 0, 0, 0xfe, 44, 1, 0, 3, 0, 6, 3, 0, 0xfe, 200, 0, 3, 3, 0, 0, 5, 0, 7, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*2048)] // every operation re-checks the whole bag
		if err := newBagModel().run(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBagMatchesMapModel runs FuzzBagOps's model over pseudo-random streams
// so plain go test exercises it beyond the seed corpus.
func TestBagMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		data := make([]byte, 3*700)
		x := seed * 0x9E3779B97F4A7C15
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		if seed%2 == 0 { // narrow the ids so removes and repeats hit often
			for i := 2; i < len(data); i += 3 {
				data[i] &^= 3
			}
		}
		if err := newBagModel().run(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestBagRemoveDoesNotWalkChains: removing every row of a bag whose index
// column holds one value — one chain with every row in it — costs time linear
// in the rows. Eight times the rows may cost up to 24 times as long (linear
// is 8, a removal that walks its chain about 64); each side is the best of
// five runs, so one descheduling does not decide it.
func TestBagRemoveDoesNotWalkChains(t *testing.T) {
	removeAll := func(n int) time.Duration {
		best := time.Duration(0)
		for run := 0; run < 5; run++ {
			b := NewBag(nil)
			b.Index([]int{1})
			rows := make([]Tuple, n)
			for i := range rows {
				rows[i] = Tuple{Int(int64(i)), String("c")}
				if got := b.Add(rows[i], 1); got != 1 {
					t.Fatalf("add %d: count %d", i, got)
				}
			}
			start := time.Now()
			for _, row := range rows { // oldest first: the far end of the chain
				if _, ok := b.Remove(row, 1); !ok {
					t.Fatalf("row %s missing", row)
				}
			}
			if d := time.Since(start); run == 0 || d < best {
				best = d
			}
			if b.DistinctLen() != 0 {
				t.Fatalf("%d rows left", b.DistinctLen())
			}
		}
		return best
	}
	small, large := removeAll(4000), removeAll(32000)
	t.Logf("remove all: %v at 4,000 rows, %v at 32,000 (%.1fx)", small, large, float64(large)/float64(small))
	if large > 24*small {
		t.Errorf("removing 32,000 rows took %v, more than 24x the %v of 4,000: removal walks its chains", large, small)
	}
}

// TestGrowKeepsWalksInOrder pins what a probe relies on when the bag it walks
// grows under it (a recursive Datalog rule probing the predicate it derives):
// standing on a tuple of its key, whatever tuples of that key were ahead of
// it before the grow are ahead of it afterwards, in the same order — even
// when earlier swap-removes left the chain in no position order.
func TestGrowKeepsWalksInOrder(t *testing.T) {
	key := Tuple{Int(0)}
	for stand := 0; stand < 3; stand++ {
		b := NewBag(nil)
		ix := b.Index([]int{1})
		ahead := func(p int32) []int64 { // ids of key's tuples from position p on
			var ids []int64
			for ; p >= 0; p = ix.Next(p) {
				if tu := b.At(p); keyMatches(tu, ix.Cols(), key) {
					ids = append(ids, tu[0].AsInt())
				}
			}
			return ids
		}
		add := func(id int64) { b.Add(Tuple{Int(id), Int(id % 2)}, 1) }
		for id := int64(0); id < MinBuckets-1; id++ {
			add(id)
		}
		// Moves the newest tuple of key 0 into position 1: its chain now runs
		// through positions 1, 4, 2, 0.
		b.Remove(Tuple{Int(1), Int(1)}, 1)
		p := ix.First(HashValues(key))
		for i := 0; i < stand; i++ {
			p = ix.Next(p)
		}
		want := ahead(ix.Next(p))
		buckets := b.Buckets()
		for id := int64(MinBuckets); b.Buckets() == buckets; id++ {
			add(id)
		}
		if got := ahead(ix.Next(p)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("standing on chain entry %d: %v ahead before the grow, %v after", stand, want, got)
		}
		if err := checkBag(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBagResetRefillsWithoutAllocating: a bag emptied by Reset — a Datalog
// predicate re-derived every round — keeps its capacity and indexes, so
// filling it to its former size again allocates nothing, and a Reserved
// empty bag grows no chain while it fills.
func TestBagResetRefillsWithoutAllocating(t *testing.T) {
	rows := make([]Tuple, 500)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i % 7)), Int(int64(i))}
	}
	b := NewBag(bagSchema())
	ix := b.IndexNullable([]int{0})
	fill := func() {
		b.Reset()
		for _, r := range rows {
			b.Add(r, 1)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("a reset and refill allocated %.0f times", allocs)
	}
	if got := probeCount(b, ix, Tuple{Int(3)}); got != 71 {
		t.Errorf("probe after refills: %d, want 71", got)
	}
	if err := checkBag(b); err != nil {
		t.Fatal(err)
	}
	r := NewBag(bagSchema())
	r.Index([]int{0})
	r.Reserve(len(rows))
	buckets := r.Buckets()
	for _, row := range rows {
		r.Add(row, 1)
	}
	if r.Buckets() != buckets || buckets < len(rows) {
		t.Errorf("reserved %d buckets for %d rows, %d after filling", buckets, len(rows), r.Buckets())
	}
}
