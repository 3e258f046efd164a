package datalog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/relation"
)

// modelMasks are the index masks of the model tests: a column holding one
// value (every row in one chain), a unique column and a pair.
var modelMasks = [][]int{{3}, {0}, {1, 2}}

// modelTuple is the id-th tuple of the model tests' universe.
func modelTuple(id int) relation.Tuple {
	return relation.Tuple{
		relation.Int(int64(id)), relation.Int(int64(id % 5)), relation.Int(int64(id % 3)), relation.String("k"),
	}
}

// factModel drives a factSet and a Go-map reference through the same
// operations.
type factModel struct {
	f   *factSet
	ref map[int]bool // ids present
}

func newFactModel() *factModel {
	return &factModel{f: newFactSet(4, modelMasks), ref: make(map[int]bool)}
}

func (m *factModel) add(id int) error {
	added, stored, err := m.f.add(modelTuple(id), false)
	if err != nil {
		return err
	}
	if added == m.ref[id] {
		return fmt.Errorf("add %d: added=%v, model had it=%v", id, added, m.ref[id])
	}
	if !stored.Equal(modelTuple(id)) {
		return fmt.Errorf("add %d: retained %s", id, stored)
	}
	m.ref[id] = true
	return nil
}

func (m *factModel) remove(id int) error {
	if got := m.f.remove(modelTuple(id)); got != m.ref[id] {
		return fmt.Errorf("remove %d: removed=%v, model had it=%v", id, got, m.ref[id])
	}
	delete(m.ref, id)
	return nil
}

func (m *factModel) reset() {
	m.f.reset()
	clear(m.ref)
}

// lookup compares every index's answer for id's key with the model's, and
// membership of id itself.
func (m *factModel) lookup(id int) error {
	t := modelTuple(id)
	if got := m.f.find(t, t.Hash()) >= 0; got != m.ref[id] {
		return fmt.Errorf("find %d: %v, model %v", id, got, m.ref[id])
	}
	for i, cols := range modelMasks {
		key := make([]relation.Value, len(cols))
		for j, c := range cols {
			key[j] = t[c]
		}
		want := 0
		for other := range m.ref {
			if matchAt(modelTuple(other), cols, key) {
				want++
			}
		}
		if got := lookupCount(m.f, i, cols, key); got != want {
			return fmt.Errorf("index %v lookup for %d: %d rows, model %d", cols, id, got, want)
		}
	}
	return nil
}

// check verifies the layout invariants, the size, and that the set holds
// exactly the model's tuples.
func (m *factModel) check() error {
	if err := checkFactSet(m.f); err != nil {
		return err
	}
	if m.f.len() != len(m.ref) {
		return fmt.Errorf("%d tuples, model %d", m.f.len(), len(m.ref))
	}
	for _, t := range m.f.tuples {
		if id := int(t[0].AsInt()); !m.ref[id] || !t.Equal(modelTuple(id)) {
			return fmt.Errorf("stored %s is not in the model", t)
		}
	}
	return nil
}

// run decodes a byte stream into operations over a universe of 1024 ids —
// three bytes each: an opcode and a little-endian id — checking the set
// against the model after every one. Adds outnumber removes so streams grow
// the table; a reset needs a specific byte so it stays rare.
func (m *factModel) run(data []byte) error {
	for i := 0; i+3 <= len(data); i += 3 {
		id := int(binary.LittleEndian.Uint16(data[i+1:])) % 1024
		var err error
		switch op := data[i]; {
		case op == 0xff:
			m.reset()
		case op%8 < 4:
			err = m.add(id)
		case op%8 < 7:
			err = m.remove(id)
		default:
			err = m.lookup(id)
		}
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("op %d (%#x, id %d): %w", i/3, data[i], id, err)
		}
	}
	for id := 0; id < 1024; id += 37 {
		if err := m.lookup(id); err != nil {
			return err
		}
	}
	return nil
}

// TestFactSetMatchesMapModel: random add / remove / reset / lookup streams
// against the Go-map reference, then the cases a swap-remove gets wrong.
func TestFactSetMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*600)
		rng.Read(data)
		// Narrow some streams' ids so removes and duplicate adds hit often.
		if seed%2 == 1 {
			for i := 2; i < len(data); i += 3 {
				data[i] = 0
			}
		}
		if err := newFactModel().run(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	// In the one-value index, ids added in order 0..n-1 chain n-1 → … → 0:
	// the newest is the chain head, id 0 the tail, neighbours are adjacent.
	cases := []struct {
		name   string
		fill   int
		remove []int
	}{
		{"only tuple", 1, []int{0}},
		{"chain head at the last position", 6, []int{5}},
		{"chain tail, filled by the head", 6, []int{0}},
		{"neighbour of the moved tuple", 6, []int{4}},
		{"moved tuple's other neighbour chain", 7, []int{1, 5, 2}},
		{"right after a grow", relation.MinBuckets + 1, []int{relation.MinBuckets, 0, relation.MinBuckets - 1}},
		{"first tuple after a grow", relation.MinBuckets + 1, []int{0}},
		{"everything, oldest first", 2*relation.MinBuckets + 3, seq(0, 2*relation.MinBuckets+3, 1)},
		{"everything, newest first", 2*relation.MinBuckets + 3, seq(2*relation.MinBuckets+2, -1, -1)},
	}
	for _, c := range cases {
		m := newFactModel()
		for id := 0; id < c.fill; id++ {
			if err := m.add(id); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for _, id := range c.remove {
			err := m.remove(id)
			if err == nil {
				err = m.check()
			}
			for probe := 0; err == nil && probe < c.fill; probe++ {
				err = m.lookup(probe)
			}
			if err != nil {
				t.Fatalf("%s: after removing %d: %v", c.name, id, err)
			}
		}
		// The set stays usable: re-add what was removed.
		for _, id := range c.remove {
			if err := m.add(id); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if err := m.check(); err != nil {
			t.Fatalf("%s: after re-adding: %v", c.name, err)
		}
	}
}

// seq lists from, from+step, … up to but excluding to.
func seq(from, to, step int) []int {
	var out []int
	for i := from; i != to; i += step {
		out = append(out, i)
	}
	return out
}

// FuzzFactSetOps: any byte stream, read as the model test's operations, keeps
// the set equal to the Go-map reference with its invariants intact.
func FuzzFactSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 4, 1, 0, 0, 1, 0, 7, 1, 0})
	grow := make([]byte, 0, 3*40)
	for id := byte(0); id < 20; id++ {
		grow = append(grow, 0, id, 0)
	}
	for id := byte(0); id < 20; id += 2 {
		grow = append(grow, 4, id, 0)
	}
	f.Add(append(grow, 0xff, 0, 0, 0, 3, 0, 7, 3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*4096)] // every operation re-checks the whole set
		if err := newFactModel().run(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFactSetRemoveDoesNotWalkChains: removing every row of a set whose index
// column holds one value — one chain with every row in it — costs time linear
// in the rows. Eight times the rows may cost up to 24 times as long (linear
// is 8, a removal that walks its chain about 64); each side is the best of
// five runs, so one descheduling does not decide it.
func TestFactSetRemoveDoesNotWalkChains(t *testing.T) {
	removeAll := func(n int) time.Duration {
		best := time.Duration(0)
		for run := 0; run < 5; run++ {
			f := newFactSet(2, [][]int{{1}})
			rows := make([]relation.Tuple, n)
			for i := range rows {
				rows[i] = relation.Tuple{relation.Int(int64(i)), relation.String("c")}
				if added, _, err := f.add(rows[i], false); err != nil || !added {
					t.Fatalf("add %d: %v %v", i, added, err)
				}
			}
			start := time.Now()
			for _, row := range rows { // oldest first: the far end of the chain
				if !f.remove(row) {
					t.Fatalf("row %s missing", row)
				}
			}
			if d := time.Since(start); run == 0 || d < best {
				best = d
			}
			if f.len() != 0 {
				t.Fatalf("%d rows left", f.len())
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

// TestGrowKeepsWalksInOrder pins what a probe relies on when the set it walks
// grows under it: standing on a tuple of its key, whatever tuples of that key
// were ahead of it before the grow are ahead of it afterwards, in the same
// order — even when earlier swap-removes left the chain in no position order.
func TestGrowKeepsWalksInOrder(t *testing.T) {
	key := []relation.Value{relation.Int(0)}
	ahead := func(f *factSet, p int32) []int64 { // ids of key's tuples from position p on
		var ids []int64
		for ; p >= 0; p = f.indexes[0].Next(p) {
			if tu := f.tuples[p]; matchAt(tu, []int{1}, key) {
				ids = append(ids, tu[0].AsInt())
			}
		}
		return ids
	}
	for stand := 0; stand < 3; stand++ {
		f := newFactSet(2, [][]int{{1}})
		add := func(id int64) {
			if _, _, err := f.add(relation.Tuple{relation.Int(id), relation.Int(id % 2)}, false); err != nil {
				t.Fatal(err)
			}
		}
		for id := int64(0); id < relation.MinBuckets-1; id++ {
			add(id)
		}
		// Moves the newest tuple of key 0 into position 1: its chain now runs
		// through positions 1, 4, 2, 0.
		f.remove(relation.Tuple{relation.Int(1), relation.Int(1)})
		p := f.indexes[0].First(relation.HashValues(key))
		for i := 0; i < stand; i++ {
			p = f.indexes[0].Next(p)
		}
		want := ahead(f, f.indexes[0].Next(p))
		buckets := f.member.Buckets()
		for id := int64(relation.MinBuckets); f.member.Buckets() == buckets; id++ {
			add(id)
		}
		if got := ahead(f, f.indexes[0].Next(p)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("standing on chain entry %d: %v ahead before the grow, %v after", stand, want, got)
		}
		if err := checkFactSet(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecursiveProbeSurvivesGrowth: a non-linear recursive rule probes the
// predicate it is deriving, so inserts — and the bucket arrays doubling —
// happen under a walk that stands in the middle of a chain. On a tree every
// walk(X, Z, L) has exactly one derivation (the path is unique, and only its
// last step may come from the length-1 facts), so a probe that loses its
// place loses facts: every node must reach each of its descendants, once.
// Random node names spread the index keys like random hashes.
func TestRecursiveProbeSurvivesGrowth(t *testing.T) {
	prog := MustParse(`
		walk(X, Y, 1) :- edge(X, Y).
		walk(X, Z, L) :- walk(X, Y, K), walk(Y, Z, 1), L = K + 1.
	`)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		depth := make([]int, n)
		name := make([]relation.Value, n) // random, so that hashes are too
		for v := range name {
			name[v] = relation.Int(rng.Int63())
		}
		var edges []relation.Tuple
		want := 0
		for v := 1; v < n; v++ {
			parent := rng.Intn(v)
			depth[v] = depth[parent] + 1
			want += depth[v] // one walk from every ancestor
			edges = append(edges, relation.Tuple{name[parent], name[v]})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, naive := range []bool{false, true} {
			e, err := NewEngine(prog)
			if err != nil {
				t.Fatal(err)
			}
			e.Naive = naive
			if err := e.SetEDB("edge", edges); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := e.FactCount("walk"); got != want {
				t.Fatalf("seed %d naive=%v: %d walk facts over a %d-node tree, want %d", seed, naive, got, n, want)
			}
			checkFactSetConsistency(t, e)
		}
	}
}

// TestColdRunAfterWarmDeltasMatchesFreshEngine guards the single EDB copy:
// after a random sequence of warm batches with one wholesale SetEDB
// replacement in the middle, a cold Run on the same engine — which re-derives
// from the delta-maintained EDB sets — equals a fresh engine given the final
// rows, and so does the warm state it replaces.
func TestColdRunAfterWarmDeltasMatchesFreshEngine(t *testing.T) {
	for pi, src := range multiDeltaPrograms {
		prog := MustParse(src)
		idb := prog.IDB()
		var edbPreds, preds []string
		for p := range prog.Arities {
			preds = append(preds, p)
			if !idb[p] {
				edbPreds = append(edbPreds, p)
			}
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			e, err := NewEngine(prog)
			if err != nil {
				t.Fatal(err)
			}
			randRows := func(pred string, n int) []relation.Tuple {
				rows := make([]relation.Tuple, n)
				for i := range rows {
					rows[i] = make(relation.Tuple, prog.Arities[pred])
					for j := range rows[i] {
						rows[i][j] = relation.Int(int64(rng.Intn(5)))
					}
				}
				return rows
			}
			edb := map[string][]relation.Tuple{}
			const steps = 12
			replaceAt := 1 + rng.Intn(steps-2)
			for step := 0; step < steps; step++ {
				if step == replaceAt {
					pred := edbPreds[rng.Intn(len(edbPreds))]
					edb[pred] = randRows(pred, rng.Intn(6))
					if err := e.SetEDB(pred, edb[pred]); err != nil {
						t.Fatal(err)
					}
				}
				changed := make(map[string]EDBDelta)
				for _, pred := range edbPreds {
					var d EDBDelta
					for _, row := range edb[pred] {
						if rng.Intn(3) == 0 {
							d.Delete = append(d.Delete, row)
						}
					}
					d.Insert = randRows(pred, rng.Intn(4))
					changed[pred] = d
					edb[pred] = applyDeltaMirror(edb[pred], d)
				}
				if err := e.RunIncremental(changed); err != nil {
					t.Fatal(err)
				}
				if len(e.staged) != 0 {
					t.Fatalf("program %d seed %d step %d: rows still staged after a run", pi, seed, step)
				}
			}
			at := fmt.Sprintf("program %d seed %d", pi, seed)
			checkAgainstOracle(t, e, prog, edb, preds, at+" warm")
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Stats.Strategy != StrategyCold || !e.warm {
				t.Fatalf("%s: cold run reported %q, warm=%v", at, e.Stats.Strategy, e.warm)
			}
			checkAgainstOracle(t, e, prog, edb, preds, at+" cold")
			checkFactSetConsistency(t, e)
		}
	}
}
