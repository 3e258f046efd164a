package minisql

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/rules"
)

// The delta-maintained executor is property-tested against a fresh build of
// the view cache from one insert delta (Run) and the interpreter
// (Interpret): over random catalogs,
// random queries of every maintainable shape (multi-table equi-joins, [NOT]
// EXISTS including NOT EXISTS over disjunctions, with NULLs on the subquery
// side, LEFT JOIN with IS NULL, UNION/UNION ALL/EXCEPT, DISTINCT, CTEs
// referenced more than once, FROM subqueries) and random
// insert/delete delta sequences, the IVM's maintained result must equal the
// fresh build's bag — which must itself equal the interpreter's — after
// every round.

// randIVMQuery renders a random maintainable query over tables t1, t2, t3.
func randIVMQuery(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 4:
		// NOT EXISTS over OR-of-AND predicates: the planner splits it into a
		// chain of anti-joins, each maintained by its own delta rule.
		src, _ := randNotExistsOr(rng)
		return src
	case 0:
		// The join/EXISTS generator shared with the executor oracle test.
		return randQuery(rng)
	case 1:
		// LEFT JOIN, optionally anti-join-shaped via IS NULL (the
		// WLockedObjects pattern of Listing 1).
		s := "SELECT x.a, x.b, y.c FROM t1 x LEFT JOIN t2 y ON x.a = y.a"
		if rng.Intn(2) == 0 {
			s += fmt.Sprintf(" AND y.b >= %d", rng.Intn(4))
		}
		switch rng.Intn(3) {
		case 0:
			s += " WHERE y.c IS NULL"
		case 1:
			s += fmt.Sprintf(" WHERE x.b > %d", rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			// A maintained ORDER BY over rows the view cache builds
			// (concatenations, then projections): the ordered root must
			// copy what it keeps.
			s += " ORDER BY c DESC, a"
		}
		return s
	case 2:
		// Set operations (Listing 1's EXCEPT-of-UNIONs shape).
		op := []string{"UNION", "UNION ALL", "EXCEPT"}[rng.Intn(3)]
		l := fmt.Sprintf("SELECT x.a, x.b FROM t1 x WHERE x.c >= %d", rng.Intn(4))
		r := fmt.Sprintf("SELECT y.a, y.b FROM t2 y WHERE y.c <= %d", 3+rng.Intn(5))
		return "(" + l + ") " + op + " (" + r + ")"
	case 3:
		// A CTE read twice (the view cache must share, not duplicate), or a
		// DISTINCT FROM subquery.
		if rng.Intn(2) == 0 {
			return "WITH v AS (SELECT x.a AS a, x.c AS c FROM t1 x WHERE x.c > 1) " +
				"SELECT p.a, q.c FROM v p, v q WHERE p.a = q.a AND p.c <= q.c"
		}
		return fmt.Sprintf("SELECT s.a, s.c FROM (SELECT DISTINCT x.a AS a, x.c AS c FROM t1 x) s WHERE s.c >= %d", rng.Intn(3))
	}
	panic("unreachable")
}

// inserts is the first delta that builds a view cache over cat (NewIVM):
// every table's rows inserted.
func inserts(cat Catalog) map[string]Delta {
	first := make(map[string]Delta, len(cat))
	for name, r := range cat {
		first[name] = Delta{Ins: r.Rows()}
	}
	return first
}

// mirrorCatalog rebuilds fresh relations from the tuple mirrors (a fresh
// build always sees ground truth rebuilt from scratch).
func mirrorCatalog(mirror map[string][]relation.Tuple) Catalog {
	cat := make(Catalog, len(mirror))
	for name, rows := range mirror {
		r := relation.New(relation.NewSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
			relation.Column{Name: "c", Kind: relation.KindInt},
		))
		for _, t := range rows {
			r.MustAppend(t)
		}
		cat[name] = r
	}
	return cat
}

// randDeltas draws a random delta per table — inserts, deletes of currently
// present rows, and occasionally a cancelling insert+delete of the same
// tuple — and applies it to the mirrors.
func randDeltas(rng *rand.Rand, mirror map[string][]relation.Tuple) map[string]Delta {
	out := make(map[string]Delta, len(mirror))
	for _, name := range []string{"t1", "t2", "t3"} {
		var d Delta
		for k := 0; k < rng.Intn(4); k++ {
			t := randRowFor(name, rng)
			d.Ins = append(d.Ins, t)
			mirror[name] = append(mirror[name], t)
		}
		for k := 0; k < rng.Intn(3); k++ {
			rows := mirror[name]
			if len(rows) == 0 {
				break
			}
			i := rng.Intn(len(rows))
			d.Del = append(d.Del, rows[i])
			mirror[name] = append(rows[:i], rows[i+1:]...)
		}
		if rng.Intn(4) == 0 {
			// Net no-op churn: the same tuple inserted and deleted.
			t := randRowFor(name, rng)
			d.Ins = append(d.Ins, t)
			d.Del = append(d.Del, t)
		}
		out[name] = d
	}
	return out
}

// randBulkDeltas draws a large delta: a random third to all of each table's
// rows is deleted and a batch of comparable size inserted, so one round
// replaces most of every view.
func randBulkDeltas(rng *rand.Rand, mirror map[string][]relation.Tuple) map[string]Delta {
	out := make(map[string]Delta, len(mirror))
	for _, name := range []string{"t1", "t2", "t3"} {
		var d Delta
		drop := len(mirror[name]) * (1 + rng.Intn(3)) / 3 // one third .. all
		for k := 0; k < drop && len(mirror[name]) > 0; k++ {
			rows := mirror[name]
			i := rng.Intn(len(rows))
			d.Del = append(d.Del, rows[i])
			mirror[name] = append(rows[:i], rows[i+1:]...)
		}
		for k, n := 0, drop+rng.Intn(8); k < n; k++ {
			tp := randRowFor(name, rng)
			d.Ins = append(d.Ins, tp)
			mirror[name] = append(mirror[name], tp)
		}
		out[name] = d
	}
	return out
}

// runIVMSeed drives the equivalence property for one seed: a random catalog
// and maintainable query, then rounds delta batches — round step large-sized
// (randBulkDeltas) when bit step of large is set, a trickle (randDeltas)
// otherwise. After every round the IVM's result must equal a fresh build's
// over the tables as they stand (Run), which must equal the interpreter's.
//
// It checks the IVM's tuple lifetimes too, under the Delta contract: the
// delta tuples are kept by the caller too (the mirror holds them) and never
// reused. After every Apply each tuple handed in so far, and every tuple of
// the last round's Result and of every view bag, must read as it did — so
// the IVM writes into no tuple it may keep, and no bag or result keeps a
// tuple of the round's region.
func runIVMSeed(t testing.TB, seed int64, rounds int, large uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mirror := map[string][]relation.Tuple{}
	for _, name := range []string{"t1", "t2", "t3"} {
		for i, n := 0, 5+rng.Intn(25); i < n; i++ {
			mirror[name] = append(mirror[name], randRowFor(name, rng))
		}
	}
	src := randIVMQuery(rng)
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("seed %d: parse %q: %v", seed, src, err)
	}
	cat := mirrorCatalog(mirror)
	schemas := map[string]*relation.Schema{}
	for k, v := range cat {
		schemas[k] = v.Schema()
	}
	plan, err := CompilePlan(q, schemas)
	if err != nil {
		t.Fatalf("seed %d: compile %q: %v", seed, src, err)
	}
	m, err := NewIVM(plan, inserts(cat))
	if err != nil {
		t.Fatalf("seed %d: NewIVM %q: %v", seed, src, err)
	}
	var handed, handedWant []relation.Tuple // every delta tuple so far, and its value
	var kept, want []relation.Tuple         // instances handed out or held, and their values
	for step := 0; step < rounds; step++ {
		var d map[string]Delta
		if large>>step&1 == 1 {
			d = randBulkDeltas(rng, mirror)
		} else {
			d = randDeltas(rng, mirror)
		}
		for _, dt := range d {
			for _, tp := range append(dt.Ins[:len(dt.Ins):len(dt.Ins)], dt.Del...) {
				handed, handedWant = append(handed, tp), append(handedWant, tp.Clone())
			}
		}
		if err := m.Apply(d); err != nil {
			t.Fatalf("seed %d step %d: apply %q: %v", seed, step, src, err)
		}
		for i := range handed {
			if !handed[i].Equal(handedWant[i]) {
				t.Fatalf("seed %d step %d: %q: a delta tuple changed from %s to %s", seed, step, src, handedWant[i], handed[i])
			}
		}
		for i := range kept {
			if !kept[i].Equal(want[i]) {
				t.Fatalf("seed %d step %d: %q: a tuple of the last result or a view bag changed from %s to %s", seed, step, src, want[i], kept[i])
			}
		}
		got, err := m.Result()
		if err != nil {
			t.Fatalf("seed %d step %d: result %q: %v", seed, step, src, err)
		}
		kept = append(kept[:0], got.Rows()...)
		for _, b := range m.Bags() {
			kept = append(kept, b.Tuples()...)
		}
		want = want[:0]
		for _, k := range kept {
			want = append(want, k.Clone())
		}
		fresh := mirrorCatalog(mirror)
		built, err := Run(q, fresh)
		if err != nil {
			t.Fatalf("seed %d step %d: fresh build %q: %v", seed, step, src, err)
		}
		if want := interpret(t, q, fresh); !sameAnswer(q, built, want) {
			t.Fatalf("seed %d step %d: the fresh build diverged from the interpreter on %q\nbuilt:\n%s\ninterpreter:\n%s",
				seed, step, src, built, want)
		}
		if !got.Equal(built) {
			t.Fatalf("seed %d step %d: IVM diverged from the fresh build on %q\nivm:\n%s\nbuilt:\n%s",
				seed, step, src, got, built)
		}
		if plan.root.op == opOrderBy {
			rows := got.Rows()
			for i := 1; i < len(rows); i++ {
				for _, sp := range plan.root.sorts {
					c := rows[i-1][sp.Pos].Compare(rows[i][sp.Pos])
					if sp.Desc {
						c = -c
					}
					if c > 0 {
						t.Fatalf("seed %d step %d: IVM result not sorted at row %d for %q", seed, step, i, src)
					}
					if c < 0 {
						break
					}
				}
			}
		}
	}
}

// TestIVMMatchesColdAndOracle: sequential delta maintenance tracks a fresh
// build from one insert delta and the interpreter across randomized delta
// sequences.
func TestIVMMatchesColdAndOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		runIVMSeed(t, seed, 8, 0)
	}
}

// TestIVMLargeDeltasMatchColdAndOracle: trickle rounds and rounds that churn
// a third to all of every table interleave at random; the per-tuple delta
// rules, the only maintenance path, track a fresh build and the interpreter
// through both.
func TestIVMLargeDeltasMatchColdAndOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		large := rand.New(rand.NewSource(^seed)).Uint64()
		runIVMSeed(t, seed, 6, large)
	}
}

// FuzzIVMDeltas: the fuzzer picks the catalog and query (through the seed)
// and which of eight rounds carry a large delta; every round's maintained
// result must equal a fresh build's and the interpreter's.
func FuzzIVMDeltas(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(1), uint8(0xff))
	f.Add(int64(2), uint8(0x55))
	f.Add(int64(3), uint8(0xaa))
	f.Fuzz(func(t *testing.T, seed int64, large uint8) {
		runIVMSeed(t, seed, 8, uint64(large))
	})
}

// TestIVMDivergentDeltaErrors: deleting a tuple beyond its maintained count
// must surface as an error (the protocol's cue to rebuild the view cache).
func TestIVMDivergentDeltaErrors(t *testing.T) {
	rows := map[string][]relation.Tuple{"t1": {{relation.Int(1), relation.Int(2), relation.Int(3)}}, "t2": nil, "t3": nil}
	cat := mirrorCatalog(rows)
	q, err := Parse("SELECT x.a FROM t1 x")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(q, map[string]*relation.Schema{
		"t1": cat["t1"].Schema(), "t2": cat["t2"].Schema(), "t3": cat["t3"].Schema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewIVM(plan, inserts(cat))
	if err != nil {
		t.Fatal(err)
	}
	bogus := relation.Tuple{relation.Int(9), relation.Int(9), relation.Int(9)}
	if err := m.Apply(map[string]Delta{"t1": {Del: []relation.Tuple{bogus}}}); err == nil {
		t.Fatal("divergent delete accepted")
	}
}

// newListingOneIVM builds the view cache of plan, a query over Listing 1's
// two tables, over empty tables.
func newListingOneIVM(t *testing.T, plan *Plan) *IVM {
	t.Helper()
	m, err := NewIVM(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// applyCounting applies d to m and returns the number of tuples m built that
// became present in one of its bags or in its result: a newly present tuple
// that shares the storage of one of d's tuples (a base table's row, or a
// column run of it) was handed in, not built.
func applyCounting(t *testing.T, m *IVM, d map[string]Delta) int {
	t.Helper()
	handed := map[*relation.Value]bool{}
	for _, dt := range d {
		for _, tp := range dt.Ins {
			for i := range tp {
				handed[&tp[i]] = true
			}
		}
	}
	before := map[*relation.Bag]*relation.Bag{}
	for _, b := range m.Bags() {
		before[b] = relation.BagOf(b.Relation())
	}
	res, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	root := relation.BagOf(res)
	if err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	built := 0
	for _, b := range m.Bags() {
		for _, tp := range b.Tuples() {
			if before[b].Count(tp) == 0 && (len(tp) == 0 || !handed[&tp[0]]) {
				built++
			}
		}
	}
	if res, err = m.Result(); err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Rows() {
		if root.Count(tp) == 0 && (len(tp) == 0 || !handed[&tp[0]]) {
			built++
		}
	}
	return built
}

// requestRow is a row of Listing 1's requests and history tables.
func requestRow(id, ta, intrata int64, op string, object int64) relation.Tuple {
	return relation.Tuple{relation.Int(id), relation.Int(ta), relation.Int(intrata), relation.String(op), relation.Int(object)}
}

// listingOneMix is the shape of a closed loop of listingOneRounds: clients
// running transactions of reads and writes, then a commit, one request at a
// time, each read or write on an object drawn from objects. The reads come
// first, unless shuffle interleaves them with the writes at random (the
// paper's mix).
type listingOneMix struct {
	clients, objects, reads, writes int
	shuffle                         bool
}

// listingOneRounds runs closed-loop clients against Listing 1 on a
// reference IVM and records n rounds. Each client runs read, write, commit
// transactions one request at a time over a few shared objects. A round
// moves the last round's qualified requests from requests to history,
// drops a transaction's history rows with its commit, aborts the youngest
// transaction when nothing qualified (a deadlock), and submits each idle
// client's next request.
func listingOneRounds(t *testing.T, plan *Plan, n int) []map[string]Delta {
	return listingOneMixRounds(t, plan, n, listingOneMix{clients: 48, objects: 32, reads: 1, writes: 1})
}

// listingOneMixRounds is listingOneRounds over the given mix.
func listingOneMixRounds(t *testing.T, plan *Plan, n int, mix listingOneMix) []map[string]Delta {
	t.Helper()
	type client struct {
		ta, step int64
		ops      []string // the transaction's reads and writes, in order
		pending  relation.Tuple
		history  []relation.Tuple
	}
	rng := rand.New(rand.NewSource(35))
	m := newListingOneIVM(t, plan)
	cs := make([]client, mix.clients)
	byTA := map[int64]*client{}
	nextID, nextTA := int64(1), int64(1)
	var qualified []relation.Tuple
	rounds := make([]map[string]Delta, 0, n)
	for len(rounds) < n {
		var req, hist Delta
		finish := func(c *client) {
			hist.Del = append(hist.Del, c.history...)
			delete(byTA, c.ta)
			*c = client{}
		}
		for _, q := range qualified {
			c := byTA[q[1].AsInt()]
			req.Del = append(req.Del, q)
			hist.Ins = append(hist.Ins, q)
			c.history = append(c.history, q)
			c.pending = nil
			c.step++
			if q[3].AsString() == "c" {
				finish(c)
			}
		}
		if len(qualified) == 0 {
			var victim *client
			for i := range cs {
				if c := &cs[i]; c.pending != nil && (victim == nil || c.ta > victim.ta) {
					victim = c
				}
			}
			if victim != nil {
				req.Del = append(req.Del, victim.pending)
				finish(victim)
			}
		}
		for i := range cs {
			c := &cs[i]
			if c.pending != nil {
				continue
			}
			if c.ta == 0 {
				c.ta = nextTA
				byTA[c.ta] = c
				nextTA++
				c.ops = make([]string, mix.reads+mix.writes)
				for k := range c.ops {
					c.ops[k] = "w"
					if k < mix.reads {
						c.ops[k] = "r"
					}
				}
				if mix.shuffle {
					rng.Shuffle(len(c.ops), func(i, j int) { c.ops[i], c.ops[j] = c.ops[j], c.ops[i] })
				}
			}
			if step := c.step; step < int64(len(c.ops)) {
				c.pending = requestRow(nextID, c.ta, step, c.ops[step], rng.Int63n(int64(mix.objects)))
			} else {
				c.pending = requestRow(nextID, c.ta, step, "c", -1)
			}
			nextID++
			req.Ins = append(req.Ins, c.pending)
		}
		d := map[string]Delta{"requests": req, "history": hist}
		if err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, d)
		res, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		qualified = res.Rows()
	}
	return rounds
}

// TestListingOneRoundsMatchInterpreter: Listing 1 round by round — the
// closed-loop rounds of listingOneRounds, with commits, deadlock aborts and
// history collection — maintained by a view cache and built afresh by Run
// every round, every round's answer equal to the interpreter's on the tables
// as they stand, in the same ORDER BY id sequence.
func TestListingOneRoundsMatchInterpreter(t *testing.T) {
	plan := listingOnePlan(t)
	q, err := Parse(rules.ListingOneSQL)
	if err != nil {
		t.Fatal(err)
	}
	m := newListingOneIVM(t, plan)
	tables := map[string][]relation.Tuple{}
	qualified := 0
	for i, d := range listingOneRounds(t, plan, 200) {
		if err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		cat := Catalog{}
		for _, name := range []string{"requests", "history"} {
			rows := tables[name]
			for _, del := range d[name].Del {
				for j := range rows {
					if rows[j].Equal(del) {
						rows = append(rows[:j], rows[j+1:]...)
						break
					}
				}
			}
			tables[name] = append(rows, d[name].Ins...)
			cat[name] = relation.New(requestSchema())
			cat[name].AppendTrusted(tables[name]...)
		}
		want := interpret(t, q, cat)
		qualified += want.Len()
		built, err := Run(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		for who, got := range map[string]*relation.Relation{"fresh build": built, "view cache": warm} {
			if !sameAnswer(q, got, want) {
				t.Fatalf("round %d: the %s diverged from the interpreter\ngot:\n%s\ninterpreter:\n%s", i, who, got, want)
			}
		}
	}
	if qualified == 0 {
		t.Fatal("no round qualified a request")
	}
}

// TestIVMWarmRoundAllocatesOnlyWhatBecomesPresent: a warm round allocates a
// tuple only where the view cache built one that becomes present in some bag
// or the ordered root — at most one allocation per such tuple, plus a small
// constant for the pooled scratch that still grows now and then. The base
// bags keep the rows the caller hands in, a column-run projection shares
// them, and every other built tuple lives in the round's region until it
// becomes present. Listing 1 builds its lock views' rows; a column run of
// the requests table (Listing 1's SELECT ta, intrata FROM requests) builds
// nothing, so its warm round allocates only the slack.
func TestIVMWarmRoundAllocatesOnlyWhatBecomesPresent(t *testing.T) {
	const warm, runs = 300, 300
	listing := listingOnePlan(t)
	rounds := listingOneRounds(t, listing, warm+1+runs)
	for _, c := range []struct {
		name string
		plan *Plan
	}{
		{"listing-one", listing},
		{"column-run", requestsPlan(t, "SELECT r.ta, r.intrata FROM requests r")},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, m := newListingOneIVM(t, c.plan), newListingOneIVM(t, c.plan)
			built := 0
			for i, d := range rounds {
				if b := applyCounting(t, ref, d); i > warm {
					built += b
				}
			}
			if c.name == "column-run" && built != 0 {
				t.Fatalf("the column-run view built %d tuples, want 0", built)
			}
			for _, d := range rounds[:warm] {
				if err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			next := warm
			allocs := testing.AllocsPerRun(runs, func() {
				if err := m.Apply(rounds[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			perRound := float64(built) / runs
			t.Logf("a warm round: %.1f allocations, %.1f built tuples become present", allocs, perRound)
			if allocs > perRound+ivmRoundSlack {
				t.Fatalf("a warm round allocates %.1f times for %.1f built tuples that become present; want at most one each plus %d",
					allocs, perRound, ivmRoundSlack)
			}
		})
	}
}

// TestIVMColumnRunProjectionSharesHeldTuples: a projection onto a
// contiguous run of its input's columns hands a held input tuple on as a
// held slice of it, capped at the run; a projection that is no run, and any
// projection of a round-lived (unheld) tuple, builds its own row in the
// round's region.
func TestIVMColumnRunProjectionSharesHeldTuples(t *testing.T) {
	row := requestRow(7, 3, 2, "w", 99)
	for _, c := range []struct {
		src string
		run bool
	}{
		{"SELECT r.ta, r.intrata FROM requests r", true},
		{"SELECT r.intrata, r.operation, r.object FROM requests r", true},
		{"SELECT r.intrata, r.ta FROM requests r", false},
		{"SELECT r.ta, r.operation FROM requests r", false},
		{"SELECT r.ta, r.intrata + 1 FROM requests r", false},
	} {
		plan := requestsPlan(t, c.src)
		m := newListingOneIVM(t, plan)
		var proj *planNode
		for _, n := range plan.nodes {
			if n.op == opProject {
				proj = n
			}
		}
		if proj == nil {
			t.Fatalf("%q: no projection in the plan", c.src)
		}
		k := -1
		if c.run {
			k = proj.items[0].E.(ra.Col).Pos
		}
		if got := m.aux[proj.id].run; got != k {
			t.Errorf("%q: run starts at column %d, want %d", c.src, got, k)
		}
		for _, held := range []bool{true, false} {
			in := newSdelta()
			in.add(row, 1, held)
			out := m.projectDelta(proj, in)
			if len(out.cells) != 1 {
				t.Fatalf("%q: %d output cells", c.src, len(out.cells))
			}
			oc := out.cells[0]
			shared := &oc.t[0] == &row[max(k, 0)]
			if want := c.run && held; shared != want || oc.held != want {
				t.Errorf("%q, held input %v: output shares the input %v, is held %v; want %v", c.src, held, shared, oc.held, want)
			}
			if shared && cap(oc.t) != len(proj.items) {
				t.Errorf("%q: shared run has capacity %d, want %d", c.src, cap(oc.t), len(proj.items))
			}
			m.releaseAll()
		}
	}
}

// TestIVMLockViewsKeepHistoryRows: Listing 1's lock views hold the history
// bag's own rows. A warm round that appends live transactions' reads and
// writes to history — 16 rows, each a read or a write lock, while the
// pending requests touch other objects, so no join pairs anything — copies
// none of them: about 0 allocations a round (the bound, 1, leaves room for
// the bags' amortised growth). With each lock view a projection of its own
// (a (object, ta, operation) copy of every read, and of every write under a
// DISTINCT), such a round allocated once per row.
func TestIVMLockViewsKeepHistoryRows(t *testing.T) {
	const perRound, warm, runs, objects = 16, 100, 200, 500
	rng := rand.New(rand.NewSource(45))
	m := newListingOneIVM(t, listingOnePlan(t))
	var requests []relation.Tuple
	for i := range 50 {
		requests = append(requests, requestRow(int64(1_000_000+i), int64(1_000_000+i), 0, "w", objects+int64(i)))
	}
	if err := m.Apply(map[string]Delta{"requests": {Ins: requests}}); err != nil {
		t.Fatal(err)
	}
	rounds := make([]map[string]Delta, warm+1+runs)
	id := int64(1)
	for i := range rounds {
		rows := make([]relation.Tuple, perRound)
		for j := range rows {
			// Four transactions a round, four requests each, none of them
			// finished.
			ta := int64(4*i + j/4)
			rows[j] = requestRow(id, ta, int64(j%4), []string{"r", "w"}[rng.Intn(2)], rng.Int63n(objects))
			id++
		}
		rounds[i] = map[string]Delta{"history": {Ins: rows}}
	}
	for _, d := range rounds[:warm] {
		if err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.Apply(rounds[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("a round of %d live history rows: %.2f allocations", perRound, allocs)
	if allocs > 1 {
		t.Fatalf("a round of %d live history rows allocates %.2f times, want about 0: a lock view copies rows", perRound, allocs)
	}
}

// TestListingOneViewCacheKeepsNoHistoryCopy: after warm rounds of a
// paper-shaped closed loop — 300 clients, transactions of 20 reads and 20
// writes in random order, so the history holds many rows per pending
// request and most requests wait on a lock — the view cache keeps the
// history in two bags, the history table's own and its write filter's, and
// every other bag holds at most two rows per client: the lock-view joins
// pair a pending request with the few history rows on its object, and the
// anti-joins lifted above them (rule 8) keep no bag of their own input. With
// the anti-joins under the joins, the joins' inputs were three more bags of
// about half the history each.
func TestListingOneViewCacheKeepsNoHistoryCopy(t *testing.T) {
	mix := listingOneMix{clients: 300, objects: 1 << 16, reads: 20, writes: 20, shuffle: true}
	plan := listingOnePlan(t)
	m := newListingOneIVM(t, plan)
	for _, d := range listingOneMixRounds(t, plan, 200, mix) {
		if err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	bound := 2 * mix.clients
	if h := m.tables["history"].bag.Len(); h < 4*bound {
		t.Fatalf("the history holds %d rows, too few to tell a copy of it from a bound of %d:\n%s", h, bound, m.Explain())
	}
	t.Logf("the view cache after the warm rounds:\n%s", m.Explain())
	for _, n := range plan.nodes {
		v := m.views[n.id]
		if v.node != n || v.bag == nil || n.op == opScan && n.table == "history" {
			continue
		}
		if n.op == opSelect && n.l.op == opScan && n.l.table == "history" && fmt.Sprint(n.preds) == `[(operation = "w")]` {
			continue // the write filter
		}
		if v.bag.Len() > bound {
			t.Errorf("%s holds %d rows, want at most %d (two per client):\n%s", plan.describe(n), v.bag.Len(), bound, m.Explain())
		}
	}
}

// ivmRoundSlack is the allocations a warm round may make beyond one per
// tuple that becomes present: amortised growth of pooled scratch.
const ivmRoundSlack = 2

// TestIVMDeleteOnlyRoundAllocatesNothing: a round that only deletes —
// transactions' history rows collected, the youngest pending requests
// withdrawn, so no tuple becomes present anywhere — copies no tuple and
// allocates about nothing. The tables are large enough that the measured
// rounds shrink no bag (a bag that halves reallocates, by design).
func TestIVMDeleteOnlyRoundAllocatesNothing(t *testing.T) {
	plan := listingOnePlan(t)
	const n, warm, runs = 2000, 50, 300
	rng := rand.New(rand.NewSource(35))
	fills := make([]map[string]Delta, n)
	for i := range fills {
		ta := int64(2 * i)
		obj := rng.Int63n(240)
		fills[i] = map[string]Delta{
			"history": {Ins: []relation.Tuple{
				requestRow(int64(3*i), ta, 0, "r", obj),
				requestRow(int64(3*i+1), ta, 1, "w", obj),
				requestRow(int64(3*i+2), ta, 2, "c", -1),
			}},
			"requests": {Ins: []relation.Tuple{
				requestRow(int64(10*n+i), ta+1, 0, []string{"r", "w"}[rng.Intn(2)], rng.Int63n(240)),
			}},
		}
	}
	// Deleting the newest first withdraws requests that block only younger
	// ones, none of which is left, and whole finished transactions, which
	// hold no locks.
	drains := make([]map[string]Delta, warm+1+runs)
	for i := range drains {
		f := fills[n-1-i]
		drains[i] = map[string]Delta{
			"history":  {Del: f["history"].Ins},
			"requests": {Del: f["requests"].Ins},
		}
	}
	ref, m := newListingOneIVM(t, plan), newListingOneIVM(t, plan)
	for _, d := range fills {
		for _, x := range []*IVM{ref, m} {
			if err := x.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, d := range drains {
		if p := applyCounting(t, ref, d); p != 0 {
			t.Fatalf("delete-only round %d made %d tuples present", i, p)
		}
	}
	for _, d := range drains[:warm] {
		if err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.Apply(drains[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("a delete-only round: %.2f allocations", allocs)
	if allocs > 0.5 {
		t.Fatalf("a delete-only round allocates %.2f times, want about 0", allocs)
	}
}
