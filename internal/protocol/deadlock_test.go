package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/relation"
	"repro/internal/request"
)

func TestWaitsForEdges(t *testing.T) {
	history := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 10},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 20},
	}
	pending := []request.Request{
		{ID: 3, TA: 2, IntraTA: 1, Op: request.Read, Object: 10},  // waits on ta1 wlock
		{ID: 4, TA: 3, IntraTA: 0, Op: request.Write, Object: 20}, // waits on ta2 rlock
	}
	g := WaitsFor(pending, history)
	if !g[2][1] {
		t.Error("missing edge ta2 -> ta1 (write lock)")
	}
	if !g[3][2] {
		t.Error("missing edge ta3 -> ta2 (read lock)")
	}
	if g[1] != nil {
		t.Errorf("unexpected edges from ta1: %v", g[1])
	}
}

func TestWaitsForIntraBatchEdge(t *testing.T) {
	pending := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 5},
		{ID: 2, TA: 9, IntraTA: 0, Op: request.Write, Object: 5},
	}
	g := WaitsFor(pending, nil)
	if !g[9][1] {
		t.Error("missing intra-batch edge ta9 -> ta1")
	}
	if g[1][9] {
		t.Error("intra-batch edge must point from younger to older only")
	}
}

func TestDeadlockVictimsSimpleCycle(t *testing.T) {
	history := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 2},
	}
	pending := []request.Request{
		{ID: 3, TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		{ID: 4, TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
	}
	victims := new(Detector).Victims(pending, history)
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("victims = %v, want [2] (youngest in cycle)", victims)
	}
}

func TestDeadlockVictimsNoCycle(t *testing.T) {
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 1}}
	pending := []request.Request{{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 1}}
	if v := new(Detector).Victims(pending, history); len(v) != 0 {
		t.Fatalf("victims on acyclic graph: %v", v)
	}
}

func TestDeadlockVictimsTwoIndependentCycles(t *testing.T) {
	history := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 2},
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Write, Object: 3},
		{ID: 4, TA: 4, IntraTA: 0, Op: request.Write, Object: 4},
	}
	pending := []request.Request{
		{ID: 5, TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		{ID: 6, TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
		{ID: 7, TA: 3, IntraTA: 1, Op: request.Write, Object: 4},
		{ID: 8, TA: 4, IntraTA: 1, Op: request.Write, Object: 3},
	}
	victims := new(Detector).Victims(pending, history)
	if len(victims) != 2 || victims[0] != 2 || victims[1] != 4 {
		t.Fatalf("victims = %v, want [2 4]", victims)
	}
}

// TestVictimAbortUnsticksScheduler: after aborting the victims, the SS2PL
// protocol must qualify at least one request.
func TestVictimAbortUnsticksScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := ImperativeSS2PL{}
	for trial := 0; trial < 60; trial++ {
		pending, history := randInstance(rng)
		q, err := p.Qualify(pending, history)
		if err != nil {
			t.Fatal(err)
		}
		if len(q) > 0 || len(pending) == 0 {
			continue
		}
		victims := new(Detector).Victims(pending, history)
		// Stuck rounds must either be deadlocks, or waits on live lock
		// holders that have no pending request in this batch (an open
		// system); in a closed system the scheduler only needs victims for
		// true cycles.
		if len(victims) == 0 {
			continue
		}
		var history2 []request.Request
		history2 = append(history2, history...)
		var pending2 []request.Request
		id := int64(1000)
		for _, r := range pending {
			doomed := false
			for _, v := range victims {
				if r.TA == v {
					doomed = true
					break
				}
			}
			if !doomed {
				pending2 = append(pending2, r)
			}
		}
		for _, v := range victims {
			history2 = append(history2, request.Request{ID: id, TA: v, IntraTA: 998, Op: request.Abort, Object: request.NoObject})
			id++
		}
		q2, err := p.Qualify(pending2, history2)
		if err != nil {
			t.Fatal(err)
		}
		if len(pending2) > 0 && len(q2) == 0 {
			// Still stuck: acceptable only if remaining waits target TAs
			// outside the batch (open-system waits).
			g := WaitsFor(pending2, history2)
			inBatch := make(map[int64]bool)
			for _, r := range pending2 {
				inBatch[r.TA] = true
			}
			for from, tos := range g {
				for to := range tos {
					if inBatch[from] && inBatch[to] {
						// A wait between two batch members with no cycle is
						// fine; a cycle would have produced victims.
						continue
					}
				}
			}
			if len(new(Detector).Victims(pending2, history2)) != 0 {
				t.Fatalf("trial %d: victims remain after abort", trial)
			}
		}
	}
}

// waitsForViaLiveLocks is WaitsFor as it was first written — the full lock
// table of the history (LiveLocks), then one lookup per pending request — kept
// as the reference the leaner WaitsFor is checked against.
func waitsForViaLiveLocks(pending, history []request.Request) map[int64]map[int64]bool {
	locks := LiveLocks(history)
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
		for ta := range locks.Write[r.Object] {
			add(r.TA, ta)
		}
		if r.Op == request.Write {
			for ta := range locks.Read[r.Object] {
				add(r.TA, ta)
			}
		}
		for _, other := range pending {
			if other.TA < r.TA && other.Object == r.Object &&
				(other.Op == request.Write || r.Op == request.Write) {
				add(r.TA, other.TA)
			}
		}
	}
	return edges
}

// lockInstance builds a pending batch of nPending requests (one in eight a
// termination) over a history of nHistory rows by nTA transactions on
// nObjects objects. History transactions read before they write, so
// read-then-write upgrades on one object are common, and one in six has
// terminated with its rows still present.
func lockInstance(rng *rand.Rand, nPending, nHistory int, nTA, nObjects int64) (pending, history []request.Request) {
	id := int64(1)
	intra := make(map[int64]int64)
	next := func(ta int64, op request.Op, obj int64) request.Request {
		r := request.Request{ID: id, TA: ta, IntraTA: intra[ta], Op: op, Object: obj}
		id++
		intra[ta]++
		return r
	}
	for len(history) < nHistory {
		ta := 1 + rng.Int63n(nTA)
		obj := rng.Int63n(nObjects)
		history = append(history, next(ta, request.Read, obj))
		if rng.Intn(2) == 0 {
			history = append(history, next(ta, request.Write, obj))
		}
		if rng.Intn(3) == 0 {
			history = append(history, next(ta, request.Write, rng.Int63n(nObjects)))
		}
	}
	for ta := int64(1); ta <= nTA; ta++ {
		if rng.Intn(6) == 0 {
			op := []request.Op{request.Commit, request.Abort}[rng.Intn(2)]
			history = append(history, next(ta, op, request.NoObject))
		}
	}
	rng.Shuffle(len(history), func(i, j int) { history[i], history[j] = history[j], history[i] })
	for len(pending) < nPending {
		ta := 1 + rng.Int63n(nTA+nTA/4) // some transactions have no history yet
		switch rng.Intn(8) {
		case 0:
			pending = append(pending, next(ta, request.Commit, request.NoObject))
		case 1, 2, 3:
			pending = append(pending, next(ta, request.Write, rng.Int63n(nObjects)))
		default:
			pending = append(pending, next(ta, request.Read, rng.Int63n(nObjects)))
		}
	}
	return pending, history
}

// TestWaitsForMatchesLockTableReference: reading only the contended objects'
// holders off the history gives exactly the edges the full lock table gives,
// on small dense instances (every conflict kind within a handful of rows) and
// on larger sparse ones.
func TestWaitsForMatchesLockTableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	check := func(trial int, pending, history []request.Request) {
		t.Helper()
		got, want := WaitsFor(pending, history), waitsForViaLiveLocks(pending, history)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: waits-for edges diverged from the lock-table reference\ngot:  %v\nwant: %v\npending: %v\nhistory: %v",
				trial, got, want, pending, history)
		}
	}
	edges := 0
	for trial := 0; trial < 400; trial++ {
		pending, history := randInstance(rng)
		check(trial, pending, history)
		pending, history = lockInstance(rng, 1+rng.Intn(40), rng.Intn(300), 2+rng.Int63n(30), 1+rng.Int63n(40))
		check(trial, pending, history)
		edges += len(WaitsFor(pending, history))
	}
	if edges == 0 {
		t.Fatal("no instance produced a waits-for edge")
	}
}

// waitsForRules states in rule text what the deadlock detector builds:
// waits holds the edges of WaitsFor (lock conflicts with unfinished history
// transactions, and Listing 1's intra-batch precedence), reach is their
// transitive closure — a recursive predicate, which the engine evaluates to
// its fixpoint — and oncycle holds the transactions on some cycle.
const waitsForRules = `
	finished(TA) :- history(_, TA, _, "c", _).
	finished(TA) :- history(_, TA, _, "a", _).
	waits(T1, T2) :- request(_, T1, _, _, O), history(_, T2, _, "w", O), T1 != T2, not finished(T2).
	waits(T1, T2) :- request(_, T1, _, "w", O), history(_, T2, _, "r", O), T1 != T2, not finished(T2).
	waits(T1, T2) :- request(_, T1, _, _, O), request(_, T2, _, "w", O), T2 < T1.
	waits(T1, T2) :- request(_, T1, _, "w", O), request(_, T2, _, _, O), T2 < T1.
	reach(A, B) :- waits(A, B).
	reach(A, C) :- reach(A, B), waits(B, C).
	oncycle(T) :- reach(T, T).
`

// TestWaitsForRuleTextMatchesDetector: on the lock-table test's instances,
// the rule text's waits equals WaitsFor, every victim Detector.Victims picks
// is on a cycle, and oncycle is empty exactly when there is no victim. The
// detector may pick fewer victims than oncycle names: it aborts the
// youngest member of one cycle, then searches again.
func TestWaitsForRuleTextMatchesDetector(t *testing.T) {
	prog := datalog.MustParse(waitsForRules)
	rng := rand.New(rand.NewSource(78))
	cyclic := 0
	check := func(trial int, pending, history []request.Request) {
		t.Helper()
		e, err := datalog.NewEngine(prog)
		if err != nil {
			t.Fatal(err)
		}
		for pred, rs := range map[string][]request.Request{"request": pending, "history": history} {
			rows := make([]relation.Tuple, len(rs))
			for i, r := range rs {
				rows[i] = r.Tuple()
			}
			if err := e.SetEDB(pred, rows); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		waits := make(map[int64]map[int64]bool)
		for tu := range e.FactSeq("waits") {
			from, to := tu[0].AsInt(), tu[1].AsInt()
			if waits[from] == nil {
				waits[from] = make(map[int64]bool)
			}
			waits[from][to] = true
		}
		if want := WaitsFor(pending, history); !reflect.DeepEqual(waits, want) {
			t.Fatalf("trial %d: waits diverged from WaitsFor\nrules: %v\nGo:    %v", trial, waits, want)
		}
		oncycle := make(map[int64]bool)
		for tu := range e.FactSeq("oncycle") {
			oncycle[tu[0].AsInt()] = true
		}
		victims := new(Detector).Victims(pending, history)
		for _, v := range victims {
			if !oncycle[v] {
				t.Fatalf("trial %d: victim %d is not on a cycle of the rule text (oncycle %v)", trial, v, oncycle)
			}
		}
		if (len(oncycle) == 0) != (len(victims) == 0) {
			t.Fatalf("trial %d: oncycle %v, victims %v", trial, oncycle, victims)
		}
		if len(victims) > 0 {
			cyclic++
		}
	}
	for trial := 0; trial < 400; trial++ {
		pending, history := randInstance(rng)
		check(trial, pending, history)
		pending, history = lockInstance(rng, 1+rng.Intn(40), rng.Intn(300), 2+rng.Int63n(30), 1+rng.Int63n(40))
		check(trial, pending, history)
	}
	if cyclic == 0 {
		t.Fatal("no instance had a deadlock")
	}
}

// waitsForReference is the map-based WaitsFor the dense graph replaced: the
// same chained holder pass, with the edges added to per-transaction sets.
func waitsForReference(pending, history []request.Request) map[int64]map[int64]bool {
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

// deadlockVictimsReference is the map-based detector the dense search
// replaced, kept as the oracle its victims are checked against: a recursive
// depth-first search over sorted copies of the adjacency sets, fresh colours
// for each victim.
func deadlockVictimsReference(pending, history []request.Request) []int64 {
	edges := waitsForReference(pending, history)
	dead := make(map[int64]bool)
	var victims []int64
	for {
		cyc := findCycleReference(edges, dead)
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

// findCycleReference returns some cycle in the graph restricted to nodes not
// in dead, or nil. The returned slice contains exactly the nodes on the cycle.
func findCycleReference(edges map[int64]map[int64]bool, dead map[int64]bool) []int64 {
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

// checkVictimsMatchReference fails the test when the dense detector's
// victims or edges differ from the map-based reference's on one instance,
// and returns how many victims it chose.
func checkVictimsMatchReference(t *testing.T, pending, history []request.Request) int {
	t.Helper()
	got, want := new(Detector).Victims(pending, history), deadlockVictimsReference(pending, history)
	if !slices.Equal(got, want) {
		t.Fatalf("victims %v, reference %v\npending: %v\nhistory: %v", got, want, pending, history)
	}
	if g, w := WaitsFor(pending, history), waitsForReference(pending, history); !reflect.DeepEqual(g, w) {
		t.Fatalf("waits-for edges %v, reference %v\npending: %v\nhistory: %v", g, w, pending, history)
	}
	return len(got)
}

// TestDeadlockVictimsMatchReference: the dense waits-for search picks exactly
// the map-based reference's victims — same cycles found in the same order —
// on small random instances and on dense lock-table ones (few objects, many
// conflicting transactions, so cycles and repeated victim rounds are common).
func TestDeadlockVictimsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	victims, multi := 0, 0
	for trial := 0; trial < 1500; trial++ {
		pending, history := randInstance(rng)
		victims += checkVictimsMatchReference(t, pending, history)
		pending, history = lockInstance(rng, 1+rng.Intn(60), rng.Intn(200), 2+rng.Int63n(30), 1+rng.Int63n(20))
		n := checkVictimsMatchReference(t, pending, history)
		victims += n
		if n > 1 {
			multi++
		}
	}
	t.Logf("3000 instances, %d victims, %d instances with more than one", victims, multi)
	if victims < 1000 || multi < 100 {
		t.Fatalf("only %d victims (%d multi-victim instances): the instances hardly deadlock", victims, multi)
	}
}

// TestDetectorReuseMatchesFresh: the engine keeps one Detector for its whole
// life, so the buffers one search leaves behind must never leak into the
// next. One detector, fed interleaved large lock-table rounds and small
// random ones — so every buffer shrinks and regrows, and a transaction
// finished in one round is live in the next — answers exactly what a fresh
// detector answers on each.
func TestDetectorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var reused Detector
	victims := 0
	for trial := 0; trial < 600; trial++ {
		var pending, history []request.Request
		switch trial % 3 {
		case 0:
			pending, history = lockInstance(rng, 100+rng.Intn(300), 500+rng.Intn(2500), 20+rng.Int63n(200), 10+rng.Int63n(200))
		case 1:
			pending, history = randInstance(rng)
		default:
			pending, history = lockInstance(rng, 1+rng.Intn(30), rng.Intn(60), 2+rng.Int63n(10), 1+rng.Int63n(8))
		}
		got, want := reused.Victims(pending, history), new(Detector).Victims(pending, history)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: reused detector picks %v, a fresh one %v\npending: %v\nhistory: %v", trial, got, want, pending, history)
		}
		victims += len(want)
	}
	if victims < 300 {
		t.Fatalf("only %d victims: the instances hardly deadlock", victims)
	}
}

// decodeInstance turns fuzz bytes into a pending batch and a history. The
// first byte picks how transaction numbers (low nibble) and object numbers
// (high nibble) are spread over int64 (spreadID); then each three bytes are
// one request — the first picks the side (high bit) and the transaction
// (0..15), the second the operation, the third the object (0..15). So an
// instance keeps few transactions and objects, and its conflicts dense,
// whatever numbers they carry.
func decodeInstance(data []byte) (pending, history []request.Request) {
	if len(data) == 0 {
		return nil, nil
	}
	spread, data := data[0], data[1:]
	ops := []request.Op{request.Read, request.Write, request.Commit, request.Abort}
	intra := make(map[int64]int64)
	for i := 0; i+2 < len(data); i += 3 {
		ta := spreadID(spread&15, int64(data[i]&15))
		obj := spreadID(spread>>4, int64(data[i+2]%16))
		r := request.Request{ID: int64(i/3 + 1), TA: ta, IntraTA: intra[ta], Op: ops[data[i+1]%4], Object: obj}
		intra[ta]++
		if r.Op.IsTermination() {
			r.Object = request.NoObject
		}
		if data[i]&0x80 != 0 {
			pending = append(pending, r)
		} else {
			history = append(history, r)
		}
	}
	return pending, history
}

// spreadID maps a small number i (0..15) to an id of the given kind: dense
// (1..16), strided by 4,096 (sparse, equal low bits), large (just below
// MaxInt64, 2^32 apart), negative (-1, NoObject, down), or both signs 2^40
// apart. The detector's tables must probe past collisions and grow whatever
// the ids are.
func spreadID(kind byte, i int64) int64 {
	switch kind % 5 {
	case 1:
		return i << 12
	case 2:
		return math.MaxInt64 - i<<32
	case 3:
		return -1 - i
	case 4:
		if i%2 == 1 {
			return -i << 40
		}
		return i << 40
	}
	return 1 + i
}

// FuzzDeadlockVictims checks the dense detector against the map-based
// reference on byte-coded instances, with a fresh detector and with one that
// searched the instance's first half before, so its tables and buffers are
// cleared and refilled, not new.
func FuzzDeadlockVictims(f *testing.F) {
	f.Add([]byte{})
	for kind := byte(0); kind < 5; kind++ {
		spread := kind | kind<<4
		// A two-cycle: ta1 and ta2 each hold a write lock the other wants.
		f.Add([]byte{spread, 0x00, 1, 1, 0x01, 1, 2, 0x80, 1, 2, 0x81, 1, 1})
		// A three-cycle beside an intra-batch wait and a finished holder.
		f.Add([]byte{spread, 0x00, 1, 1, 0x01, 1, 2, 0x02, 1, 3, 0x80, 1, 2, 0x81, 1, 3, 0x82, 1, 1, 0x83, 1, 1, 0x04, 0, 4, 0x04, 2, 0, 0x85, 1, 4})
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		// Up to 200 requests from 16 transactions: tables of 16 to 512
		// slots, and a finished table that grows past its first 16.
		seed := make([]byte, 1+3*(10+rng.Intn(190)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pending, history := decodeInstance(data)
		checkVictimsMatchReference(t, pending, history)
		var reused Detector
		reused.Victims(pending[:len(pending)/2], history[:len(history)/2])
		if got, want := reused.Victims(pending, history), deadlockVictimsReference(pending, history); !slices.Equal(got, want) {
			t.Fatalf("reused detector: victims %v, reference %v\npending: %v\nhistory: %v", got, want, pending, history)
		}
	})
}

// TestDetectorReuseAllocatesNothing: the engine keeps one Detector and
// searches on most paper-mix rounds, so after its first call on a
// paper-mix-sized round — 200 pending requests against 5,000 history rows,
// terminations among them — a reused detector allocates nothing per call,
// also when a small round comes between (its tables are cleared by the
// slots they used, not reallocated). The round has no cycle, as most
// paper-mix searches have none; a victim list is the caller's and is the
// one allocation a search with victims makes.
func TestDetectorReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pending, history := lockInstance(rng, 200, 5000, 300, 20_000)
	// ta3 and ta4 wait for ta1's write lock (ta2 committed), ta4 also for ta3.
	smallHistory := []request.Request{
		{ID: 1, TA: 1, Op: request.Write, Object: 1},
		{ID: 2, TA: 2, Op: request.Read, Object: 1},
		{ID: 3, TA: 2, IntraTA: 1, Op: request.Commit, Object: request.NoObject},
	}
	small := []request.Request{
		{ID: 4, TA: 3, Op: request.Read, Object: 1},
		{ID: 5, TA: 4, Op: request.Write, Object: 1},
	}
	var d Detector
	if v := d.Victims(pending, history); len(v) > 0 {
		t.Fatalf("the paper-mix-sized round has victims %v; it should have none", v)
	}
	if v := d.Victims(small, smallHistory); len(v) > 0 {
		t.Fatalf("the small round has victims %v; it should have none", v)
	}
	if len(d.g.nodes) == 0 {
		t.Fatal("the small round has no waits-for edge")
	}
	if n := testing.AllocsPerRun(20, func() { d.Victims(pending, history) }); n != 0 {
		t.Errorf("a reused detector allocates %.0f times per paper-mix-sized call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { d.Victims(small, smallHistory); d.Victims(pending, history) }); n != 0 {
		t.Errorf("a reused detector allocates %.0f times per pair of a small and a paper-mix-sized call, want 0", n)
	}
}

// TestWaitsForAllocatesForContentionNotHistory: on a paper-mix-sized round —
// 200 pending requests against 5,000 history rows, on few enough objects
// (2,000) that most pending requests wait on someone — WaitsFor allocates at
// most a tenth of what building the whole lock table does. The count is what
// a starvation-bound round pays before it can look for a cycle.
func TestWaitsForAllocatesForContentionNotHistory(t *testing.T) {
	pending, history := lockInstance(rand.New(rand.NewSource(3)), 200, 5000, 300, 2_000)
	lean := testing.AllocsPerRun(5, func() { WaitsFor(pending, history) })
	table := testing.AllocsPerRun(5, func() { waitsForViaLiveLocks(pending, history) })
	t.Logf("allocations per call: %.0f, lock-table reference %.0f", lean, table)
	if lean*10 > table {
		t.Fatalf("WaitsFor allocates %.0f times per call, more than a tenth of the lock-table reference's %.0f", lean, table)
	}
}
