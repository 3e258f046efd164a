package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
)

// The operation space of the differential store test: a handful of
// transactions, request numbers and objects, so keys collide across time
// (re-admission after removal, a transaction's rows after its collection),
// transactions finish and straggle, and object classes matter (migration
// extracts). Like the
// scheduler, the generator never admits a key that is already pending.
const (
	opsTAs     = 6
	opsIntras  = 4
	opsObjects = 8
)

// storeOps drives the slot-table stores and the map-based model side by side
// from one byte stream, one operation per step, and compares them after every
// step.
type storeOps struct {
	t      testing.TB
	data   []byte
	p      *Pending
	mp     *mapPending
	h      *History
	mh     *mapHistory
	nextID int64
	round  int
	// stash holds history rows extracted by a migration and not yet moved
	// back; both stores extracted the same multiset.
	stash []request.Request
}

// next consumes one byte of the stream as a choice among n (0 once the stream
// is exhausted).
func (g *storeOps) next(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *storeOps) key() request.Key {
	return request.Key{TA: int64(g.next(opsTAs)), IntraTA: int64(g.next(opsIntras))}
}

func (g *storeOps) request(k request.Key, term bool) request.Request {
	g.nextID++
	r := request.Request{ID: g.nextID, TA: k.TA, IntraTA: k.IntraTA, Op: request.Read,
		Object: int64(g.next(opsObjects)), Class: fmt.Sprint("c", g.nextID%3), Priority: g.nextID % 5}
	switch {
	case term && g.next(2) == 0:
		r.Op, r.Object = request.Abort, request.NoObject
	case term:
		r.Op, r.Object = request.Commit, request.NoObject
	case g.next(2) == 0:
		r.Op = request.Write
	}
	return r
}

// run applies operations until the stream is exhausted.
func (g *storeOps) run() {
	for step := 0; len(g.data) > 0; step++ {
		what := g.step()
		g.compare(fmt.Sprintf("step %d (%s)", step, what))
	}
}

// step applies one operation to both sides and checks its direct results.
func (g *storeOps) step() string {
	t := g.t
	switch g.next(16) {
	case 0, 1, 2:
		k := g.key()
		if _, pending := g.mp.shards[mapShardOf(k)][k]; pending {
			return "admit (key pending)"
		}
		r := g.request(k, g.next(6) == 0)
		g.p.Admit(r)
		g.mp.Admit(r)
		return "admit"
	case 3:
		k := g.key()
		if got, want := g.p.Remove(k), g.mp.Remove(k); got != want {
			t.Fatalf("Remove(%v) = %v, model %v", k, got, want)
		}
		return "remove"
	case 4:
		k := g.key()
		want, ok := request.Request{}, false
		if pos, found := g.mp.shards[mapShardOf(k)][k]; found {
			want, ok = g.mp.reqs[pos], true
			g.mp.Remove(k)
		}
		got, gotOK := g.p.Take(k)
		if gotOK != ok || !got.Equal(want) {
			t.Fatalf("Take(%v) = %v %v, model %v %v", k, got, gotOK, want, ok)
		}
		return "take"
	case 5:
		ta := int64(g.next(opsTAs))
		if got, want := g.p.RemoveTA(ta), g.mp.RemoveTA(ta); got != want {
			t.Fatalf("RemoveTA(%d) = %d, model %d", ta, got, want)
		}
		return "remove-ta"
	case 6:
		// Migrate a class of objects out and bounce the rows straight back,
		// clocks merged, in the same window.
		class, mod := int64(g.next(2)), int64(2+g.next(2))
		match := func(obj int64) bool { return obj%mod == class }
		type visit struct {
			r     request.Request
			since int
		}
		var got, want []visit
		n := g.p.ExtractMatching(match, func(r request.Request, since int) { got = append(got, visit{r, since}) })
		m := g.mp.ExtractMatching(match, func(r request.Request, since int) { want = append(want, visit{r, since}) })
		byID := func(a, b visit) int { return cmp.Compare(a.r.ID, b.r.ID) }
		slices.SortFunc(got, byID)
		slices.SortFunc(want, byID)
		same := func(a, b visit) bool { return a.r.Equal(b.r) && a.since == b.since }
		if n != m || !slices.EqualFunc(got, want, same) {
			t.Fatalf("ExtractMatching: %d %v, model %d %v", n, got, m, want)
		}
		for _, v := range got {
			g.p.Admit(v.r)
			g.p.MergeClock(v.r.TA, v.since)
			g.mp.Admit(v.r)
			g.mp.MergeClock(v.r.TA, v.since)
		}
		return "pending-bounce"
	case 7:
		ta, since := int64(g.next(opsTAs)), g.next(g.round+2)-1
		g.p.MergeClock(ta, since)
		g.mp.MergeClock(ta, since)
		return "merge-clock"
	case 8:
		g.round++
		var progressed map[int64]bool
		if mask := g.next(1 << opsTAs); mask != 0 {
			progressed = map[int64]bool{}
			for ta := int64(0); ta < opsTAs; ta++ {
				if mask&(1<<ta) != 0 {
					progressed[ta] = true
				}
			}
		}
		g.p.ObserveRound(g.round, progressed)
		g.mp.ObserveRound(g.round, progressed)
		return "observe-round"
	case 9, 10, 11:
		r := g.request(g.key(), g.next(4) == 0)
		if g.next(4) == 0 {
			g.h.AppendLiveOnly(r)
			g.mh.AppendLiveOnly(r)
		} else {
			g.h.Append(r)
			g.mh.Append(r)
		}
		return "append"
	case 12:
		if got, want := g.h.GC(), g.mh.GC(); got != want {
			t.Fatalf("GC = %d, model %d", got, want)
		}
		return "gc"
	case 13:
		class, mod := int64(g.next(2)), int64(2+g.next(2))
		match := func(obj int64) bool { return obj%mod == class }
		got, want := g.h.ExtractMatching(match), g.mh.ExtractMatching(match)
		if !sameRequests(got, want) {
			t.Fatalf("history ExtractMatching: %v, model %v", got, want)
		}
		g.stash = append(g.stash, got...)
		if g.next(2) == 0 {
			return "history-extract"
		}
		fallthrough
	case 14:
		g.h.AppendLiveOnly(g.stash...)
		g.mh.AppendLiveOnly(g.stash...)
		g.stash = g.stash[:0]
		return "history-migrate-back"
	default:
		g.p.ResetDeltas()
		g.mp.ResetDeltas()
		g.h.ResetDeltas()
		g.mh.ResetDeltas()
		return "reset-deltas"
	}
}

// compare checks every observable of both stores against the model, and the
// slot tables' own invariants.
func (g *storeOps) compare(at string) {
	t := g.t
	var d, md protocol.Deltas
	g.p.Deltas(&d)
	g.mp.Deltas(&md)
	g.h.Deltas(&d)
	g.mh.Deltas(&md)
	for _, c := range []struct {
		name      string
		got, want []request.Request
	}{
		{"pending", g.p.Live(), g.mp.Live()},
		{"history", g.h.Live(), g.mh.Live()},
		{"PendingAdded", d.PendingAdded, md.PendingAdded},
		{"PendingRemoved", d.PendingRemoved, md.PendingRemoved},
		{"HistoryAppended", d.HistoryAppended, md.HistoryAppended},
		{"HistoryRemoved", d.HistoryRemoved, md.HistoryRemoved},
	} {
		if !sameRequests(c.got, c.want) {
			t.Fatalf("%s: %s\n got   %v\n model %v", at, c.name, c.got, c.want)
		}
	}
	for ta := int64(0); ta < opsTAs; ta++ {
		got, want := g.h.AppendWritesOf(nil, ta), g.mh.WritesOf(ta)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || g.h.WriteCountOf(ta) != len(want) {
			t.Fatalf("%s: AppendWritesOf(%d) = %v (count %d), model %v", at, ta, got, g.h.WriteCountOf(ta), want)
		}
		since, ok := -2, false
		if s, found := g.p.slotOf[ta]; found {
			since, ok = g.p.since[s], true
		}
		if want, wantOK := g.mp.blockedSince[ta]; ok != wantOK || (ok && since != want) {
			t.Fatalf("%s: clock of ta%d = %d %v, model %d %v", at, ta, since, ok, want, wantOK)
		}
	}
	ta, since, ok := g.p.OldestBlocked()
	mta, msince, mok := g.mp.OldestBlocked()
	if ta != mta || since != msince || ok != mok {
		t.Fatalf("%s: OldestBlocked = ta%d %d %v, model ta%d %d %v", at, ta, since, ok, mta, msince, mok)
	}
	g.p.checkInvariants(t, at, "pending")
	g.h.checkInvariants(t, at, "history")
}

// sameRequests compares two request lists as multisets.
func sameRequests(a, b []request.Request) bool {
	if len(a) != len(b) {
		return false
	}
	byID := func(x, y request.Request) int { return cmp.Compare(x.ID, y.ID) }
	a, b = slices.SortedFunc(slices.Values(a), byID), slices.SortedFunc(slices.Values(b), byID)
	return slices.EqualFunc(a, b, request.Request.Equal)
}

// checkInvariants verifies the table's slot table against the dense rows:
// every row's slot lists it, every live slot is indexed under its TA and
// lists only its own rows, the add log and its row positions point at each
// other, and removedAt points at the removals it names. name labels the
// store in failures.
func (t *table) checkInvariants(tb testing.TB, at, name string) {
	tb.Helper()
	if len(t.rowSlot) != len(t.rows) || len(t.rowAdded) != len(t.rows) || len(t.addedRow) != len(t.added) {
		tb.Fatalf("%s: %s side arrays out of step", at, name)
	}
	listed := 0
	for s, sl := range t.slots {
		if len(sl.rows) == 0 {
			continue
		}
		if t.slotOf[sl.ta] != int32(s) {
			tb.Fatalf("%s: %s slot %d (ta%d) not indexed", at, name, s, sl.ta)
		}
		for _, pos := range sl.rows {
			if t.rows[pos].TA != sl.ta || t.rowSlot[pos] != int32(s) {
				tb.Fatalf("%s: %s slot %d lists row %d of ta%d", at, name, s, pos, t.rows[pos].TA)
			}
		}
		listed += len(sl.rows)
	}
	if listed != len(t.rows) || len(t.slotOf)+len(t.free) != len(t.slots) {
		tb.Fatalf("%s: %s slots list %d of %d rows; %d indexed + %d free of %d", at, name, listed, len(t.rows), len(t.slotOf), len(t.free), len(t.slots))
	}
	for pos, a := range t.rowAdded {
		if a >= 0 && (t.addedRow[a] != int32(pos) || t.added[a] != t.rows[pos]) {
			tb.Fatalf("%s: %s row %d's add-log entry %d does not point back", at, name, pos, a)
		}
	}
	for a, pos := range t.addedRow {
		if t.rowAdded[pos] != int32(a) {
			tb.Fatalf("%s: %s add-log entry %d's row %d does not point back", at, name, a, pos)
		}
	}
	for id, i := range t.removedAt {
		if t.removed[i].ID != id {
			tb.Fatalf("%s: %s removedAt[%d] = %d points at request %d", at, name, id, i, t.removed[i].ID)
		}
	}
}

func runStoreOps(t testing.TB, data []byte) {
	g := &storeOps{t: t, data: data, p: NewPending(), mp: newMapPending(), h: NewHistory(true), mh: newMapHistory(true)}
	g.run()
	if !slices.EqualFunc(g.h.Log(), g.mh.Log(), request.Request.Equal) {
		t.Fatalf("execution logs differ")
	}
}

// TestStoresMatchMapModel drives the slot-table stores and the map-based
// stores they replaced with the same random operations — admits of keys
// not pending, Remove, Take and RemoveTA, migration extracts
// bounced back in the same window, clock merges and observed rounds, history
// appends of terminations and replicas, GC and delta-window resets — and
// requires the same live rows, delta logs (as multisets), writes and
// waiting-age clocks after every step.
func TestStoresMatchMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for run := 0; run < 200; run++ {
		data := make([]byte, 2000)
		rng.Read(data)
		runStoreOps(t, data)
	}
}

// FuzzStoreOps is TestStoresMatchMapModel with the byte stream chosen by the
// fuzzer.
func FuzzStoreOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runStoreOps(t, data) })
}
