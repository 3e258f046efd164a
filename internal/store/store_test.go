package store

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
)

func TestHistoryAppendAndGC(t *testing.T) {
	s := NewHistory(true)
	s.Append(
		request.Request{ID: 1, TA: 1, Op: request.Write, Object: 3},
		request.Request{ID: 2, TA: 2, Op: request.Read, Object: 4},
		request.Request{ID: 3, TA: 1, Op: request.Commit, Object: request.NoObject},
	)
	if s.Len() != 3 {
		t.Fatalf("len: %d", s.Len())
	}
	if !s.Finished(1) || s.Finished(2) {
		t.Error("finished tracking wrong")
	}
	removed := s.GC()
	if removed != 2 || s.Len() != 1 {
		t.Fatalf("GC removed %d, left %d", removed, s.Len())
	}
	if s.Live()[0].TA != 2 {
		t.Errorf("wrong survivor: %v", s.Live())
	}
	if len(s.Log()) != 3 {
		t.Errorf("log must be unaffected by GC: %d", len(s.Log()))
	}
}

func TestHistoryGCIdempotent(t *testing.T) {
	s := NewHistory(false)
	s.Append(request.Request{ID: 1, TA: 1, Op: request.Write, Object: 0})
	if n := s.GC(); n != 0 {
		t.Fatalf("GC of live txn removed %d", n)
	}
	s.Append(request.Request{ID: 2, TA: 1, Op: request.Abort, Object: request.NoObject})
	if n := s.GC(); n != 2 {
		t.Fatalf("GC after abort removed %d", n)
	}
	if n := s.GC(); n != 0 {
		t.Fatalf("second GC removed %d", n)
	}
	if s.Log() != nil {
		t.Error("log kept despite keepLog=false")
	}
}

func TestHistoryLateArrivalOfFinishedTA(t *testing.T) {
	// A request of an already-finished TA (out-of-order arrival) is
	// collected on the next GC.
	s := NewHistory(false)
	s.Append(request.Request{ID: 1, TA: 5, Op: request.Commit, Object: request.NoObject})
	s.GC()
	s.Append(request.Request{ID: 2, TA: 5, Op: request.Read, Object: 1})
	if n := s.GC(); n != 1 {
		t.Fatalf("late arrival not collected: %d", n)
	}
}

func TestHistoryWritesOf(t *testing.T) {
	s := NewHistory(false)
	s.Append(
		request.Request{ID: 1, TA: 1, Op: request.Write, Object: 3},
		request.Request{ID: 2, TA: 1, Op: request.Read, Object: 4},
		request.Request{ID: 3, TA: 2, Op: request.Write, Object: 5},
		request.Request{ID: 4, TA: 1, Op: request.Write, Object: 3},
	)
	got := s.AppendWritesOf([]int64{7}, 1)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 3 || got[0] != 3 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("AppendWritesOf([7], 1) = %v, want [3 3 7]", got)
	}
	if got := s.AppendWritesOf(nil, 9); got != nil {
		t.Fatalf("AppendWritesOf of unknown TA appended %v", got)
	}
}

func TestHistoryDeltaLog(t *testing.T) {
	s := NewHistory(false)
	// A transaction appended and collected within one window is net absent:
	// the change log must cancel the pair, not report a no-op insert+delete.
	s.Append(
		request.Request{ID: 1, TA: 1, Op: request.Write, Object: 3},
		request.Request{ID: 2, TA: 1, Op: request.Commit, Object: request.NoObject},
		request.Request{ID: 3, TA: 2, Op: request.Read, Object: 1},
	)
	s.GC()
	var d protocol.Deltas
	s.Deltas(&d)
	if len(d.HistoryAppended) != 1 || d.HistoryAppended[0].ID != 3 || len(d.HistoryRemoved) != 0 {
		t.Fatalf("same-window append+GC not cancelled: +%v -%v", d.HistoryAppended, d.HistoryRemoved)
	}
	if s.Len() != 1 {
		t.Fatalf("live after GC: %d", s.Len())
	}
	s.ResetDeltas()
	// Across windows the removal is a real event.
	s.Append(request.Request{ID: 4, TA: 2, Op: request.Commit, Object: request.NoObject})
	s.GC()
	d = protocol.Deltas{}
	s.Deltas(&d)
	if len(d.HistoryAppended) != 0 || len(d.HistoryRemoved) != 1 || d.HistoryRemoved[0].ID != 3 {
		t.Fatalf("cross-window removal wrong: +%v -%v", d.HistoryAppended, d.HistoryRemoved)
	}
}

func TestPendingAdmitRemove(t *testing.T) {
	p := NewPending()
	r1 := request.Request{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 7}
	r2 := request.Request{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 8}
	r3 := request.Request{ID: 3, TA: 1, IntraTA: 1, Op: request.Write, Object: 9}
	p.Admit(r1, r2, r3)
	if p.Len() != 3 {
		t.Fatalf("len: %d", p.Len())
	}
	if !p.Remove(r2.Key()) {
		t.Fatal("remove of present key failed")
	}
	if p.Remove(r2.Key()) {
		t.Fatal("remove of absent key succeeded")
	}
	if p.Len() != 2 {
		t.Fatalf("len after remove: %d", p.Len())
	}
	// Same-window admit+remove pairs net out of the change log entirely.
	var d protocol.Deltas
	p.Deltas(&d)
	if len(d.PendingAdded) != 2 || len(d.PendingRemoved) != 0 {
		t.Fatalf("same-window delta not netted: +%d -%d", len(d.PendingAdded), len(d.PendingRemoved))
	}
	p.ResetDeltas()
	// Across windows the removals are real events.
	if n := p.RemoveTA(1); n != 2 {
		t.Fatalf("RemoveTA removed %d of 2", n)
	}
	if p.Len() != 0 {
		t.Fatalf("len after RemoveTA: %d", p.Len())
	}
	d = protocol.Deltas{}
	p.Deltas(&d)
	if len(d.PendingAdded) != 0 || len(d.PendingRemoved) != 2 {
		t.Fatalf("cross-window delta log: +%d -%d", len(d.PendingAdded), len(d.PendingRemoved))
	}
}

// TestBounceNetsWithinWindow: a migration that moves rows out and straight
// back within one delta window (the rebalancer extracts a slot and a later
// move returns it) leaves neither side of the window holding the bounced rows
// that predate it, and a bounced row added in the same window stays a plain
// addition — the sides are disjoint. Both stores run the same script beside
// a plain removal: an extract whose rows go straight back in.
func TestBounceNetsWithinWindow(t *testing.T) {
	standing := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 2},
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Write, Object: 3},
	}
	fresh := request.Request{ID: 4, TA: 4, IntraTA: 0, Op: request.Read, Object: 1}
	odd := func(obj int64) bool { return obj%2 == 1 }
	check := func(t *testing.T, extracted int, added, removed, live []request.Request) {
		t.Helper()
		if extracted != 3 {
			t.Fatalf("extracted %d rows, want 3", extracted)
		}
		ids := func(rs []request.Request) []int64 {
			out := make([]int64, 0, len(rs))
			for _, r := range rs {
				out = append(out, r.ID)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		if got := ids(live); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
			t.Fatalf("live %v, want the bounced rows 1, 3 and 4", got)
		}
		if len(added) != 1 || added[0].ID != 4 || len(removed) != 1 || removed[0].ID != 2 {
			t.Fatalf("bounce not netted: +%v -%v", ids(added), ids(removed))
		}
		for _, a := range added {
			for _, r := range removed {
				if a.ID == r.ID {
					t.Fatalf("request %d on both sides of the window", a.ID)
				}
			}
		}
	}
	t.Run("pending", func(t *testing.T) {
		p := NewPending()
		p.Admit(standing...)
		p.ResetDeltas()
		p.Admit(fresh)
		p.Remove(request.Key{TA: 2, IntraTA: 0})
		n := p.ExtractMatching(odd, func(r request.Request, since int) { p.Admit(r) })
		var d protocol.Deltas
		p.Deltas(&d)
		check(t, n, d.PendingAdded, d.PendingRemoved, p.Live())
	})
	t.Run("history", func(t *testing.T) {
		h := NewHistory(false)
		h.Append(standing...)
		h.ResetDeltas()
		h.Append(fresh)
		h.Append(request.Request{ID: 5, TA: 2, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
		h.GC() // removes request 2, and cancels its commit's same-window append
		taken := h.ExtractMatching(odd)
		h.AppendLiveOnly(taken...)
		var d protocol.Deltas
		h.Deltas(&d)
		check(t, len(taken), d.HistoryAppended, d.HistoryRemoved, h.Live())
	})
}

func TestPendingBlockedClock(t *testing.T) {
	p := NewPending()
	p.Admit(request.Request{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 1})
	if _, _, ok := p.OldestBlocked(); ok {
		t.Fatal("clock started before first observed round")
	}
	p.ObserveRound(10, nil)
	ta, since, ok := p.OldestBlocked()
	if !ok || ta != 1 || since != 10 {
		t.Fatalf("oldest blocked: ta%d since %d ok %v", ta, since, ok)
	}
	p.Admit(request.Request{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 1})
	p.ObserveRound(11, nil)
	// TA 1 still oldest; TA 2's clock started at 11.
	if ta, since, _ := p.OldestBlocked(); ta != 1 || since != 10 {
		t.Fatalf("oldest blocked: ta%d since %d", ta, since)
	}
	// TA 1 progresses: its clock restarts and TA 2 becomes oldest.
	p.ObserveRound(12, map[int64]bool{1: true})
	if ta, since, _ := p.OldestBlocked(); ta != 2 || since != 11 {
		t.Fatalf("after progress: ta%d since %d", ta, since)
	}
	// Removing TA 2's only request releases its tracking state.
	p.Remove(request.Key{TA: 2, IntraTA: 0})
	if ta, _, _ := p.OldestBlocked(); ta != 1 {
		t.Fatalf("after remove: ta%d", ta)
	}
}

// TestPendingRandomizedMirror drives the store with random admits and
// removals against a map mirror: the dense slice, the key index and the
// delta log must stay consistent throughout.
func TestPendingRandomizedMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPending()
	mirror := map[request.Key]request.Request{}
	nextID := int64(1)
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 || len(mirror) == 0 {
			r := request.Request{
				ID: nextID, TA: rng.Int63n(50), IntraTA: nextID, // unique keys
				Op: request.Read, Object: rng.Int63n(100),
			}
			nextID++
			p.Admit(r)
			mirror[r.Key()] = r
		} else if rng.Intn(4) == 0 {
			// Remove a whole transaction.
			var ta int64 = -1
			for k := range mirror {
				ta = k.TA
				break
			}
			want := 0
			for k := range mirror {
				if k.TA == ta {
					delete(mirror, k)
					want++
				}
			}
			if got := p.RemoveTA(ta); got != want {
				t.Fatalf("step %d: RemoveTA(%d) = %d, want %d", step, ta, got, want)
			}
		} else {
			var k request.Key
			for kk := range mirror {
				k = kk
				break
			}
			delete(mirror, k)
			if !p.Remove(k) {
				t.Fatalf("step %d: present key %v not removed", step, k)
			}
		}
		if p.Len() != len(mirror) {
			t.Fatalf("step %d: len %d != mirror %d", step, p.Len(), len(mirror))
		}
	}
	for _, r := range p.Live() {
		m, ok := mirror[r.Key()]
		if !ok || m.ID != r.ID {
			t.Fatalf("live row %v not in mirror", r)
		}
	}
	var d protocol.Deltas
	p.Deltas(&d)
	if len(d.PendingAdded)-len(d.PendingRemoved) != len(mirror) {
		t.Fatalf("delta log does not net to the store: +%d -%d live %d",
			len(d.PendingAdded), len(d.PendingRemoved), len(mirror))
	}
}

// TestDeltasHandOutSharedRows: a store builds a request's row when Deltas
// first hands the request to a protocol, not when it takes the request in —
// a protocol that reads no rows never pays for one — and the stored copy,
// the request Take returns and the history row appended from it all share
// that row.
func TestDeltasHandOutSharedRows(t *testing.T) {
	shared := func(a, b request.Request) bool { return &a.Row()[0] == &b.Row()[0] }
	p, h := NewPending(), NewHistory(false)
	r := request.Request{ID: 1, TA: 1, Op: request.Write, Object: 3}
	p.Admit(r)
	if shared(p.Live()[0], p.Live()[0]) {
		t.Fatal("Admit built a row")
	}
	var d protocol.Deltas
	p.Deltas(&d)
	if !shared(d.PendingAdded[0], p.Live()[0]) {
		t.Fatal("the logged and the stored copy do not share one row")
	}
	p.ResetDeltas()
	taken, ok := p.Take(r.Key())
	if !ok || !shared(taken, d.PendingAdded[0]) {
		t.Fatal("Take returned a copy without the row")
	}
	h.Append(taken, request.Request{ID: 2, TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
	d = protocol.Deltas{}
	p.Deltas(&d)
	h.Deltas(&d)
	if len(d.PendingRemoved) != 1 || !shared(d.PendingRemoved[0], taken) {
		t.Fatal("the removal does not carry the row")
	}
	for i, hr := range h.Live() {
		if !shared(hr, d.HistoryAppended[i]) {
			t.Fatalf("history row %v and its log entry do not share one row", hr)
		}
	}
	if !shared(h.Live()[0], taken) {
		t.Fatal("the executed request's history row is not its pending row")
	}
}
