package scheduler

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/workload"
)

func newEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Protocol: protocol.SS2PLDatalog(),
		Server:   storage.NewServer(storage.Config{Rows: rows}),
		KeepLog:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineSingleTransactionDrains(t *testing.T) {
	e := newEngine(t, 10)
	tx := request.NewBuilder(1, nil).Read(2).Write(2).Commit()
	e.Enqueue(tx.Requests...)
	res, err := e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 3 {
		t.Fatalf("executed %d of 3 (single TA must fully qualify): %v", len(res.Executed), res)
	}
	if e.PendingLen() != 0 {
		t.Errorf("pending left: %d", e.PendingLen())
	}
	// History must be garbage collected: the transaction committed.
	if e.History().Len() != 0 {
		t.Errorf("history not GC'd: %d", e.History().Len())
	}
	if len(e.History().Log()) != 3 {
		t.Errorf("log: %d", len(e.History().Log()))
	}
}

func TestEngineBlocksConflictingBatch(t *testing.T) {
	e := newEngine(t, 10)
	t1 := request.NewBuilder(1, nil).Write(5).Commit()
	t2 := request.NewBuilder(2, nil).Write(5).Commit()
	e.Enqueue(t1.Requests[0], t2.Requests[0])
	res, err := e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 1 || res.Executed[0].Request.TA != 1 {
		t.Fatalf("round 1: %v", res.Executed)
	}
	if e.PendingLen() != 1 {
		t.Fatalf("ta2's write should stay pending")
	}
	// ta1 commits; ta2's write becomes executable next round.
	e.Enqueue(t1.Requests[1])
	res, err = e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 1 || res.Executed[0].Request.Op != request.Commit {
		t.Fatalf("round 2: %v", res.Executed)
	}
	res, err = e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 1 || res.Executed[0].Request.TA != 2 {
		t.Fatalf("round 3: %v", res.Executed)
	}
}

func TestEngineResolvesDeadlock(t *testing.T) {
	e := newEngine(t, 10)
	// ta1 holds 1, ta2 holds 2 (via history), then they cross.
	t1a := request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 1}
	t2a := request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 2}
	e.Enqueue(t1a, t2a)
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	t1b := request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: 2}
	t2b := request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 1}
	e.Enqueue(t1b, t2b)
	res, err := e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victims) != 1 || res.Victims[0] != 2 {
		t.Fatalf("victims: %v", res.Victims)
	}
	// After the victim abort, ta1 must proceed.
	res, err = e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 1 || res.Executed[0].Request.TA != 1 {
		t.Fatalf("post-deadlock round: %v", res.Executed)
	}
}

func TestEngineVictimWritesCompensated(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 10})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	// ta1 writes 1, ta2 writes 2; then they cross -> ta2 is the victim and
	// its executed write on row 2 must be rolled back.
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 2},
	)
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	if srv.Get(2) != 1 {
		t.Fatalf("row 2 = %d before abort", srv.Get(2))
	}
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
	)
	res, err := e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victims) != 1 || res.Victims[0] != 2 {
		t.Fatalf("victims: %v", res.Victims)
	}
	if srv.Get(2) != 0 {
		t.Errorf("victim's write not compensated: row 2 = %d", srv.Get(2))
	}
	if srv.Get(1) != 1 {
		t.Errorf("survivor's write lost: row 1 = %d", srv.Get(1))
	}
}

// TestRoundStatsRecordVictimCause: each way resolve aborts a transaction is
// recorded on the round as its cause — a wound-wait wound; a fully blocked
// 2-cycle; the same cycle among a subset of the batch while other clients
// progress, found once the oldest waiter passes StarveAfter; and a waiter
// behind a live holder past StarveAfter with no cycle to explain the wait.
// Rounds without victims record no cause.
func TestRoundStatsRecordVictimCause(t *testing.T) {
	w := func(ta, intra, obj int64) request.Request {
		return request.Request{TA: ta, IntraTA: intra, Op: request.Write, Object: obj}
	}
	crossed := [][]request.Request{{w(1, 0, 1), w(2, 0, 2)}, {w(1, 1, 2), w(2, 1, 1)}}
	for _, tc := range []struct {
		name   string
		proto  protocol.Protocol
		rounds [][]request.Request // enqueued one batch per round
		filler bool                // an unrelated transaction commits every round
		victim int64
		cause  string
	}{
		{"wound", protocol.WoundWaitDatalog(),
			[][]request.Request{{w(5, 0, 7)}, {{TA: 2, Op: request.Read, Object: 7}}}, false, 5, metrics.VictimWound},
		{"blocked 2-cycle", protocol.SS2PLDatalog(), crossed, false, 2, metrics.VictimCycle},
		{"cycle among a subset", protocol.SS2PLDatalog(), crossed, true, 2, metrics.VictimStarvedCycle},
		{"waiter behind a live holder", protocol.SS2PLDatalog(),
			[][]request.Request{{w(1, 0, 1)}, {w(2, 0, 1)}}, true, 2, metrics.VictimStarvedOldest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(Config{
				Protocol:    tc.proto,
				Server:      storage.NewServer(storage.Config{Rows: 4096}),
				StarveAfter: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 20; round++ {
				if round < len(tc.rounds) {
					e.Enqueue(tc.rounds[round]...)
				}
				if tc.filler {
					ta := int64(100 + round)
					e.Enqueue(w(ta, 0, 1000+ta), request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
				}
				res, err := e.Round()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Victims) == 0 {
					if res.Stats.Cause != "" {
						t.Fatalf("round %d: no victims but cause %q", round, res.Stats.Cause)
					}
					continue
				}
				if len(res.Victims) != 1 || res.Victims[0] != tc.victim || res.Stats.Victims != 1 || res.Stats.Cause != tc.cause {
					t.Fatalf("round %d: victims %v (stats %d) cause %q, want [%d] cause %q",
						round, res.Victims, res.Stats.Victims, res.Stats.Cause, tc.victim, tc.cause)
				}
				if tc.filler && round < 5 {
					t.Fatalf("round %d: the starvation bound (5 rounds) fired early", round)
				}
				return
			}
			t.Fatal("no victim in 20 rounds")
		})
	}
}

// TestEngineWoundWaitAbortsDeclaredVictims: a wound-wait protocol's wounds
// are aborted, also when it runs as a constituent of an adaptive pair (below
// the threshold, the strict side qualifies and its wounds must reach the
// engine through the pair).
func TestEngineWoundWaitAbortsDeclaredVictims(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto func() protocol.Protocol
	}{
		{"woundwait", func() protocol.Protocol { return protocol.WoundWaitDatalog() }},
		{"adaptive", func() protocol.Protocol {
			return protocol.NewAdaptive(protocol.WoundWaitDatalog(), protocol.RelaxedReadsDatalog(), 1<<20)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := storage.NewServer(storage.Config{Rows: 10})
			e, err := NewEngine(Config{Protocol: tc.proto(), Server: srv, KeepLog: true})
			if err != nil {
				t.Fatal(err)
			}
			// Younger ta5 takes a write lock first.
			e.Enqueue(request.Request{TA: 5, IntraTA: 0, Op: request.Write, Object: 7})
			if _, err := e.Round(); err != nil {
				t.Fatal(err)
			}
			// Older ta2 arrives wanting to read the same object: ta5 is
			// wounded and rolled back first, then ta2's read executes in the
			// same round and must observe the compensated value.
			e.Enqueue(request.Request{TA: 2, IntraTA: 0, Op: request.Read, Object: 7})
			res, err := e.Round()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Victims) != 1 || res.Victims[0] != 5 {
				t.Fatalf("victims: %+v", res)
			}
			if len(res.Executed) != 1 || res.Executed[0].Request.TA != 2 {
				t.Fatalf("older txn blocked after wound: %+v", res)
			}
			if res.Executed[0].Value != 0 {
				t.Fatalf("read observed uncompensated write: %d", res.Executed[0].Value)
			}
			if srv.Get(7) != 0 {
				t.Fatalf("wounded write not compensated: %d", srv.Get(7))
			}
		})
	}
}

func TestEngineWoundWaitClosedLoopSerializable(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 32})
	e, err := NewEngine(Config{Protocol: protocol.WoundWaitDatalog(), Server: srv, KeepLog: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, FillTrigger{Level: 4}, metrics.NewCollector())
	m.Start()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 8, TxnsPerClient: 3, ReadsPerTxn: 2, WritesPerTxn: 2, Objects: 32, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(m, gen.ClientQueues(), 8)
	m.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedTxns == 0 {
		t.Fatal("nothing committed under wound-wait")
	}
	if err := protocol.CheckSerializable(e.History().Log()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(e.History().Log()); err != nil {
		t.Fatal(err)
	}
}

// TestEnginePassThroughForwardsEverything: the paper's non-scheduling
// baseline is FCFS, which executes conflicting requests in one round.
func TestEnginePassThroughForwardsEverything(t *testing.T) {
	e, err := NewEngine(Config{
		Protocol: &protocol.FCFS{},
		Server:   storage.NewServer(storage.Config{Rows: 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t1 := request.NewBuilder(1, nil).Write(5).Commit()
	t2 := request.NewBuilder(2, nil).Write(5).Commit()
	e.Enqueue(t1.Requests[0], t2.Requests[0], t1.Requests[1], t2.Requests[1])
	res, err := e.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 4 {
		t.Fatalf("pass-through executed %d of 4", len(res.Executed))
	}
}

func TestEngineSchedulingModeRequiresProtocol(t *testing.T) {
	_, err := NewEngine(Config{Server: storage.NewServer(storage.Config{Rows: 1})})
	if err == nil {
		t.Fatal("scheduling mode without protocol accepted")
	}
	_, err = NewEngine(Config{Protocol: &protocol.FCFS{}})
	if err == nil {
		t.Fatal("missing server accepted")
	}
}

func TestEngineRTERelation(t *testing.T) {
	e := newEngine(t, 10)
	if e.RTE().Len() != 0 {
		t.Fatal("rte not empty before first round")
	}
	tx := request.NewBuilder(1, nil).Read(2).Commit()
	e.Enqueue(tx.Requests...)
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	rte := e.RTE()
	if rte.Len() != 2 {
		t.Fatalf("rte rows: %d", rte.Len())
	}
	if _, ok := rte.Schema().Index("intrata"); !ok {
		t.Errorf("rte schema: %s", rte.Schema())
	}
}

func runMiddlewareWorkload(t *testing.T, trig Trigger, clients, txns int) (WorkloadResult, *Middleware, *storage.Server) {
	t.Helper()
	srv := storage.NewServer(storage.Config{Rows: 50})
	e, err := NewEngine(Config{
		Protocol: protocol.SS2PLDatalog(),
		Server:   srv,
		KeepLog:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, trig, metrics.NewCollector())
	m.Start()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: clients, TxnsPerClient: txns,
		ReadsPerTxn: 3, WritesPerTxn: 3, Objects: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(m, gen.ClientQueues(), 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	return res, m, srv
}

func TestMiddlewareClosedLoopSerializable(t *testing.T) {
	res, m, _ := runMiddlewareWorkload(t, FillTrigger{Level: 4}, 8, 3)
	want := int64(8 * 3)
	if res.CommittedTxns+res.AbortedTxns != want {
		t.Fatalf("committed %d + aborted %d != %d", res.CommittedTxns, res.AbortedTxns, want)
	}
	if res.CommittedTxns == 0 {
		t.Fatal("nothing committed")
	}
	if err := protocol.CheckSerializable(m.engine.History().Log()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(m.engine.History().Log()); err != nil {
		t.Fatal(err)
	}
}

func TestMiddlewareTriggers(t *testing.T) {
	for _, trig := range []Trigger{
		TimeTrigger{Every: 500 * time.Microsecond},
		FillTrigger{Level: 3},
		HybridTrigger{Level: 16, Every: time.Millisecond},
	} {
		res, m, srv := runMiddlewareWorkload(t, trig, 4, 2)
		if res.CommittedTxns == 0 {
			t.Errorf("%s: nothing committed", trig.Name())
		}
		if err := protocol.CheckSerializable(m.engine.History().Log()); err != nil {
			t.Errorf("%s: %v", trig.Name(), err)
		}
		if err := protocol.CheckTerminationOrder(m.engine.History().Log()); err != nil {
			t.Errorf("%s: %v", trig.Name(), err)
		}
		stmts, _, _ := srv.Stats()
		if stmts == 0 {
			t.Errorf("%s: no statements reached the server", trig.Name())
		}
	}
}

func TestMiddlewareEveryRequestAnsweredExactlyOnce(t *testing.T) {
	// The runner blocks per request, so a lost reply would hang; a duplicate
	// reply would panic the buffered channel accounting. Completing at all,
	// with the right counts, is the assertion.
	res, m, srv := runMiddlewareWorkload(t, FillTrigger{Level: 2}, 6, 4)
	sum := m.Collector().Summarise()
	if sum.Executed == 0 {
		t.Fatal("collector saw no executions")
	}
	stmts, commits, aborts := srv.Stats()
	if commits != res.CommittedTxns {
		t.Errorf("server commits %d != runner committed %d", commits, res.CommittedTxns)
	}
	if stmts == 0 || aborts < 0 {
		t.Errorf("server stats: %d %d %d", stmts, commits, aborts)
	}
	if m.Collector().Latency.Count() == 0 {
		t.Error("no latencies recorded")
	}
}

// TestRecycledReplyChannelsNeverCross: Submit's reply channels are pooled,
// which is safe only while every waiter is answered exactly once. Clients
// submit while superseded retransmissions, refused changed duplicates,
// deadlock victims and a Stop all answer waiters and channels go back to the
// pool; no client may read a Result
// meant for another request, and no pooled channel may hold a stray one.
// A client that owns an object writes it alone, so its successful writes
// must read 1, 2, 3, ... (a foreign Result breaks the sequence; an error
// restarts it, since an aborted write's effect is not the client's to know).
func TestRecycledReplyChannelsNeverCross(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv, StarveAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, HybridTrigger{Level: 8, Every: time.Millisecond}, nil)
	m.Start()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		problems []string
		causes   = map[error]int{}
	)
	report := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// check vets a Result for r and reports whether the client goes on.
	check := func(r request.Request, res Result) bool {
		mu.Lock()
		causes[res.Err]++
		mu.Unlock()
		switch {
		case res.Err == ErrStopped:
			return false
		case res.Err != nil && res.Err != ErrTxnAborted && res.Err != errSuperseded && res.Err != ErrDuplicateKey:
			report("%v: unexpected error %v", r, res.Err)
			return false
		case res.Err == nil && r.Op == request.Commit && res.Value != 0:
			report("%v: a commit answered with value %d", r, res.Value)
		case res.Err == nil && r.Op == request.Write && res.Value < 1:
			report("%v: a write answered with value %d", r, res.Value)
		}
		return true
	}
	ta := func(client, i int) int64 { return int64(client)<<32 | int64(i) }

	// Owners: clients 0..11 write objects 0..11, one transaction at a time.
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			want := int64(1)
			for i := 0; ; i++ {
				w := request.Request{TA: ta(c, i), IntraTA: 0, Op: request.Write, Object: int64(c)}
				res := m.Submit(w)
				if !check(w, res) {
					return
				}
				if res.Err != nil {
					want = 0
					continue
				}
				if want != 0 && res.Value != want {
					report("%v: owner's write read %d, want %d", w, res.Value, want)
				}
				want = res.Value + 1
				cm := request.Request{TA: ta(c, i), IntraTA: 1, Op: request.Commit, Object: request.NoObject}
				if !check(cm, m.Submit(cm)) {
					return
				}
			}
		}(c)
	}
	// Deadlockers: two clients lock objects 40 and 41 in opposite orders, so
	// waits-for cycles form and the victim policy aborts transactions.
	for c := 12; c < 14; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first, second := int64(40), int64(41)
			if c == 13 {
				first, second = second, first
			}
			for i := 0; ; i++ {
				for j, r := range []request.Request{
					{TA: ta(c, i), IntraTA: 0, Op: request.Write, Object: first},
					{TA: ta(c, i), IntraTA: 1, Op: request.Write, Object: second},
					{TA: ta(c, i), IntraTA: 2, Op: request.Commit, Object: request.NoObject},
				} {
					res := m.Submit(r)
					if !check(r, res) {
						return
					}
					if res.Err != nil && j < 2 {
						break // the transaction is over
					}
				}
			}
		}(c)
	}
	// Duplicates: three submissions of one request key race — two identical
	// (a retransmission: the older waiter is superseded) and one with a
	// different object (refused while another copy is live) — then the
	// transaction commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			var dup sync.WaitGroup
			var goOn [3]bool
			for k := 0; k < 3; k++ {
				dup.Add(1)
				go func(k int) {
					defer dup.Done()
					r := request.Request{TA: ta(20, i), IntraTA: 0, Op: request.Write, Object: int64(50 + k/2)}
					goOn[k] = check(r, m.Submit(r))
				}(k)
			}
			dup.Wait()
			if !goOn[0] || !goOn[1] || !goOn[2] {
				return
			}
			cm := request.Request{TA: ta(20, i), IntraTA: 1, Op: request.Commit, Object: request.NoObject}
			if !check(cm, m.Submit(cm)) {
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	done := make(chan struct{})
	go func() { m.Stop(); wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Stop or a client is still blocked (a second send to a reply channel blocks once it is full)")
	}
	for _, p := range problems {
		t.Error(p)
	}
	for _, err := range []error{nil, ErrTxnAborted, errSuperseded, ErrDuplicateKey, ErrStopped} {
		if causes[err] == 0 {
			t.Errorf("no Result with error %v: the test did not exercise that answer (saw %v)", err, causes)
		}
	}
	for i := 0; i < 256; i++ {
		if ch := replies.Get().(replyChan); len(ch) != 0 {
			t.Fatalf("a pooled reply channel holds a stray Result %+v", <-ch)
		}
	}
}

func TestMiddlewareStopFailsInflight(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 10})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	// A trigger that never fires: submissions pile up.
	m := NewMiddleware(e, FillTrigger{Level: 1 << 30}, nil)
	m.Start()
	done := make(chan Result, 1)
	go func() {
		done <- m.Submit(request.Request{TA: 1, IntraTA: 0, Op: request.Read, Object: 1})
	}()
	time.Sleep(10 * time.Millisecond)
	m.Stop()
	select {
	case r := <-done:
		// Stop drains the queue, so the request may have executed or failed;
		// either way the client is unblocked.
		_ = r
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after Stop")
	}
}

// TestEngineRoundReportsStrategy: the protocol's per-round evaluation
// strategy (the path its incremental evaluation took) lands in the round stats, and
// the collector's summary tallies it.
func TestEngineRoundReportsStrategy(t *testing.T) {
	e := newEngine(t, 10)
	col := metrics.NewCollector()
	for round := 0; round < 3; round++ {
		tx := request.NewBuilder(int64(round+1), nil).Read(int64(round % 10)).Commit()
		e.Enqueue(tx.Requests...)
		res, err := e.Round()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Strategy == "" {
			t.Fatalf("round %d: no strategy reported", round)
		}
		col.AddRound(res.Stats)
	}
	sum := col.Summarise()
	total := 0
	for _, n := range sum.Strategies {
		total += n
	}
	if total != 3 {
		t.Fatalf("summary strategies %v cover %d of 3 rounds", sum.Strategies, total)
	}
}
