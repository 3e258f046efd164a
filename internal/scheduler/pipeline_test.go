package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// randExecDelay derives a deterministic pseudo-random per-request server
// latency from the request ID, so both engines of an equivalence pair see
// the same (virtual) remote server.
func randExecDelay(seed int64, maxMicros uint64) func(request.Request) time.Duration {
	return func(r request.Request) time.Duration {
		h := uint64(r.ID)*0x9E3779B97F4A7C15 + uint64(seed)*0xFF51AFD7ED558CCD
		h ^= h >> 33
		return time.Duration(h%maxMicros) * time.Microsecond
	}
}

type execTrace struct {
	id    int64
	value int64
	fail  bool
}

// TestPipelinedMatchesSynchronous is the equivalence property test of the
// pipelined round loop: over random workloads fed in lockstep chunks, with
// random per-request server latencies, the pipelined engine must produce
// exactly the synchronous engine's behavior — per-round victims and
// qualified counts, the executed sequence with its server results, the final
// history and pending stores, and the server table state (run under -race
// in CI).
func TestPipelinedMatchesSynchronous(t *testing.T) {
	// The cross-object protocols cannot shard (TestPartitionedRejects...), so
	// the deferred path at one shard is the only one they run pipelined on.
	for _, proto := range []struct {
		name string
		mk   func() protocol.Protocol
	}{
		{"ss2pl", func() protocol.Protocol { return protocol.SS2PLDatalog() }},
		{"woundwait", func() protocol.Protocol { return protocol.WoundWaitDatalog() }},
		{"sla", func() protocol.Protocol { return protocol.SLAPriorityDatalog() }},
	} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", proto.name, seed), func(t *testing.T) {
				testPipelinedMatchesSynchronous(t, proto.mk, seed)
			})
		}
	}
}

func testPipelinedMatchesSynchronous(t *testing.T, mkProto func() protocol.Protocol, seed int64) {
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 6, TxnsPerClient: 4,
		ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 16, Seed: seed + 1, // few objects: conflicts, victims
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-client closed-loop feeds, as the middleware's client
	// workers behave: one outstanding request per client, the next
	// submitted only after the previous executed (or its TA died).
	// Open-loop feeding would violate the paper's client model —
	// a commit would qualify while earlier operations of its own
	// transaction are still blocked.
	var clients [][]request.Request
	taClient := map[int64]int{}
	for _, q := range gen.ClientQueues() {
		var rs []request.Request
		for _, tx := range q {
			taClient[tx.TA] = len(clients)
			rs = append(rs, tx.Requests...)
		}
		clients = append(clients, rs)
	}
	cursor := make([]int, len(clients))
	inflight := make([]bool, len(clients))

	mk := func() (*Engine, *storage.Server) {
		srv := storage.NewServer(storage.Config{
			Rows:      16,
			ExecDelay: randExecDelay(seed, 30),
		})
		e, err := NewEngine(Config{
			Protocol:    mkProto(),
			Server:      srv,
			KeepLog:     true,
			StarveAfter: 12, // small bound: the starvation path must run too
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, srv
	}
	syncEng, syncSrv := mk()
	pipeEng, pipeSrv := mk()

	// The one executor appends to pipeExec; it is read after StopExecutors.
	var syncExec, pipeExec []execTrace
	pipeEng.StartExecutors(func(c Completion) {
		if c.Err != nil {
			t.Errorf("pipeline executor failed: %v", c.Err)
			return
		}
		for _, ex := range c.Executed {
			pipeExec = append(pipeExec, execTrace{id: ex.Request.ID, value: ex.Value, fail: ex.Err != nil})
		}
	})

	// Aborted transactions stop submitting (a real client would
	// restart under a fresh TA; this script simply moves on to the
	// client's next transaction).
	dead := map[int64]bool{}
	for round := 0; round < 600; round++ {
		idle := true
		for c := range clients {
			if inflight[c] {
				idle = false
				continue
			}
			// Skip over requests of dead transactions, then submit
			// the client's next request to both engines.
			for cursor[c] < len(clients[c]) && dead[clients[c][cursor[c]].TA] {
				cursor[c]++
			}
			if cursor[c] >= len(clients[c]) {
				continue
			}
			r := clients[c][cursor[c]]
			cursor[c]++
			syncEng.Enqueue(r)
			pipeEng.Enqueue(r)
			inflight[c] = true
			idle = false
		}
		if idle {
			break
		}
		sres, err := syncEng.Round()
		if err != nil {
			t.Fatal(err)
		}
		pres, err := pipeEng.RoundDeferred()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sres.Victims) != fmt.Sprint(pres.Victims) {
			t.Fatalf("round %d: victims diverged: sync %v pipe %v", round, sres.Victims, pres.Victims)
		}
		for _, ta := range sres.Victims {
			dead[ta] = true
			inflight[taClient[ta]] = false
		}
		if sres.Stats.Qualified != pres.Stats.Qualified || sres.Stats.Pending != pres.Stats.Pending {
			t.Fatalf("round %d: stats diverged: sync %+v pipe %+v", round, sres.Stats, pres.Stats)
		}
		for _, ex := range sres.Executed {
			syncExec = append(syncExec, execTrace{id: ex.Request.ID, value: ex.Value, fail: ex.Err != nil})
			inflight[taClient[ex.Request.TA]] = false
		}
	}
	pipeEng.StopExecutors()

	if syncEng.PendingLen() != 0 {
		t.Fatalf("workload did not drain: %d pending", syncEng.PendingLen())
	}
	if fmt.Sprint(syncExec) != fmt.Sprint(pipeExec) {
		t.Fatalf("executed traces diverged:\nsync: %v\npipe: %v", syncExec, pipeExec)
	}
	if got, want := pipeSrv.Checksum(), syncSrv.Checksum(); got != want {
		t.Fatalf("server checksums diverged: pipe %d sync %d", got, want)
	}
	sortByID := func(rs []request.Request) []request.Request {
		out := append([]request.Request(nil), rs...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	if fmt.Sprint(sortByID(pipeEng.History().Live())) != fmt.Sprint(sortByID(syncEng.History().Live())) {
		t.Fatal("history stores diverged")
	}
	if fmt.Sprint(pipeEng.History().Log()) != fmt.Sprint(syncEng.History().Log()) {
		t.Fatal("execution logs diverged")
	}
	if err := protocol.CheckSerializable(pipeEng.History().Log()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(pipeEng.History().Log()); err != nil {
		t.Fatal(err)
	}
}

// TestStarvationBoundAbortsOldestBlocked reproduces the ROADMAP-recorded
// starvation bug shape: one transaction blocked behind a lock holder that
// never finishes, while fresh transactions keep qualifying every round — so
// the nothing-qualified deadlock policy never fires. The waiting-age bound
// must abort the starving waiter (no waits-for cycle exists), unblocking its
// client.
func TestStarvationBoundAbortsOldestBlocked(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	e, err := NewEngine(Config{
		Protocol:    protocol.SS2PLDatalog(),
		Server:      srv,
		StarveAfter: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ta1 takes a write lock on object 1 and never commits.
	e.Enqueue(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 1})
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	// ta2 wants object 1: blocked for as long as ta1 holds the lock.
	e.Enqueue(request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 1})
	nextTA := int64(3)
	var victims []int64
	for round := 0; round < 20 && len(victims) == 0; round++ {
		// An unrelated transaction qualifies every round: the batch keeps
		// moving, so the nothing-qualified victim policy can never fire.
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 0, Op: request.Write, Object: 2 + nextTA%50})
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
		nextTA++
		res, err := e.Round()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Executed) == 0 {
			t.Fatalf("round %d: batch stalled (test premise broken)", round)
		}
		victims = append(victims, res.Victims...)
	}
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("starvation bound aborted %v, want [2] (the starving waiter)", victims)
	}
	if e.PendingLen() != 0 {
		t.Fatalf("victim's pending request not dropped: %d left", e.PendingLen())
	}
}

// TestStarvationBoundPrefersCycleVictims: when the oldest waiter's wait is
// explained by an undetected deadlock cycle among a subset of the batch
// (other clients progressing), the bound fires the precise cycle policy
// instead of shooting the waiter.
func TestStarvationBoundPrefersCycleVictims(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	e, err := NewEngine(Config{
		Protocol:    protocol.SS2PLDatalog(),
		Server:      srv,
		StarveAfter: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ta1 and ta2 deadlock: each holds one object, each wants the other's.
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 2},
	)
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
	)
	// Keep unrelated transactions flowing so the nothing-qualified policy
	// stays silent and only the waiting-age bound can intervene.
	nextTA := int64(3)
	var victims []int64
	for round := 0; round < 20 && len(victims) == 0; round++ {
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 0, Op: request.Write, Object: 3 + nextTA%50})
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
		nextTA++
		res, err := e.Round()
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, res.Victims...)
	}
	// The cycle's youngest member, not the oldest waiter (ta1).
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("victims %v, want [2] (cycle policy)", victims)
	}
	// ta1 must proceed now.
	drained := false
	for round := 0; round < 10; round++ {
		res, err := e.Round()
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range res.Executed {
			if ex.Request.TA == 1 {
				drained = true
			}
		}
		if drained {
			break
		}
	}
	if !drained {
		t.Fatal("survivor still blocked after cycle resolution")
	}
}

// TestVictimQualifiedRequestDoesNotExecute: the starvation bound can pick a
// victim in a round where that victim also has a qualified request (its
// other request sits in an undetected cycle while the batch keeps moving).
// The victim's qualified request must be dropped from the batch — executing
// it after the abort's rollback would write as an aborted transaction, never
// to be compensated.
func TestVictimQualifiedRequestDoesNotExecute(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 4096})
	e, err := NewEngine(Config{
		Protocol:    protocol.SS2PLDatalog(),
		Server:      srv,
		StarveAfter: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ta1 and ta2 deadlock on objects 1 and 2.
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 2},
	)
	if _, err := e.Round(); err != nil {
		t.Fatal(err)
	}
	e.Enqueue(
		request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
	)
	// Every round: ta2 also writes a fresh uncontended object (so it has a
	// qualified request in the victim round), and a filler transaction
	// commits (so the nothing-qualified policy never fires and only the
	// waiting-age bound can resolve the cycle).
	nextTA := int64(3)
	intra := int64(2)
	freeObj := int64(100)
	var sawVictim bool
	for round := 0; round < 20 && !sawVictim; round++ {
		e.Enqueue(request.Request{TA: 2, IntraTA: intra, Op: request.Write, Object: freeObj})
		intra++
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 0, Op: request.Write, Object: 2000 + nextTA})
		e.Enqueue(request.Request{TA: nextTA, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
		nextTA++
		res, err := e.Round()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Victims) > 0 {
			sawVictim = true
			if res.Victims[0] != 2 {
				t.Fatalf("victims %v, want [2] (cycle's youngest)", res.Victims)
			}
			for _, ex := range res.Executed {
				if ex.Request.TA == 2 {
					t.Fatalf("victim's qualified request executed after its abort: %v", ex.Request)
				}
			}
		}
		freeObj++
	}
	if !sawVictim {
		t.Fatal("waiting-age bound never fired")
	}
	// Every write ta2 ever executed was compensated by the rollback: all its
	// free objects (and object 2) are back to zero.
	for obj := int64(100); obj < freeObj; obj++ {
		if v := srv.Get(obj); v != 0 {
			t.Fatalf("object %d = %d after ta2's rollback, want 0", obj, v)
		}
	}
	if v := srv.Get(2); v != 0 {
		t.Fatalf("object 2 = %d after ta2's rollback, want 0", v)
	}
}

// TestMiddlewarePipelinedSlowServer runs the closed loop against a slow
// server: the pipelined loop must stay correct under -race, answer every
// client, and record overlapped execution legs in the collector.
func TestMiddlewarePipelinedSlowServer(t *testing.T) {
	srv := storage.NewServer(storage.Config{
		Rows:      50,
		ExecDelay: func(request.Request) time.Duration { return 200 * time.Microsecond },
	})
	e, err := NewEngine(Config{
		Protocol: protocol.SS2PLDatalog(),
		Server:   srv,
		KeepLog:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, FillTrigger{Level: 4}, metrics.NewCollector())
	m.Start()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 8, TxnsPerClient: 3, ReadsPerTxn: 2, WritesPerTxn: 2, Objects: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(m, gen.ClientQueues(), 5)
	m.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedTxns == 0 {
		t.Fatal("nothing committed")
	}
	if err := protocol.CheckSerializable(e.History().Log()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(e.History().Log()); err != nil {
		t.Fatal(err)
	}
	if m.Collector().Exec.Count() == 0 {
		t.Fatal("no overlapped execution legs recorded")
	}
}

// TestMiddlewareNoRetryContentionDrains is the slatiers regression: clients
// that never retry, under heavy write contention. Before the waiting-age
// bound a blocked no-retry client could starve forever (the victim policy
// only fired on fully blocked rounds); now every client must get an answer —
// commit or abort — and the run must terminate.
func TestMiddlewareNoRetryContentionDrains(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	e, err := NewEngine(Config{
		Protocol:    protocol.SS2PLDatalog(),
		Server:      srv,
		KeepLog:     true,
		StarveAfter: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, HybridTrigger{Level: 8, Every: time.Millisecond}, metrics.NewCollector())
	m.Start()
	defer m.Stop()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 12, TxnsPerClient: 6, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 8, Seed: 11, // 12 writers over 8 objects: constant conflicts
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(m, gen.ClientQueues(), 0) // no retries
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CommittedTxns + res.AbortedTxns; got != 12*6 {
		t.Fatalf("answered %d of %d transactions", got, 12*6)
	}
	if err := protocol.CheckSerializable(e.History().Log()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(e.History().Log()); err != nil {
		t.Fatal(err)
	}
}

// gated holds the engine's second qualification until gate opens. Like
// clocked it hides the incremental interface, so every round calls Qualify;
// calls is shared by the instances of all shards.
type gated struct {
	protocol.Protocol
	calls *atomic.Int64
	gate  chan struct{}
}

func (g gated) Qualify(pending, history []request.Request) ([]request.Request, error) {
	if g.calls.Add(1) == 2 {
		<-g.gate
	}
	return g.Protocol.Qualify(pending, history)
}

func (gated) ObjectDecomposable() bool { return true }

// TestReplyDoesNotWaitForNextRound: a batch that finishes executing while the
// loop is busy scheduling the next round is answered at once. Request A
// qualifies in round 1 and executes for 20ms; request B fires round 2, whose
// qualification blocks for 2s. A's reply must not wait for round 2.
func TestReplyDoesNotWaitForNextRound(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			var calls atomic.Int64
			gate := make(chan struct{})
			opener := time.AfterFunc(2*time.Second, func() { close(gate) })
			srv := storage.NewServer(storage.Config{Rows: 64, ExecDelay: func(request.Request) time.Duration { return 20 * ms }})
			e, err := NewPartitionedEngine(PartitionedConfig{
				Base:       Config{Server: srv},
				Partitions: parts,
				Factory:    func() protocol.Protocol { return gated{Protocol: &protocol.FCFS{}, calls: &calls, gate: gate} },
			})
			if err != nil {
				t.Fatal(err)
			}
			m := NewMiddleware(e, FillTrigger{Level: 1}, nil)
			m.Start()
			start := time.Now()
			replyA := make(chan Result, 1)
			go func() { replyA <- m.Submit(request.Request{TA: 1, Op: request.Read, Object: 1}) }()
			for calls.Load() < 1 {
				time.Sleep(50 * time.Microsecond)
			}
			replyB := make(chan Result, 1)
			go func() { replyB <- m.Submit(request.Request{TA: 2, Op: request.Read, Object: 2}) }()
			for calls.Load() < 2 && time.Since(start) < time.Second {
				time.Sleep(50 * time.Microsecond)
			}
			select {
			case res := <-replyA:
				if res.Err != nil {
					t.Errorf("A: %v", res.Err)
				}
				if calls.Load() < 2 {
					t.Errorf("A answered before round 2 started (test premise broken)")
				}
			case <-time.After(500*ms - time.Since(start)):
				t.Errorf("A still unanswered after 500ms with round 2 blocked in qualification")
			}
			if opener.Stop() {
				close(gate)
			} else {
				t.Errorf("the gate opened before A's reply was checked")
			}
			if res := <-replyB; res.Err != nil {
				t.Errorf("B: %v", res.Err)
			}
			m.Stop()
		})
	}
}

// replierFunc adapts a function to a SubmitTo delivery target.
type replierFunc func(tag uint64, res Result)

func (f replierFunc) Reply(tag uint64, res Result) { f(tag, res) }

// TestExecutorsDeliverExactlyOnce: on a 4-shard engine, executors answer
// their clients concurrently with victim notifications (StarveAfter 8 on a
// contended object set) and with forced slot moves, whose migrations quiesce
// the executors during deferred rounds. Every admitted request is answered
// exactly once, nothing stays queued, the server holds exactly the
// acknowledged commits' writes, and Stop leaves no executor running (run
// under -race in CI at GOMAXPROCS 1 and 4).
func TestExecutorsDeliverExactlyOnce(t *testing.T) {
	const clients, txns, objects = 64, 8, 48
	baseline := runtime.NumGoroutine()
	// A slow server keeps plans in flight while slots move: a migration that
	// did not quiesce would let a moved victim's undo overtake its write.
	srv := storage.NewServer(storage.Config{Rows: objects, ExecDelay: randExecDelay(1, 100)})
	e, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, StarveAfter: 8},
		Partitions: 4,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, HybridTrigger{Level: 16, Every: ms}, nil)
	m.Start()

	stopMoves := make(chan struct{})
	movesDone := make(chan struct{})
	go func() {
		defer close(movesDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopMoves:
				return
			case <-time.After(500 * time.Microsecond):
			}
			slot := e.Directory().SlotOf(rng.Int63n(objects))
			e.ForceRebalance(store.SlotMove{Slot: slot, To: rng.Intn(4)})
		}
	}()

	var mu sync.Mutex
	answers := map[request.Key]int{}
	committed := make([]int64, objects) // acknowledged writes per object
	var admitted, aborted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			reply := make(chan Result, 2) // room for a duplicate answer to show up
			for x := 0; x < txns; x++ {
				b := request.NewBuilder(int64(c*txns+x+1), nil)
				var writes []int64
				for i := 0; i < 4; i++ {
					if obj := rng.Int63n(objects); i%2 == 0 {
						b.Read(obj)
					} else {
						b.Write(obj)
						writes = append(writes, obj)
					}
				}
				tx := b.Commit()
				for _, r := range tx.Requests {
					k := r.Key()
					if err := m.SubmitTo(r, replierFunc(func(_ uint64, res Result) {
						mu.Lock()
						answers[k]++
						mu.Unlock()
						reply <- res
					}), 0); err != nil {
						t.Errorf("%v rejected: %v", k, err)
						return
					}
					admitted.Add(1)
					res := <-reply
					if errors.Is(res.Err, ErrTxnAborted) {
						aborted.Add(1)
						break
					}
					if res.Err != nil {
						t.Errorf("%v: %v", k, res.Err)
						return
					}
					if r.Op == request.Commit {
						mu.Lock()
						for _, obj := range writes {
							committed[obj]++
						}
						mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopMoves)
	<-movesDone
	if q := m.Queued(); q != 0 {
		t.Errorf("Queued() = %d after every client finished", q)
	}
	m.Stop()

	if int64(len(answers)) != admitted.Load() {
		t.Errorf("%d of %d admitted requests answered", len(answers), admitted.Load())
	}
	for k, n := range answers {
		if n != 1 {
			t.Errorf("%v answered %d times", k, n)
		}
	}
	if aborted.Load() == 0 {
		t.Errorf("no victims: victim notifications never raced a delivery (test premise broken)")
	}
	if moved := e.Directory().Version(); moved == 0 {
		t.Errorf("no slot moved (test premise broken)")
	}
	for obj, want := range committed {
		if got := srv.Get(int64(obj)); got != want {
			t.Errorf("object %d = %d, want the %d acknowledged committed writes", obj, got, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(ms)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Stop, %d before the engine started", n, baseline)
	}
}
