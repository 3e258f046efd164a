package scheduler

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestPartitionedMatchesSingleLoop is the equivalence property test of the
// partitioned scheduler (the PR's correctness anchor, mirroring
// TestPipelinedMatchesSynchronous): over random workloads fed in lockstep to
// a single-loop oracle and a partitioned engine with random partition
// counts — few objects, so transactions randomly straddle partitions — the
// partitioned engine must produce the oracle's behavior exactly: per-round
// victims, merged pending/qualified counts, the executed requests with their
// server results, the final history, the per-object execution order, and the
// server table state. Runs under -race (CI exercises GOMAXPROCS=1 and 4: the
// sequential cutoff and the truly parallel shard phases).
func TestPartitionedMatchesSingleLoop(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("parts=%d/seed=%d", parts, seed), func(t *testing.T) {
				gen, err := workload.NewGenerator(workload.Config{
					Clients: 6, TxnsPerClient: 4,
					ReadsPerTxn: 2, WritesPerTxn: 2,
					Objects: 16, Seed: seed + 1, // few objects: conflicts, victims, cross-partition commits
				})
				if err != nil {
					t.Fatal(err)
				}
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

				mkSrv := func() *storage.Server {
					return storage.NewServer(storage.Config{Rows: 16})
				}
				oracleSrv := mkSrv()
				oracle, err := NewEngine(Config{
					Protocol:    protocol.SS2PLDatalog(),
					Server:      oracleSrv,
					KeepLog:     true,
					StarveAfter: 12, // small bound: the starvation path must run too
				})
				if err != nil {
					t.Fatal(err)
				}
				partSrv := mkSrv()
				pe, err := NewPartitionedEngine(PartitionedConfig{
					Base: Config{
						Server:      partSrv,
						KeepLog:     true,
						StarveAfter: 12,
					},
					Partitions: parts,
					Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
				})
				if err != nil {
					t.Fatal(err)
				}

				sortTraces := func(ts []execTrace) {
					sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
				}
				var oracleExec, partExec []execTrace
				dead := map[int64]bool{}
				for round := 0; round < 600; round++ {
					idle := true
					for c := range clients {
						if inflight[c] {
							idle = false
							continue
						}
						for cursor[c] < len(clients[c]) && dead[clients[c][cursor[c]].TA] {
							cursor[c]++
						}
						if cursor[c] >= len(clients[c]) {
							continue
						}
						r := clients[c][cursor[c]]
						cursor[c]++
						oracle.Enqueue(r)
						pe.Enqueue(r)
						inflight[c] = true
						idle = false
					}
					if idle {
						break
					}
					ores, err := oracle.Round()
					if err != nil {
						t.Fatal(err)
					}
					pres, err := pe.Round()
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(ores.Victims) != fmt.Sprint(pres.Victims) {
						t.Fatalf("round %d: victims diverged: oracle %v partitioned %v", round, ores.Victims, pres.Victims)
					}
					for _, ta := range ores.Victims {
						dead[ta] = true
						inflight[taClient[ta]] = false
					}
					if ores.Stats.Qualified != pres.Stats.Qualified || ores.Stats.Pending != pres.Stats.Pending {
						t.Fatalf("round %d: merged stats diverged: oracle pending=%d qualified=%d, partitioned pending=%d qualified=%d",
							round, ores.Stats.Pending, ores.Stats.Qualified, pres.Stats.Pending, pres.Stats.Qualified)
					}
					// The executed sets must match per round; cross-shard
					// interleaving is unspecified, so compare by request ID
					// (unique per execution here).
					var or, pr []execTrace
					for _, ex := range ores.Executed {
						or = append(or, execTrace{id: ex.Request.ID, value: ex.Value, fail: ex.Err != nil})
						inflight[taClient[ex.Request.TA]] = false
					}
					for _, ex := range pres.Executed {
						pr = append(pr, execTrace{id: ex.Request.ID, value: ex.Value, fail: ex.Err != nil})
					}
					sortTraces(or)
					sortTraces(pr)
					if fmt.Sprint(or) != fmt.Sprint(pr) {
						t.Fatalf("round %d: executed batches diverged:\noracle: %v\npartitioned: %v", round, or, pr)
					}
					oracleExec = append(oracleExec, or...)
					partExec = append(partExec, pr...)
				}

				if oracle.PendingLen() != 0 || pe.PendingLen() != 0 {
					t.Fatalf("workload did not drain: oracle %d, partitioned %d pending", oracle.PendingLen(), pe.PendingLen())
				}
				if fmt.Sprint(oracleExec) != fmt.Sprint(partExec) {
					t.Fatalf("executed traces diverged:\noracle: %v\npartitioned: %v", oracleExec, partExec)
				}
				if got, want := partSrv.Checksum(), oracleSrv.Checksum(); got != want {
					t.Fatalf("server checksums diverged: partitioned %d oracle %d", got, want)
				}
				sortByID := func(rs []request.Request) []request.Request {
					out := append([]request.Request(nil), rs...)
					sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
					return out
				}
				var partLive []request.Request
				for s := 0; s < pe.Partitions(); s++ {
					partLive = append(partLive, pe.Shard(s).History().Live()...)
				}
				if fmt.Sprint(sortByID(partLive)) != fmt.Sprint(sortByID(oracle.History().Live())) {
					t.Fatal("history stores diverged")
				}
				// The merged log must carry each executed request exactly once
				// (replica copies excluded) and preserve the oracle's
				// per-object execution order — the conflict-relevant order.
				mergedLog := pe.MergedLog()
				if fmt.Sprint(sortByID(mergedLog)) != fmt.Sprint(sortByID(oracle.History().Log())) {
					t.Fatal("execution logs diverged as sets")
				}
				perObject := func(log []request.Request) map[int64][]int64 {
					out := map[int64][]int64{}
					for _, r := range log {
						if r.Object != request.NoObject {
							out[r.Object] = append(out[r.Object], r.ID)
						}
					}
					return out
				}
				if fmt.Sprint(perObject(mergedLog)) != fmt.Sprint(perObject(oracle.History().Log())) {
					t.Fatal("per-object execution orders diverged")
				}
				if err := protocol.CheckSerializable(mergedLog); err != nil {
					t.Fatal(err)
				}
				if err := protocol.CheckTerminationOrder(mergedLog); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPartitionedRejectsCrossObjectProtocols: protocols whose decision joins
// across objects (SLA priority, wound-wait) cannot shard by object and must
// be refused for partitions > 1 (and accepted for 1).
func TestPartitionedRejectsCrossObjectProtocols(t *testing.T) {
	for _, factory := range []func() protocol.Protocol{
		func() protocol.Protocol { return protocol.SLAPriorityDatalog() },
		func() protocol.Protocol { return protocol.WoundWaitDatalog() },
	} {
		srv := storage.NewServer(storage.Config{Rows: 8})
		_, err := NewPartitionedEngine(PartitionedConfig{
			Base:       Config{Server: srv},
			Partitions: 2,
			Factory:    factory,
		})
		if err == nil {
			t.Fatalf("cross-object protocol %s accepted with 2 partitions", factory().Name())
		}
		if _, err := NewPartitionedEngine(PartitionedConfig{
			Base:       Config{Server: srv},
			Partitions: 1,
			Factory:    factory,
		}); err != nil {
			t.Fatalf("partitions=1 must accept any protocol: %v", err)
		}
	}
}

// TestCrossPartitionCommitOrdering pins the cross-partition termination
// protocol on a deterministic two-shard case: a transaction writes one
// object in each shard and commits. The commit must be admitted to both
// shards, execute exactly once (home shard), appear once in the merged log,
// and release both shards' locks (waiting writers proceed; histories GC).
func TestCrossPartitionCommitOrdering(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true},
		Partitions: 2,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find two objects living in different shards.
	objA := int64(0)
	objB := int64(-1)
	for o := int64(1); o < 64; o++ {
		if pe.part.ForObject(o) != pe.part.ForObject(objA) {
			objB = o
			break
		}
	}
	if objB < 0 {
		t.Fatal("no object pair straddles the two shards")
	}
	pe.Enqueue(
		request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: objA},
		request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: objB},
	)
	if _, err := pe.Round(); err != nil {
		t.Fatal(err)
	}
	// Writers behind ta1's locks, one per shard.
	pe.Enqueue(
		request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: objA},
		request.Request{TA: 3, IntraTA: 0, Op: request.Write, Object: objB},
	)
	if res, err := pe.Round(); err != nil {
		t.Fatal(err)
	} else if len(res.Executed) != 0 {
		t.Fatalf("blocked writers executed: %v", res.Executed)
	}
	// The cross-partition commit.
	pe.Enqueue(request.Request{TA: 1, IntraTA: 2, Op: request.Commit, Object: request.NoObject})
	res, err := pe.Round()
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for _, ex := range res.Executed {
		if ex.Request.Op == request.Commit && ex.Request.TA == 1 {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("cross-partition commit executed %d times, want 1", commits)
	}
	if res.Stats.Cross != 1 {
		t.Fatalf("Stats.Cross = %d, want 1", res.Stats.Cross)
	}
	// Both shards released ta1's locks: the waiting writers proceed.
	res, err = pe.Round()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, ex := range res.Executed {
		got[ex.Request.TA] = true
	}
	if !got[2] || !got[3] {
		t.Fatalf("waiting writers still blocked after cross-partition commit: executed %v", res.Executed)
	}
	// The merged log carries the commit once.
	logCommits := 0
	for _, r := range pe.MergedLog() {
		if r.Op == request.Commit && r.TA == 1 {
			logCommits++
		}
	}
	if logCommits != 1 {
		t.Fatalf("merged log carries the commit %d times, want 1", logCommits)
	}
	// ta1 is fully collected from both shards.
	for s := 0; s < 2; s++ {
		for _, r := range pe.Shard(s).History().Live() {
			if r.TA == 1 {
				t.Fatalf("shard %d still holds ta1's history row %v after commit+GC", s, r)
			}
		}
	}
}

// TestDuplicateKeyRunsOnce is the regression test of the newest-wins replace
// path, which executed one request key twice: while w(1) under key (1,0) is
// executing, a second submission of the key writes another object. It must
// be refused with ErrDuplicateKey, the first submission must get its own
// result, and the second object must never be written — on one shard, and on
// four with the two objects on different shards.
func TestDuplicateKeyRunsOnce(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			const objA = 1
			started := make(chan struct{}, 1)
			srv := storage.NewServer(storage.Config{Rows: 64, ExecDelay: func(r request.Request) time.Duration {
				if r.Object != objA {
					return 0
				}
				select {
				case started <- struct{}{}:
				default:
				}
				return 50 * time.Millisecond
			}})
			e, err := NewPartitionedEngine(PartitionedConfig{
				Base:       Config{Server: srv, ResubmitWindow: 1024},
				Partitions: parts,
				Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
			})
			if err != nil {
				t.Fatal(err)
			}
			objB := int64(2)
			for parts > 1 && e.part.ForObject(objB) == e.part.ForObject(objA) {
				objB++
			}
			m := NewMiddleware(e, HybridTrigger{Level: 1, Every: time.Millisecond}, nil)
			m.Start()
			defer m.Stop()

			first := make(chan Result, 1)
			go func() {
				first <- m.Submit(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: objA})
			}()
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("the first submission never reached the server")
			}
			if res := m.Submit(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: objB}); res.Err != ErrDuplicateKey {
				t.Errorf("the changed duplicate was answered %+v, want ErrDuplicateKey", res)
			}
			if res := <-first; res.Err != nil || res.Value != 1 {
				t.Errorf("the first submission was answered %+v, want its write's result 1", res)
			}
			if res := m.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
				t.Errorf("commit: %v", res.Err)
			}
			if a, b := srv.Get(objA), srv.Get(objB); a != 1 || b != 0 {
				t.Errorf("objects %d and %d read %d and %d, want 1 and 0 (the key ran once)", objA, objB, a, b)
			}
		})
	}
}

// TestPartitionedMiddlewareConcurrentSubmit is the -race coverage of the
// concurrent admission path: goroutines racing submissions of one request key
// with different objects that straddle shards, then a bursty multi-goroutine
// closed-loop workload over the partitioned middleware. Exactly one racer's
// request executes and the others are refused; every submission must be
// answered, the run must drain, and the merged log must stay serializable.
func TestPartitionedMiddlewareConcurrentSubmit(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 32})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true, StarveAfter: 30},
		Partitions: 4,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewPartitionedMiddleware(pe, HybridTrigger{Level: 8, Every: time.Millisecond}, metrics.NewCollector())

	// Racing duplicates: one transaction, eight goroutines submitting the
	// same request key with different objects. They race before the loop
	// starts, so the first to register is still live when the others do:
	// seven are refused on the spot, and the loop then runs the survivor.
	const dupTA = 1 << 20
	var wg sync.WaitGroup
	answers := make([]Result, 8)
	refused := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			answers[g] = m.Submit(request.Request{TA: dupTA, IntraTA: 0, Op: request.Write, Object: int64(g * 3)})
			refused <- struct{}{}
		}(g)
	}
	for i := 0; i < 7; i++ {
		<-refused
	}
	m.Start()
	defer m.Stop()
	wg.Wait()
	winner := -1
	for g, a := range answers {
		switch {
		case a.Err == nil && winner < 0:
			winner = g
		case a.Err != ErrDuplicateKey:
			t.Fatalf("racer %d answered %v; want one success and seven ErrDuplicateKey: %v", g, a, answers)
		}
	}
	if winner < 0 {
		t.Fatalf("no racer executed: %v", answers)
	}
	for g := 0; g < 8; g++ {
		want := int64(0)
		if g == winner {
			want = 1
		}
		if v := srv.Get(int64(g * 3)); v != want {
			t.Fatalf("object %d = %d after the race, want %d (racer %d won)", g*3, v, want, winner)
		}
	}
	if r := m.Submit(request.Request{TA: dupTA, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); r.Err != nil {
		t.Fatalf("terminating the duplicate transaction failed: %v", r.Err)
	}

	// Bursty closed-loop contention across all shards.
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 12, TxnsPerClient: 5, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 32, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(m, gen.ClientQueues(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CommittedTxns + res.AbortedTxns; got != 12*5 {
		t.Fatalf("answered %d of %d transactions", got, 12*5)
	}
	if res.CommittedTxns == 0 {
		t.Fatal("nothing committed")
	}
	if err := protocol.CheckSerializable(pe.MergedLog()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(pe.MergedLog()); err != nil {
		t.Fatal(err)
	}
	if got := m.Collector().PartitionSummaries(); len(got) == 0 {
		t.Fatal("no per-partition round stats recorded")
	}
	if m.Collector().Summarise().Rounds == 0 {
		t.Fatal("no merged rounds recorded")
	}
}

// TestPartitionedMiddlewareSynchronous exercises the serialized partitioned
// loop (pe.Round on the loop goroutine) — the oracle-comparable mode — end
// to end through the middleware.
func TestPartitionedMiddlewareSynchronous(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 24})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true},
		Partitions: 2,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewPartitionedMiddleware(pe, FillTrigger{Level: 4}, metrics.NewCollector())
	m.SetSynchronous(true)
	m.Start()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 6, TxnsPerClient: 3, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 24, Seed: 5,
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
	if err := protocol.CheckSerializable(pe.MergedLog()); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(pe.MergedLog()); err != nil {
		t.Fatal(err)
	}
}
