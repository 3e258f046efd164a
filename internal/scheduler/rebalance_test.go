package scheduler

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestRebalancingMatchesSingleLoop is the migration property test: a
// rebalancing partitioned engine fed in lockstep with a single-loop oracle
// must match it exactly — per-round victims, merged counts, executed batches
// with server results, final histories, merged log, per-object order, and
// server checksums — while slot moves and rotations of the hottest slot are
// forced every round on top of the automatic trigger. A hot-key workload
// keeps the moved slots loaded, so migrations actually carry pending and
// history rows. Runs at GOMAXPROCS 1 (sequential shard stages) and 4 (truly
// parallel), under -race in CI.
func TestRebalancingMatchesSingleLoop(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, parts := range []int{2, 4, 8} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("procs=%d/parts=%d/seed=%d", procs, parts, seed), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)

					gen, err := workload.NewGenerator(workload.Config{
						Clients: 6, TxnsPerClient: 4,
						ReadsPerTxn: 2, WritesPerTxn: 2,
						Objects: 16, Seed: seed + 1,
						HotKeys: 4, HotFrac: 0.8, // hot slots: migrations move real rows
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

					oracleSrv := storage.NewServer(storage.Config{Rows: 16})
					oracle, err := NewEngine(Config{
						Protocol:    protocol.SS2PLDatalog(),
						Server:      oracleSrv,
						KeepLog:     true,
						StarveAfter: 12,
					})
					if err != nil {
						t.Fatal(err)
					}
					partSrv := storage.NewServer(storage.Config{Rows: 16})
					pe, err := NewPartitionedEngine(PartitionedConfig{
						Base: Config{
							Server:      partSrv,
							KeepLog:     true,
							StarveAfter: 12,
						},
						Partitions: parts,
						Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
						// The trigger plans its own moves on rounds where no
						// forced ones land.
						Rebalance: RebalanceConfig{Slots: 64, Trigger: 1.3, Every: 3},
					})
					if err != nil {
						t.Fatal(err)
					}

					// The slots the workload's objects live in — forced moves
					// target these so migrations carry rows.
					slotSet := map[int]bool{}
					for o := int64(0); o < 16; o++ {
						slotSet[pe.part.SlotOf(o)] = true
					}
					var usedSlots []int
					for s := range slotSet {
						usedSlots = append(usedSlots, s)
					}
					sort.Ints(usedSlots)
					rnd := rand.New(rand.NewSource(seed * 7331))
					forceMoves := func() {
						n := 1 + rnd.Intn(3)
						for i := 0; i < n; i++ {
							slot := usedSlots[rnd.Intn(len(usedSlots))]
							if rnd.Float64() < 0.4 {
								// A rotation as the planner makes one: the
								// hottest slot, whole, to the coldest shard.
								slot = hottestSlot(pe.reb.slotWork, slot)
								pe.ForceRebalance(store.SlotMove{Slot: slot, To: coldestShard(pe.reb.shardWork)})
							} else {
								pe.ForceRebalance(store.SlotMove{Slot: slot, To: rnd.Intn(parts)})
							}
						}
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
						forceMoves()
						ores, err := oracle.Round()
						if err != nil {
							t.Fatal(err)
						}
						pres, err := pe.Round()
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(ores.Victims) != fmt.Sprint(pres.Victims) {
							t.Fatalf("round %d: victims diverged: oracle %v rebalanced %v", round, ores.Victims, pres.Victims)
						}
						for _, ta := range ores.Victims {
							dead[ta] = true
							inflight[taClient[ta]] = false
						}
						if ores.Stats.Qualified != pres.Stats.Qualified || ores.Stats.Pending != pres.Stats.Pending {
							t.Fatalf("round %d: merged stats diverged: oracle pending=%d qualified=%d, rebalanced pending=%d qualified=%d",
								round, ores.Stats.Pending, ores.Stats.Qualified, pres.Stats.Pending, pres.Stats.Qualified)
						}
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
							t.Fatalf("round %d: executed batches diverged:\noracle: %v\nrebalanced: %v", round, or, pr)
						}
						oracleExec = append(oracleExec, or...)
						partExec = append(partExec, pr...)
					}

					if oracle.PendingLen() != 0 || pe.PendingLen() != 0 {
						t.Fatalf("workload did not drain: oracle %d, rebalanced %d pending", oracle.PendingLen(), pe.PendingLen())
					}
					if pe.part.Version() == 0 {
						t.Fatal("no slot moves were applied — the test forced none")
					}
					if fmt.Sprint(oracleExec) != fmt.Sprint(partExec) {
						t.Fatalf("executed traces diverged:\noracle: %v\nrebalanced: %v", oracleExec, partExec)
					}
					if got, want := partSrv.Checksum(), oracleSrv.Checksum(); got != want {
						t.Fatalf("server checksums diverged: rebalanced %d oracle %d", got, want)
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
}

// hottestSlot returns the slot with the most load, or fallback when no slot
// carries any.
func hottestSlot(slotWork []float64, fallback int) int {
	best, bestW := fallback, 0.0
	for slot, w := range slotWork {
		if w > bestW {
			best, bestW = slot, w
		}
	}
	return best
}

// coldestShard returns the shard with the least load, the lowest index on a
// tie.
func coldestShard(shardWork []float64) int {
	c := 0
	for s, w := range shardWork {
		if w < shardWork[c] {
			c = s
		}
	}
	return c
}

// TestRebalanceRotatesIrreducibleHotSlot pins the planner's rotation branch:
// a slot holding one hot object that is its shard's whole load overshoots
// the gap to every other shard, so no move fits and the planner rotates the
// slot whole to the coldest shard instead — one move per check, and at most
// once per rotateCooldown×Every rounds however often the trigger fires.
func TestRebalanceRotatesIrreducibleHotSlot(t *testing.T) {
	const parts, every = 4, 2
	const window = rotateCooldown * every
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: storage.NewServer(storage.Config{Rows: 64})},
		Partitions: parts,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
		Rebalance:  RebalanceConfig{Slots: 64, Trigger: 1.1, Every: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	const obj = 7
	rb, hot := pe.reb, pe.part.SlotOf(obj)
	var rotated []int
	for round := 1; round <= 10*window; round++ {
		// The skew the loads would show: the hot slot carries all of its
		// shard's load, the others carry distinct light loads on no slot.
		pe.rounds = round
		owner := pe.part.RouteOf(hot)
		clear(rb.slotWork)
		rb.slotWork[hot] = 10
		for s := range rb.shardWork {
			rb.shardWork[s] = float64(1 + s)
		}
		rb.shardWork[owner] = 10
		coldest := coldestShard(rb.shardWork)

		moves := pe.pendingMoves()
		if len(moves) == 0 {
			continue
		}
		if want := []store.SlotMove{{Slot: hot, To: coldest}}; fmt.Sprint(moves) != fmt.Sprint(want) {
			t.Fatalf("round %d: planned %v, want the hot slot rotated to the coldest shard: %v", round, moves, want)
		}
		if n := len(rotated); n > 0 && round-rotated[n-1] < window {
			t.Fatalf("round %d: rotated again %d rounds after round %d, cooldown is %d", round, round-rotated[n-1], rotated[n-1], window)
		}
		rotated = append(rotated, round)
		if err := pe.applyMoves(moves); err != nil {
			t.Fatal(err)
		}
		if got := pe.part.ForObject(obj); got != coldest {
			t.Fatalf("round %d: object %d routes to shard %d after rotation, want %d", round, obj, got, coldest)
		}
	}
	// The skew never lets up, so the slot rotates once per window.
	if len(rotated) != 10 || rb.moves != 10 {
		t.Fatalf("rotated at rounds %v (%d moves counted), want once per %d rounds", rotated, rb.moves, window)
	}
}

// TestMigrationReleasesLateTerminationLocks pins the sequencer's late-copy
// injection: a termination enqueued while its transaction's rows sit on one
// shard must still release locks on the shard the rows migrate to before the
// commit round runs.
func TestMigrationReleasesLateTerminationLocks(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true},
		Partitions: 2,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
		Rebalance:  RebalanceConfig{Slots: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := int64(3)
	slot := pe.part.SlotOf(obj)
	src := pe.part.ForObject(obj)
	dst := 1 - src
	pe.Enqueue(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: obj})
	if _, err := pe.Round(); err != nil {
		t.Fatal(err)
	}
	// Commit is enqueued against the pre-move mask {src}; the history row
	// migrates to dst in the same round the commit is admitted.
	pe.Enqueue(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
	pe.ForceRebalance(store.SlotMove{Slot: slot, To: dst})
	if _, err := pe.Round(); err != nil {
		t.Fatal(err)
	}
	// A writer on dst must not find ta1's migrated lock still held.
	pe.Enqueue(request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: obj})
	res, err := pe.Round()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ex := range res.Executed {
		if ex.Request.TA == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("writer blocked on a migrated lock of a committed transaction: executed %v", res.Executed)
	}
	for s := 0; s < 2; s++ {
		for _, r := range pe.Shard(s).History().Live() {
			if r.TA == 1 {
				t.Fatalf("shard %d still holds ta1's row %v after commit+GC", s, r)
			}
		}
	}
}

// TestRebalancerMiddlewareConcurrent drives the automatic rebalancer under
// concurrent admission and the pipelined executors (-race coverage of
// quiesce, the forced-move queue, and the load report): a hot-key workload
// with the trigger armed must drain, stay serializable, apply at least one
// move, and export the load snapshot through the collector.
func TestRebalancerMiddlewareConcurrent(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true, StarveAfter: 30},
		Partitions: 4,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
		Rebalance:  RebalanceConfig{Slots: 64, Trigger: 1.2, Every: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	m := NewPartitionedMiddleware(pe, HybridTrigger{Level: 8, Every: time.Millisecond}, col)
	m.Start()
	defer m.Stop()

	gen, err := workload.NewGenerator(workload.Config{
		Clients: 12, TxnsPerClient: 6, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 64, Seed: 11,
		HotKeys: 4, HotFrac: 0.85,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Extra forced moves racing the loop's planner and admission.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			pe.ForceRebalance(store.SlotMove{Slot: i % 64, To: i % 4})
			time.Sleep(200 * time.Microsecond)
		}
	}()
	res, err := RunWorkload(m, gen.ClientQueues(), 5)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CommittedTxns + res.AbortedTxns; got != 12*6 {
		t.Fatalf("answered %d of %d transactions", got, 12*6)
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
	if pe.Directory().Version() == 0 {
		t.Fatal("no routing-table version was ever applied")
	}
	snap := col.Snapshot()
	if len(snap.Load.Shards) != 4 {
		t.Fatalf("collector load snapshot has %d shards, want 4", len(snap.Load.Shards))
	}
	if snap.QualifiedImbalance <= 0 {
		t.Fatal("snapshot carries no qualified imbalance for a 4-shard run")
	}
}
