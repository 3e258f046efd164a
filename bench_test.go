package repro

// One benchmark per table and figure of the paper (the harnesses are in
// internal/experiments), plus ablation benches for the design choices the
// paper leaves open and the layer benches scripts/bench.sh records.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The experiment harnesses themselves (full series, paper-vs-measured) are
// regenerated by cmd/experiments; these benches time the underlying
// machinery so changes to the engines show up as regressions.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// BenchmarkTable1RelatedApproaches regenerates paper Table 1 (static matrix;
// benched for completeness of the per-table index).
func BenchmarkTable1RelatedApproaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.FormatTable1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Schema regenerates paper Table 2.
func BenchmarkTable2Schema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.FormatTable2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2NativeOverhead runs the multi-user vs single-user
// simulation behind paper Figure 2 at its two anchor points and reports the
// ratio as a benchmark metric.
func BenchmarkFigure2NativeOverhead(b *testing.B) {
	for _, clients := range []int{300, 500} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				cfg := sim.PaperSimConfig(clients)
				cfg.BudgetTicks /= 20 // 12 s virtual budget per iteration
				r := sim.Run(cfg)
				ratio = r.RatioPct()
			}
			b.ReportMetric(ratio, "MU/SU-%")
		})
	}
}

// declBenchInstance is the paper-mix midpoint instance, every request
// carrying its row as the scheduler's stores hand them to a protocol (a
// request without one converts afresh on every read).
func declBenchInstance(clients int) (pending, history []request.Request) {
	pending, history = experiments.BuildMidpointInstance(clients, 100000, 20, 42)
	for _, rs := range [2][]request.Request{pending, history} {
		for i := range rs {
			rs[i] = rs[i].WithRow()
		}
	}
	return pending, history
}

// BenchmarkSS2PLQuerySQL times one declarative scheduling round with the
// paper's Listing 1 (Section 4.3.2: 358 ms at 300 clients, 545 ms at 500 on
// the paper's 2008 hardware). Hash joins with cached per-relation equality
// indexes, on one goroutine.
func BenchmarkSS2PLQuerySQL(b *testing.B) {
	for _, clients := range []int{100, 300, 500} {
		pending, history := declBenchInstance(clients)
		p := protocol.SS2PLSQL()
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Qualify(pending, history); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLIncrementalRound is the SQL twin of
// BenchmarkDatalogIncrementalRound: the warm variant feeds per-round deltas
// to the protocol, whose materialized-view cache (minisql.IVM) patches each
// CTE's standing result through the relational delta rules instead of
// re-running Listing 1, so after the first round's view build every
// iteration is pure delta propagation plus the final ORDER BY.
func BenchmarkSQLIncrementalRound(b *testing.B) {
	pending, history := declBenchInstance(300)
	batch := 12 // requests churned per round
	b.Run("cold", func(b *testing.B) {
		p := protocol.SS2PLSQL()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Qualify(pending, history); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := protocol.SS2PLSQL()
		cur := append([]request.Request(nil), pending...)
		if _, err := p.QualifyIncremental(cur, history, protocol.Deltas{PendingAdded: cur}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Retire one batch, then admit it again: every call's delta is
			// exact relative to the previous call, as in the round loop.
			d := protocol.Deltas{PendingRemoved: cur[:batch]}
			if _, err := p.QualifyIncremental(cur[batch:], history, d); err != nil {
				b.Fatal(err)
			}
			d = protocol.Deltas{PendingAdded: cur[:batch]}
			if _, err := p.QualifyIncremental(cur, history, d); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := p.LastStrategy(); got != "sql-ivm" {
			b.Fatalf("warm rounds ran %q, want sql-ivm (view cache not engaged)", got)
		}
	})
	b.Run("bulk", func(b *testing.B) {
		// Large-delta maintenance: a quarter of the pending set churns per
		// round, through the same per-tuple delta rules as a trickle.
		p := protocol.SS2PLSQL()
		cur := append([]request.Request(nil), pending...)
		if _, err := p.QualifyIncremental(cur, history, protocol.Deltas{PendingAdded: cur}); err != nil {
			b.Fatal(err)
		}
		bulk := len(cur) / 4
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := protocol.Deltas{PendingRemoved: cur[:bulk]}
			if _, err := p.QualifyIncremental(cur[bulk:], history, d); err != nil {
				b.Fatal(err)
			}
			d = protocol.Deltas{PendingAdded: cur[:bulk]}
			if _, err := p.QualifyIncremental(cur, history, d); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := p.LastStrategy(); got != "sql-ivm" {
			b.Fatalf("bulk rounds ran %q, want sql-ivm (view cache not engaged)", got)
		}
	})
}

// BenchmarkSS2PLQueryDatalog times the same round with the Datalog engine
// (cold evaluation; allocation counts track the hash-indexed fact sets).
func BenchmarkSS2PLQueryDatalog(b *testing.B) {
	for _, clients := range []int{100, 300, 500} {
		pending, history := declBenchInstance(clients)
		p := protocol.SS2PLDatalog()
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Qualify(pending, history); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatalogIncrementalRound compares a warm-started round against a
// cold one on scheduler-shaped churn: each iteration admits a small batch of
// new requests and retires an old batch from the history, against a large
// standing instance. The warm engine receives only the deltas.
func BenchmarkDatalogIncrementalRound(b *testing.B) {
	pending, history := declBenchInstance(300)
	batch := 12 // requests churned per round
	b.Run("cold", func(b *testing.B) {
		p := protocol.SS2PLDatalog()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Qualify(pending, history); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := protocol.SS2PLDatalog()
		cur := append([]request.Request(nil), pending...)
		if _, err := p.QualifyIncremental(cur, history, protocol.Deltas{PendingAdded: cur}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Retire one batch, then admit it again: every call's delta is
			// exact relative to the previous call, as in the round loop.
			d := protocol.Deltas{PendingRemoved: cur[:batch]}
			if _, err := p.QualifyIncremental(cur[batch:], history, d); err != nil {
				b.Fatal(err)
			}
			d = protocol.Deltas{PendingAdded: cur[:batch]}
			if _, err := p.QualifyIncremental(cur, history, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSS2PLImperative is the hand-coded baseline for the same decision.
func BenchmarkSS2PLImperative(b *testing.B) {
	for _, clients := range []int{100, 300, 500} {
		pending, history := declBenchInstance(clients)
		p := protocol.ImperativeSS2PL{}
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Qualify(pending, history); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossover reproduces the Section 4.4 comparison at one high
// concurrency point: native overhead (simulated) vs declarative total
// (measured round time × rounds to drain).
func BenchmarkCrossover(b *testing.B) {
	pending, history := declBenchInstance(500)
	p := protocol.SS2PLDatalog()
	cfg := sim.PaperSimConfig(500)
	cfg.BudgetTicks /= 20
	var nativeOverheadS, declTotalS float64
	for i := 0; i < b.N; i++ {
		r := sim.Run(cfg)
		start := time.Now()
		q, err := p.Qualify(pending, history)
		if err != nil {
			b.Fatal(err)
		}
		round := time.Since(start).Seconds()
		runs := float64(r.CommittedStatements) / float64(len(q))
		nativeOverheadS = float64(r.OverheadTicks()) / 1e6
		declTotalS = runs * round
	}
	b.ReportMetric(nativeOverheadS, "native-ovhd-s")
	b.ReportMetric(declTotalS, "decl-total-s")
}

// BenchmarkTriggerPolicies is the ablation for Section 3.3's "the best
// condition has to be evaluated experimentally": the same closed-loop
// workload under each trigger policy.
func BenchmarkTriggerPolicies(b *testing.B) {
	for _, tc := range []struct {
		name string
		trig scheduler.Trigger
	}{
		{"time", scheduler.TimeTrigger{Every: 500 * time.Microsecond}},
		{"fill", scheduler.FillTrigger{Level: 8}},
		{"hybrid", scheduler.HybridTrigger{Level: 8, Every: time.Millisecond}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				srv := storage.NewServer(storage.Config{Rows: 128})
				engine, err := scheduler.NewEngine(scheduler.Config{
					Protocol: protocol.SS2PLDatalog(), Server: srv,
				})
				if err != nil {
					b.Fatal(err)
				}
				mw := scheduler.NewMiddleware(engine, tc.trig, metrics.NewCollector())
				mw.Start()
				gen, err := workload.NewGenerator(workload.Config{
					Clients: 8, TxnsPerClient: 2, ReadsPerTxn: 3, WritesPerTxn: 3,
					Objects: 128, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := scheduler.RunWorkload(mw, gen.ClientQueues(), 5); err != nil {
					b.Fatal(err)
				}
				mw.Stop()
			}
		})
	}
}

// BenchmarkHistoryGC is the round cost of a short run with history garbage
// collection, which the engine runs every round: finished transactions leave
// the history, so its size stays bounded by the live ones.
func BenchmarkHistoryGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srv := storage.NewServer(storage.Config{Rows: 1000})
		engine, err := scheduler.NewEngine(scheduler.Config{
			Protocol: protocol.SS2PLDatalog(), Server: srv,
		})
		if err != nil {
			b.Fatal(err)
		}
		ta := int64(1)
		id := int64(1)
		for round := 0; round < 30; round++ {
			for c := 0; c < 8; c++ {
				tx := request.NewBuilder(ta, func() int64 { id++; return id }).
					Read(int64((round*8 + c) % 1000)).Write(int64((round*8 + c + 1) % 1000)).Commit()
				ta++
				engine.Enqueue(tx.Requests...)
			}
			if _, err := engine.Round(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchExecution is the Section 3.3 ablation: executing a scheduled
// batch back to back vs per-statement locked sessions on the server.
func BenchmarkBatchExecution(b *testing.B) {
	var batch []request.Request
	for ta := int64(1); ta <= 64; ta++ {
		batch = append(batch,
			request.Request{TA: ta, IntraTA: 0, Op: request.Read, Object: ta},
			request.Request{TA: ta, IntraTA: 1, Op: request.Write, Object: ta},
			request.Request{TA: ta, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
		)
	}
	b.Run("scheduled-batch", func(b *testing.B) {
		srv := storage.NewServer(storage.Config{Rows: 128})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := srv.ExecBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("locked-sessions", func(b *testing.B) {
		srv := storage.NewServer(storage.Config{Rows: 128})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sessions := map[int64]*storage.Session{}
			for _, r := range batch {
				s, ok := sessions[r.TA]
				if !ok {
					s = srv.Begin(r.TA + int64(i)*1000)
					sessions[r.TA] = s
				}
				rr := r
				rr.TA += int64(i) * 1000
				if _, err := s.Exec(rr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRelaxedConsistency compares qualification cost and admitted batch
// size of relaxed reads vs strict SS2PL under contention (paper Sections 2
// and 5: relaxed consistency buys throughput).
func BenchmarkRelaxedConsistency(b *testing.B) {
	pending, history := experiments.BuildMidpointInstance(200, 500, 10, 7)
	for _, p := range []protocol.Protocol{protocol.SS2PLDatalog(), protocol.RelaxedReadsDatalog()} {
		b.Run(p.Name(), func(b *testing.B) {
			var qualified int
			for i := 0; i < b.N; i++ {
				q, err := p.Qualify(pending, history)
				if err != nil {
					b.Fatal(err)
				}
				qualified = len(q)
			}
			b.ReportMetric(float64(qualified), "qualified")
		})
	}
}

// BenchmarkLockManager measures the native scheduler's lock path (grant +
// release, uncontended).
func BenchmarkLockManager(b *testing.B) {
	m := lock.NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ta := int64(i%64 + 1)
		if err := m.Acquire(ta, int64(i%1024), lock.Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(ta)
	}
}

// BenchmarkMiddlewareRound measures a full engine round (queue drain,
// protocol, execution, history update) at a realistic batch size.
func BenchmarkMiddlewareRound(b *testing.B) {
	srv := storage.NewServer(storage.Config{Rows: 100000})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol: protocol.SS2PLDatalog(), Server: srv,
	})
	if err != nil {
		b.Fatal(err)
	}
	ta := int64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 64; c++ {
			tx := request.NewBuilder(ta, nil).Read(ta % 100000).Write((ta + 7) % 100000).Commit()
			ta++
			engine.Enqueue(tx.Requests...)
		}
		if _, err := engine.Round(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiddlewareRoundPartitioned sweeps the partitioned round loop:
// partitions × concurrent clients, each iteration admitting one transaction
// per client and running one super-round (parallel per-shard qualification,
// sequenced cross-partition commits, per-shard commit bookkeeping). Objects
// are disjoint per transaction, so the sweep isolates scheduling cost: the
// per-shard instances shrink with the partition count while the commit of a
// transaction whose reads and writes straddle shards exercises the
// cross-partition ordering path. Per-round p50/p99 round latency is reported
// from the metrics histogram alongside ns/op; partitions=1 is the
// single-shard baseline the ROADMAP sweep table anchors on.
func BenchmarkMiddlewareRoundPartitioned(b *testing.B) {
	for _, parts := range []int{1, 2, 4, 8} {
		for _, clients := range []int{300, 1000, 3000} {
			b.Run(fmt.Sprintf("partitions=%d/clients=%d", parts, clients), func(b *testing.B) {
				srv := storage.NewServer(storage.Config{Rows: 1 << 20})
				pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
					Base:       scheduler.Config{Server: srv},
					Partitions: parts,
					Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
				})
				if err != nil {
					b.Fatal(err)
				}
				var rounds, exec metrics.Histogram
				ta := int64(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for c := 0; c < clients; c++ {
						tx := request.NewBuilder(ta, nil).
							Read((ta * 2) % (1 << 20)).Write((ta*2 + 1) % (1 << 20)).Commit()
						ta++
						pe.Enqueue(tx.Requests...)
					}
					res, err := pe.Round()
					if err != nil {
						b.Fatal(err)
					}
					rounds.Observe(int64(res.Stats.Total))
					exec.Observe(int64(res.Stats.Exec))
				}
				b.StopTimer()
				b.ReportMetric(float64(rounds.Quantile(0.5))/1e3, "p50-us")
				b.ReportMetric(float64(rounds.Quantile(0.99))/1e3, "p99-us")
				b.ReportMetric(float64(exec.Mean())/1e3, "exec-us")
			})
		}
	}
}

// BenchmarkMiddlewareRoundPartitionedHotKey is the skewed-load companion of
// the partitioned sweep: 80% of reads hit an 8-key hot set that the static
// slot table collocates on a single shard (the keys are picked per run so
// they deterministically hash there, each in its own slot). Under the static
// table the hot shard's qualification dominates every super-round — the
// parallel shards wait on it — while the rebalanced variant's load accounts
// spot the imbalance and migrate the hot slots one per shard, so steady-state
// round time drops back toward the uniform sweep's. The two sub-benchmarks
// are the committed evidence of the rebalancing win; bench_guard.sh guards
// each on its own baseline figure.
func BenchmarkMiddlewareRoundPartitionedHotKey(b *testing.B) {
	const (
		parts   = 8
		clients = 3000
		rows    = 1 << 20
		hotKeys = 8
	)
	for _, v := range []struct {
		name string
		reb  scheduler.RebalanceConfig
	}{
		{"static", scheduler.RebalanceConfig{}},
		{"rebalanced", scheduler.RebalanceConfig{Trigger: 1.1, Every: 2}},
	} {
		b.Run(fmt.Sprintf("partitions=%d/%s", parts, v.name), func(b *testing.B) {
			srv := storage.NewServer(storage.Config{Rows: rows})
			pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
				Base:       scheduler.Config{Server: srv},
				Partitions: parts,
				Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
				Rebalance:  v.reb,
			})
			if err != nil {
				b.Fatal(err)
			}
			// The hot set: keys the static table routes to shard 0, one per
			// slot (distinct slots let plain moves spread them one per shard).
			dir := pe.Directory()
			hot := make([]int64, 0, hotKeys)
			seen := make(map[int]bool)
			for o := int64(0); len(hot) < hotKeys && o < rows; o++ {
				if dir.ForObject(o) != 0 || seen[dir.SlotOf(o)] {
					continue
				}
				seen[dir.SlotOf(o)] = true
				hot = append(hot, o)
			}
			if len(hot) < hotKeys {
				b.Fatalf("found only %d hot keys on shard 0", len(hot))
			}
			ta := int64(1)
			round := func() metrics.RoundStats {
				for c := 0; c < clients; c++ {
					bld := request.NewBuilder(ta, nil)
					var tx request.Transaction
					if c%5 < 4 {
						// 80%: a read-only probe of one hot key — the whole
						// transaction (read + commit) lands on the hot slot's
						// shard, so placement decides which shard pays for it.
						tx = bld.Read(hot[(ta+int64(c))%hotKeys]).Commit()
					} else {
						tx = bld.Read((ta*2 + 1<<19) % rows).Write((ta*2 + 1) % rows).Commit()
					}
					ta++
					pe.Enqueue(tx.Requests...)
				}
				res, err := pe.Round()
				if err != nil {
					b.Fatal(err)
				}
				return res.Stats
			}
			// Warm-up: enough super-rounds for the rebalancer's load accounts
			// to converge and its migrations to apply before timing starts.
			for i := 0; i < 64; i++ {
				round()
			}
			var rounds, exec metrics.Histogram
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := round()
				rounds.Observe(int64(st.Total))
				exec.Observe(int64(st.Exec))
			}
			b.StopTimer()
			b.ReportMetric(float64(rounds.Quantile(0.5))/1e3, "p50-us")
			b.ReportMetric(float64(rounds.Quantile(0.99))/1e3, "p99-us")
			b.ReportMetric(float64(exec.Mean())/1e3, "exec-us")
		})
	}
}

// BenchmarkMiddlewarePipelined is the qualify/execute overlap benchmark: the
// same 64-transaction round against a *remote* server — the paper sends each
// round's qualified requests to the server as one batch, so remote execution
// costs one round-trip per round, modelled as a ~1ms sleep on the first
// statement of every 192-request batch (the workload is conflict-free, so
// every round qualifies exactly its 192 admitted requests). The sync variant
// runs the serialized loop — each round pays qualify + execute; the
// pipelined variant schedules round N+1 while round N's batch is in flight,
// so steady-state round cost approaches max(qualify, execute) instead of
// their sum. The two variants are the committed evidence of the overlap
// claim (a single-core box can only overlap waiting, not CPU — which is
// precisely the remote-server case the pipeline targets).
func BenchmarkMiddlewarePipelined(b *testing.B) {
	const reqsPerRound = 64 * 3
	mkEngine := func() *scheduler.Engine {
		var n int64 // executor-side only: both variants execute on one goroutine
		srv := storage.NewServer(storage.Config{Rows: 1 << 20, ExecDelay: func(request.Request) time.Duration {
			n++
			if n%reqsPerRound == 1 {
				return 2 * time.Millisecond // the batch round-trip
			}
			return 0
		}})
		engine, err := scheduler.NewEngine(scheduler.Config{
			Protocol: protocol.SS2PLDatalog(), Server: srv,
		})
		if err != nil {
			b.Fatal(err)
		}
		return engine
	}
	feed := func(engine *scheduler.Engine, ta *int64) {
		for c := 0; c < 64; c++ {
			// Disjoint objects per transaction: no conflicts, full rounds.
			tx := request.NewBuilder(*ta, nil).Read((*ta * 2) % (1 << 20)).Write((*ta*2 + 1) % (1 << 20)).Commit()
			*ta++
			engine.Enqueue(tx.Requests...)
		}
	}
	b.Run("slow-server/sync", func(b *testing.B) {
		engine := mkEngine()
		ta := int64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(engine, &ta)
			if _, err := engine.Round(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slow-server/pipelined", func(b *testing.B) {
		engine := mkEngine()
		// The one executor writes these; they are read after StopExecutors.
		completed := 0
		var execErr error
		engine.StartExecutors(func(c scheduler.Completion) {
			if c.Err != nil && execErr == nil {
				execErr = c.Err
			}
			completed += len(c.Executed)
		})
		ta := int64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(engine, &ta)
			if _, err := engine.RoundDeferred(); err != nil {
				b.Fatal(err)
			}
		}
		// The last in-flight batches are part of the measured work.
		engine.StopExecutors()
		b.StopTimer()
		if execErr != nil {
			b.Fatal(execErr)
		}
		if completed == 0 {
			b.Fatal("no completions")
		}
	})
}

// BenchmarkPendingStore measures the indexed pending store at depth: admit
// and remove against 10 000 standing requests (the flat-slice store paid a
// key-set rebuild plus a full compaction scan per round here), and the
// victim path (drop a whole transaction O(|TA's requests|)).
func BenchmarkPendingStore(b *testing.B) {
	const standing = 10000
	fill := func() *store.Pending {
		p := store.NewPending()
		for i := int64(0); i < standing; i++ {
			p.Admit(request.Request{ID: i + 1, TA: i / 10, IntraTA: i % 10, Op: request.Read, Object: i})
		}
		p.ResetDeltas()
		return p
	}
	b.Run("admit+remove/batch=64", func(b *testing.B) {
		p := fill()
		next := int64(standing + 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first := next
			for k := 0; k < 64; k++ {
				p.Admit(request.Request{ID: next, TA: next, IntraTA: 0, Op: request.Write, Object: next % 1000})
				next++
			}
			for ta := first; ta < next; ta++ {
				p.Remove(request.Key{TA: ta, IntraTA: 0})
			}
			p.ResetDeltas()
		}
	})
	b.Run("victim-rollback/txn=16", func(b *testing.B) {
		p := fill()
		hist := store.NewHistory(false)
		for i := int64(0); i < standing; i++ {
			hist.Append(request.Request{ID: i + 1, TA: i / 10, IntraTA: i % 10, Op: request.Write, Object: i})
		}
		hist.ResetDeltas()
		next := int64(standing + 1)
		var undo []int64 // the shard's plan buffer, reused round after round
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ta := next
			for k := int64(0); k < 16; k++ {
				p.Admit(request.Request{ID: next, TA: ta, IntraTA: k, Op: request.Write, Object: next % 1000})
				hist.Append(request.Request{ID: next, TA: ta, IntraTA: k, Op: request.Write, Object: next % 1000})
				next++
			}
			// The victim path: enumerate the writes to compensate and drop
			// the transaction from both stores.
			if undo = hist.AppendWritesOf(undo[:0], ta); len(undo) != 16 {
				b.Fatalf("AppendWritesOf: %d", len(undo))
			}
			p.RemoveTA(ta)
			hist.Append(request.Request{ID: next, TA: ta, IntraTA: 1 << 30, Op: request.Abort, Object: request.NoObject})
			next++
			hist.GC()
			p.ResetDeltas()
			hist.ResetDeltas()
		}
	})
}

// BenchmarkDeadlockVictims times the resolve stage's cycle search on a
// paper-mix-sized round: 200 pending requests (one in eight a commit) from
// 300 transactions plus a quarter without history, against 5,000 history
// rows — read-then-write pairs, one in six transactions already terminated —
// on 20,000 objects. The starvation bound runs it on most paper-mix rounds,
// nearly always to find no cycle. The detector is warm, as the engine's is
// after its first search: the graph and search buffers are reused.
func BenchmarkDeadlockVictims(b *testing.B) {
	const nPending, nHistory, nTA, nObjects = 200, 5000, 300, 20000
	rng := rand.New(rand.NewSource(3))
	id := int64(1)
	intra := make(map[int64]int64)
	next := func(ta int64, op request.Op, obj int64) request.Request {
		r := request.Request{ID: id, TA: ta, IntraTA: intra[ta], Op: op, Object: obj}
		id++
		intra[ta]++
		return r
	}
	var pending, history []request.Request
	for len(history) < nHistory {
		ta, obj := 1+rng.Int63n(nTA), rng.Int63n(nObjects)
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
			history = append(history, next(ta, request.Commit, request.NoObject))
		}
	}
	rng.Shuffle(len(history), func(i, j int) { history[i], history[j] = history[j], history[i] })
	for len(pending) < nPending {
		ta := 1 + rng.Int63n(nTA+nTA/4)
		switch rng.Intn(8) {
		case 0:
			pending = append(pending, next(ta, request.Commit, request.NoObject))
		case 1, 2, 3:
			pending = append(pending, next(ta, request.Write, rng.Int63n(nObjects)))
		default:
			pending = append(pending, next(ta, request.Read, rng.Int63n(nObjects)))
		}
	}
	var d protocol.Detector
	d.Victims(pending, history)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Victims(pending, history)
	}
}

// BenchmarkMiddlewareRoundDurable is BenchmarkMiddlewareRound against the
// journaled store: every committed round appends redo records and (in the
// sync variant) fsyncs on the commit-batch boundary. The nosync variant
// groups commits across a huge sync interval, isolating the journalling CPU
// cost from the fsync latency. Volatile mode is untouched (one nil check on
// the hot path); this benchmark is tracked in BENCH_7.json but not guarded.
func BenchmarkMiddlewareRoundDurable(b *testing.B) {
	for _, bc := range []struct {
		name      string
		syncEvery int
	}{
		{"sync", 1},
		{"nosync", 1 << 30},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := storage.Open(storage.Config{
				Rows: 100000, Durable: true, Dir: b.TempDir(),
				SyncEvery: bc.syncEvery,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			engine, err := scheduler.NewEngine(scheduler.Config{
				Protocol: protocol.SS2PLDatalog(), Server: srv,
			})
			if err != nil {
				b.Fatal(err)
			}
			ta := int64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < 64; c++ {
					tx := request.NewBuilder(ta, nil).Read(ta % 100000).Write((ta + 7) % 100000).Commit()
					ta++
					engine.Enqueue(tx.Requests...)
				}
				if _, err := engine.Round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProductivity regenerates the Section 3.4 size comparison.
func BenchmarkProductivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Productivity()) < 4 {
			b.Fatal("missing rows")
		}
	}
}

// netBenchServer starts an in-process scheduler behind the network front end
// for the wire-level benches: a low-latency trigger, the resubmit cache on
// (the production reconnect configuration), and plenty of rows so disjoint
// transactions never conflict.
func netBenchServer(b *testing.B) string {
	b.Helper()
	srv := storage.NewServer(storage.Config{Rows: 1 << 20})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol:       protocol.SS2PLDatalog(),
		Server:         srv,
		ResubmitWindow: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, scheduler.HybridTrigger{Level: 16, Every: 200 * time.Microsecond}, metrics.NewCollector())
	mw.Start()
	s, err := netproto.Listen("127.0.0.1:0", mw)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close(); mw.Stop() })
	return s.Addr()
}

// BenchmarkNetRoundTrip times one whole transaction (write + commit) over a
// single multiplexed connection with one logical client: the un-contended
// wire round-trip floor. Tail latencies are reported as p50-us/p99-us/
// p999-us custom metrics (scripts/bench.sh records them in BENCH_<tag>.json).
func BenchmarkNetRoundTrip(b *testing.B) {
	addr := netBenchServer(b)
	c, err := netproto.DialMux(addr, netproto.MuxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var hist metrics.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta := int64(i + 1)
		start := time.Now()
		if _, err := c.Submit(request.Request{TA: ta, IntraTA: 0, Op: request.Write, Object: ta % (1 << 20)}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
			b.Fatal(err)
		}
		hist.Observe(time.Since(start).Nanoseconds())
	}
	b.StopTimer()
	snap := hist.Snapshot()
	b.ReportMetric(float64(snap.P50)/1e3, "p50-us")
	b.ReportMetric(float64(snap.P99)/1e3, "p99-us")
	b.ReportMetric(float64(snap.P999)/1e3, "p999-us")
}

// BenchmarkNetMultiplexed drives many concurrent logical clients over ONE
// multiplexed connection (GOMAXPROCS×8 goroutines): the batch-admission
// amortisation the wire protocol exists for. Each iteration is a disjoint
// write+commit transaction; tail latencies reported like BenchmarkNetRoundTrip.
func BenchmarkNetMultiplexed(b *testing.B) {
	addr := netBenchServer(b)
	c, err := netproto.DialMux(addr, netproto.MuxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var hist metrics.Histogram
	var nextTA int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ta := atomic.AddInt64(&nextTA, 1)
			start := time.Now()
			if _, err := c.Submit(request.Request{TA: ta, IntraTA: 0, Op: request.Write, Object: ta % (1 << 20)}); err != nil {
				b.Error(err)
				return
			}
			if _, err := c.Submit(request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
				b.Error(err)
				return
			}
			hist.Observe(time.Since(start).Nanoseconds())
		}
	})
	b.StopTimer()
	snap := hist.Snapshot()
	b.ReportMetric(float64(snap.P50)/1e3, "p50-us")
	b.ReportMetric(float64(snap.P99)/1e3, "p99-us")
	b.ReportMetric(float64(snap.P999)/1e3, "p999-us")
}
