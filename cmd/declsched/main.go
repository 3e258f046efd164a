// Command declsched runs the declarative middleware scheduler end to end on
// a generated workload and prints throughput, latency and round statistics.
//
// Usage:
//
//	declsched [-protocol ss2pl|ss2pl-sql|2pl|sla|relaxed|fcfs|adaptive]
//	          [-clients 32] [-txns 4] [-reads 20] [-writes 20]
//	          [-objects 100000] [-zipf 0] [-trigger hybrid|time|fill]
//	          [-partitions 1] [-rebalance 0] [-rebalance-every 16] [-slots 0]
//	          [-hotkeys 0] [-hotfrac 0.8] [-hotskew 0]
//	          [-check]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	protoName := flag.String("protocol", "ss2pl", "scheduling protocol: ss2pl, ss2pl-sql, 2pl, sla, relaxed, fcfs, adaptive")
	clients := flag.Int("clients", 32, "concurrent clients")
	txns := flag.Int("txns", 4, "transactions per client")
	reads := flag.Int("reads", 20, "reads per transaction")
	writes := flag.Int("writes", 20, "writes per transaction")
	objects := flag.Int64("objects", 100000, "table rows")
	zipf := flag.Float64("zipf", 0, "Zipf skew parameter (>1), 0 = uniform")
	trigName := flag.String("trigger", "hybrid", "round trigger: hybrid (schedserver's default, 16 requests or 1ms, and earlier once every answered client is back in the queue — the loop counts them, so the level need not be tuned to -clients), time (1ms), fill (-clients requests)")
	check := flag.Bool("check", false, "verify conflict serializability of the executed schedule")
	seed := flag.Int64("seed", 1, "workload seed")
	syncRounds := flag.Bool("syncrounds", false, "serialize qualify and execute (disable the round pipeline)")
	execDelay := flag.Duration("execdelay", 0, "synthetic per-statement server latency (models a remote server; the pipeline overlaps it with qualification)")
	partitions := flag.Int("partitions", 1, "partition the round loop into N object-hashed shards (protocol must factor by object)")
	rebalance := flag.Float64("rebalance", 0, "online slot rebalancing trigger: move hot slots when max/mean shard load exceeds this ratio (0 = static slot table)")
	rebalanceEvery := flag.Int("rebalance-every", 16, "super-rounds between rebalance checks")
	slots := flag.Int("slots", 0, "slot-directory size for the partitioned loop (0 = default)")
	hotKeys := flag.Int64("hotkeys", 0, "hot-key workload: size of the hot set (0 = uniform)")
	hotFrac := flag.Float64("hotfrac", 0.8, "hot-key workload: fraction of statements hitting the hot set")
	hotSkew := flag.Float64("hotskew", 0, "hot-key workload: Zipf skew within the hot set (>1), 0 = uniform")
	durable := flag.Bool("durable", false, "journal committed state to -dir (write-ahead log + checkpoints)")
	dir := flag.String("dir", "", "durable storage directory (required with -durable)")
	syncEvery := flag.Int("sync-every", 1, "fsync the journal every N commit batches (group commit)")
	flag.Parse()

	mkProto := func() protocol.Protocol {
		switch *protoName {
		case "ss2pl":
			return protocol.SS2PLDatalog()
		case "ss2pl-sql":
			return protocol.SS2PLSQL()
		case "2pl":
			return protocol.TwoPLDatalog()
		case "sla":
			return protocol.SLAPriorityDatalog()
		case "relaxed":
			return protocol.RelaxedReadsDatalog()
		case "fcfs":
			return &protocol.FCFS{}
		case "adaptive":
			return protocol.NewAdaptive(protocol.SS2PLDatalog(), protocol.RelaxedReadsDatalog(), *clients*2)
		default:
			log.Fatalf("unknown protocol %q", *protoName)
			return nil
		}
	}
	proto := mkProto()

	var trig scheduler.Trigger
	switch *trigName {
	case "hybrid":
		trig = scheduler.HybridTrigger{Level: 16, Every: time.Millisecond}
	case "time":
		trig = scheduler.TimeTrigger{Every: time.Millisecond}
	case "fill":
		trig = scheduler.FillTrigger{Level: *clients}
	default:
		log.Fatalf("unknown trigger %q", *trigName)
	}

	scfg := storage.Config{Rows: int(*objects), Durable: *durable, Dir: *dir, SyncEvery: *syncEvery}
	if *durable && *dir == "" {
		log.Fatal("-durable requires -dir")
	}
	if *execDelay > 0 {
		d := *execDelay
		scfg.ExecDelay = func(request.Request) time.Duration { return d }
	}
	srv, err := storage.Open(scfg)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
		Base: scheduler.Config{
			Server:  srv,
			KeepLog: *check,
		},
		Partitions: *partitions,
		Factory:    mkProto,
		Rebalance: scheduler.RebalanceConfig{
			Slots:   *slots,
			Trigger: *rebalance,
			Every:   *rebalanceEvery,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, trig, metrics.NewCollector())
	mw.SetSynchronous(*syncRounds)
	mw.Start()

	cfg := workload.Config{
		Clients: *clients, TxnsPerClient: *txns,
		ReadsPerTxn: *reads, WritesPerTxn: *writes,
		Objects: *objects, ZipfS: *zipf, Seed: *seed,
		HotKeys: *hotKeys, HotFrac: *hotFrac, HotSkew: *hotSkew,
	}
	if *hotKeys == 0 {
		cfg.HotFrac, cfg.HotSkew = 0, 0
	}
	if *protoName == "sla" {
		cfg.Classes = []workload.Class{
			{Name: "premium", Priority: 10, Weight: 1},
			{Name: "free", Priority: 1, Weight: 3},
		}
	}
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	queues := gen.ClientQueues()

	start := time.Now()
	res, err := scheduler.RunWorkload(mw, queues, 10)
	elapsed := time.Since(start)
	mw.Stop()
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	stmts, commits, aborts := srv.Stats()
	sum := mw.Collector().Summarise()
	fmt.Printf("protocol=%s trigger=%s mode=%v\n", proto.Name(), trig.Name(), *protoName)
	fmt.Printf("wall time            %s\n", elapsed.Round(time.Millisecond))
	fmt.Printf("committed txns       %d (retries %d, given up %d)\n", res.CommittedTxns, res.Retries, res.AbortedTxns)
	fmt.Printf("server statements    %d (commits %d, aborts %d)\n", stmts, commits, aborts)
	fmt.Printf("throughput           %.0f stmts/s\n", float64(stmts)/elapsed.Seconds())
	fmt.Printf("scheduler            %s\n", sum)
	if ss := sum.StrategyString(); ss != "" {
		fmt.Printf("round strategies     %s\n", ss)
	}
	fmt.Printf("rounds fired on      %s\n", sum.FiredString())
	if vs := sum.CauseString(); vs != "" {
		fmt.Printf("victims by cause     %s\n", vs)
	}
	lat := &mw.Collector().Latency
	fmt.Printf("request latency      mean=%s p99<=%s max=%s\n",
		time.Duration(lat.Mean()), time.Duration(lat.Quantile(0.99)), time.Duration(lat.Max()))
	if ex := &mw.Collector().Exec; ex.Count() > 0 {
		fmt.Printf("exec leg (overlap)   batches=%d mean=%s max=%s\n",
			ex.Count(), time.Duration(ex.Mean()), time.Duration(ex.Max()))
	}
	if shards := mw.Collector().PartitionSummaries(); len(shards) > 0 {
		fmt.Printf("cross-partition txns %d\n", sum.Cross)
		for _, ps := range shards {
			fmt.Printf("  %s\n", ps)
		}
	}
	if d := srv.Durability(); d != nil {
		fmt.Printf("durability           %s\n", d)
	}

	if *check {
		if err := protocol.CheckSerializable(engine.MergedLog()); err != nil {
			log.Fatalf("serializability check FAILED: %v", err)
		}
		fmt.Println("serializability      OK (conflict graph acyclic)")
	}
}
