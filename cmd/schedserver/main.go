// Command schedserver runs the declarative scheduler as a network service
// (paper Figure 1: clients connect to the scheduler, not to the server).
// Go clients speak the multiplexed binary protocol through
// netproto.MuxClient (cmd/netload is one); the same port speaks the line
// dialect of internal/netproto, so a shell can drive it too:
//
//	$ schedserver -addr 127.0.0.1:7070 -protocol ss2pl &
//	$ printf 'REQ 1 0 w 7\nREQ 1 1 c -1\nQUIT\n' | nc 127.0.0.1 7070
//	OK 1
//	OK 0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/protocol"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	protoName := flag.String("protocol", "ss2pl", "scheduling protocol: ss2pl, ss2pl-sql, 2pl, sla, relaxed, fcfs")
	rows := flag.Int("rows", 100000, "server table rows")
	fill := flag.Int("fill", 16, "trigger fill level")
	every := flag.Duration("every", time.Millisecond, "trigger max delay")
	syncRounds := flag.Bool("sync", false, "serialize qualify and execute (disable the round pipeline)")
	partitions := flag.Int("partitions", 1, "partition the round loop into N object-hashed shards (protocol must factor by object)")
	rebalance := flag.Float64("rebalance", 0, "online slot rebalancing trigger: move hot slots when max/mean shard load exceeds this ratio (0 = static slot table)")
	rebalanceEvery := flag.Int("rebalance-every", 16, "super-rounds between rebalance checks")
	slots := flag.Int("slots", 0, "slot-directory size for the partitioned loop (0 = default)")
	durable := flag.Bool("durable", false, "journal committed state to -dir and recover it on restart")
	dir := flag.String("dir", "", "durable storage directory (required with -durable)")
	syncEvery := flag.Int("sync-every", 1, "fsync the journal every N commit batches (group commit)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections idle for this long (0 = never)")
	maxQueued := flag.Int("max-queued", 4096, "admission cap: reject new transactions with BUSY beyond this many unanswered submissions (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "per-connection inflight cap on the multiplexed protocol (0 = default)")
	shedBudget := flag.Duration("shed-budget", 0, "shed low-priority work when qualify latency exceeds this budget, everything past 2x (0 = no shedding)")
	resubmitWindow := flag.Int("resubmit-window", 65536, "remember terminal outcomes of this many transactions for idempotent reconnect-resubmit (0 = off)")
	starveAfter := flag.Int("starve-after", 0, "abort transactions whose oldest pending request waited this many rounds (0 = default bound, negative = never)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for finishing admitted work")
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
		default:
			log.Fatalf("unknown protocol %q", *protoName)
			return nil
		}
	}
	proto := mkProto()

	scfg := storage.Config{Rows: *rows, Durable: *durable, Dir: *dir, SyncEvery: *syncEvery}
	if *durable && *dir == "" {
		log.Fatal("-durable requires -dir")
	}
	srv, err := storage.Open(scfg)
	if err != nil {
		log.Fatal(err)
	}
	trig := scheduler.HybridTrigger{Level: *fill, Every: *every}
	engine, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
		Base: scheduler.Config{
			Server:             srv,
			MaxQueued:          *maxQueued,
			MaxInflightPerConn: *maxInflight,
			ShedLatencyBudget:  *shedBudget,
			ResubmitWindow:     *resubmitWindow,
			StarveAfter:        *starveAfter,
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
	s, err := netproto.ListenOpts(*addr, mw, netproto.Options{IdleTimeout: *idleTimeout})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("declarative scheduler (%s) listening on %s\n", proto.Name(), s.Addr())
	if srv.Durable() {
		fmt.Printf("durable storage in %s (sync every %d commit batches)\n", *dir, *syncEvery)
	}

	// Graceful drain on SIGTERM/SIGINT: stop accepting (GOAWAY to mux
	// clients), reject new transactions with SHUTTING_DOWN while admitted
	// work runs to termination (bounded by -drain-timeout), then close the
	// storage server so the journal's final fsync covers everything
	// acknowledged.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\ndraining: rejecting new work, finishing admitted transactions")
	s.StopAccepting()
	mw.DrainAndStop(*drainTimeout)
	s.Close()
	if err := srv.Close(); err != nil {
		log.Printf("storage close: %v", err)
	}
	fmt.Println(mw.Collector().Summarise())
	for _, ps := range mw.Collector().PartitionSummaries() {
		fmt.Println(" ", ps)
	}
	if d := srv.Durability(); d != nil {
		fmt.Println(" ", d)
	}
}
