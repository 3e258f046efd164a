// Command netload drives the multiplexed network front end with thousands of
// concurrent logical clients and verifies the overload contract end to end:
// bounded queues answer BUSY instead of growing, every submission reaches
// exactly one terminal outcome, nothing admitted is lost, and the round-trip
// tail latencies (p50/p99/p999) land in a JSON report. With -chaos it drives
// the same load through the fault-injection proxy, making it the wire-level
// soak counterpart of the storage crash matrix.
//
//	$ netload -clients 10000 -conns 64 -txns 2 -out netload.json
//	$ netload -clients 2000 -chaos -deadline 60s
//
// By default the harness starts an in-process server so it can audit the
// final storage state against the set of acknowledged commits; -addr points
// it at an external schedserver instead (state audit disabled).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/netproto/chaos"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

type report struct {
	Clients     int    `json:"clients"`
	Conns       int    `json:"conns"`
	TxnsPerCli  int    `json:"txns_per_client"`
	Committed   int64  `json:"committed"`
	Aborted     int64  `json:"aborted"`
	BusyGaveUp  int64  `json:"busy_gave_up"`
	Failed      int64  `json:"failed"`
	Requests    int64  `json:"requests"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	P50us       int64  `json:"p50_us"`
	P99us       int64  `json:"p99_us"`
	P999us      int64  `json:"p999_us"`
	MeanUs      int64  `json:"mean_us"`
	MaxUs       int64  `json:"max_us"`
	Verified    bool   `json:"state_verified"`
	Chaos       bool   `json:"chaos"`
	ChaosStats  string `json:"chaos_stats,omitempty"`
	ServerStats string `json:"server_stats"`
	// Fired is the server's rounds per trigger reason, lifted out of
	// ServerStats: level, every, returned (the hybrid trigger's three
	// conditions), progress, drain.
	Fired string `json:"fired,omitempty"`
	// Victims is the server's victims per abort cause, likewise: wound,
	// cycle, starved-cycle, starved-oldest.
	Victims string `json:"victims,omitempty"`
}

func main() {
	clients := flag.Int("clients", 10000, "concurrent logical clients")
	conns := flag.Int("conns", 64, "multiplexed connections shared by the clients")
	txns := flag.Int("txns", 2, "transactions per client")
	writes := flag.Int("writes", 2, "writes per transaction")
	reads := flag.Int("reads", 1, "reads per transaction")
	objects := flag.Int64("objects", 8192, "table rows")
	maxQueued := flag.Int("max-queued", 4096, "server admission cap (0 = unlimited)")
	shedBudget := flag.Duration("shed-budget", 0, "server shed-latency budget (0 = off)")
	retry := flag.Int("retry", 25, "client retry budget (BUSY backoff / reconnect cycles)")
	timeout := flag.Duration("timeout", 5*time.Second, "client round-trip timeout")
	deadline := flag.Duration("deadline", 2*time.Minute, "soft wall-clock budget: sessions start no new transactions past it")
	useChaos := flag.Bool("chaos", false, "route the load through the fault-injection proxy")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault schedule seed")
	addr := flag.String("addr", "", "external server address (default: in-process server with state audit)")
	out := flag.String("out", "", "write the JSON report here (default stdout only)")
	flag.Parse()

	// Watchdog: a soak must never wedge CI — well past the deadline means a
	// liveness bug, which is itself a finding.
	go func() {
		time.Sleep(*deadline + 5*time.Minute)
		fmt.Fprintln(os.Stderr, "netload: watchdog expired — harness wedged past its deadline")
		os.Exit(3)
	}()

	var (
		mw      *scheduler.Middleware
		srv     *storage.Server
		target  = *addr
		inProc  = *addr == ""
		statsCl *netproto.MuxClient
	)
	if inProc {
		srv = storage.NewServer(storage.Config{Rows: int(*objects)})
		engine, err := scheduler.NewEngine(scheduler.Config{
			Protocol:          protocol.SS2PLDatalog(),
			Server:            srv,
			MaxQueued:         *maxQueued,
			ShedLatencyBudget: *shedBudget,
			ResubmitWindow:    1 << 18,
		})
		if err != nil {
			log.Fatal(err)
		}
		mw = scheduler.NewMiddleware(engine, scheduler.HybridTrigger{Level: 64, Every: time.Millisecond}, metrics.NewCollector())
		mw.Start()
		s, err := netproto.Listen("127.0.0.1:0", mw)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		target = s.Addr()
	}

	var proxy *chaos.Proxy
	dialTarget := target
	if *useChaos {
		p, err := chaos.New(target, chaos.Config{
			Seed:     *chaosSeed,
			LatencyP: 0.05, MaxLatency: 2 * time.Millisecond,
			KillP: 0.002, TearP: 0.002, CorruptP: 0.002,
			StallP: 0.001, StallFor: 2 * *timeout / 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		proxy = p
		defer proxy.Close()
		dialTarget = proxy.Addr()
	}

	muxes := make([]*netproto.MuxClient, *conns)
	for i := range muxes {
		c, err := netproto.DialMux(dialTarget, netproto.MuxOptions{Timeout: *timeout, RetryBudget: *retry})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		muxes[i] = c
	}

	// A clean scraper connection polls STATS throughout the run: the
	// consistent-snapshot contract under full load.
	statsCl, _ = netproto.DialMux(target, netproto.MuxOptions{})
	lastStats := ""
	var statsMu sync.Mutex
	stopStats := make(chan struct{})
	if statsCl != nil {
		go func() {
			for {
				select {
				case <-stopStats:
					return
				case <-time.After(500 * time.Millisecond):
					if s, err := statsCl.Stats(); err == nil {
						statsMu.Lock()
						lastStats = s
						statsMu.Unlock()
					}
				}
			}
		}()
	}

	wcfg := workload.Config{
		Clients:       *clients,
		TxnsPerClient: *txns,
		ReadsPerTxn:   *reads,
		WritesPerTxn:  *writes,
		Objects:       *objects,
		Seed:          7,
	}

	// Outcome accounting. expected counts acknowledged committed writes per
	// row; undecided transactions (mid-flight failure) are resolved against
	// the scheduler's terminal-outcome record after the run.
	type txnRec struct {
		ta     int64
		writes []int64
	}
	var (
		lat                                  metrics.Histogram
		committed, aborted, busyGone, failed atomic.Int64
		requests                             atomic.Int64
		expectedMu                           sync.Mutex
		expected                             = make(map[int64]int64)
		undecidedMu                          sync.Mutex
		undecided                            []txnRec
	)
	addCommitted := func(rec txnRec) {
		expectedMu.Lock()
		for _, row := range rec.writes {
			expected[row]++
		}
		expectedMu.Unlock()
	}

	start := time.Now()
	softEnd := start.Add(*deadline)
	var wg sync.WaitGroup
	for id := 0; id < *clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess, err := workload.NewSession(wcfg, id)
			if err != nil {
				log.Fatal(err)
			}
			c := muxes[id%len(muxes)]
			for n := 0; n < *txns && time.Now().Before(softEnd); n++ {
				tx := sess.NextTransaction()
				rec := txnRec{ta: tx.TA}
				outcome := "committed"
				for _, r := range tx.Requests {
					reqStart := time.Now()
					_, err := c.Submit(r)
					lat.Observe(time.Since(reqStart).Nanoseconds())
					requests.Add(1)
					if err == nil {
						if r.Op == request.Write {
							rec.writes = append(rec.writes, r.Object)
						}
						continue
					}
					switch {
					case errors.Is(err, netproto.ErrAborted):
						outcome = "aborted"
					case errors.Is(err, netproto.ErrBusy):
						// Rejected at admission — unless a reconnect
						// retransmit drew the BUSY while the original was
						// admitted. Resolution below disambiguates.
						outcome = "busy"
					default:
						outcome = "failed"
					}
					if r.Op == request.Write {
						rec.writes = append(rec.writes, r.Object)
					}
					break
				}
				switch outcome {
				case "committed":
					committed.Add(1)
					addCommitted(rec)
				case "aborted":
					aborted.Add(1)
				case "busy":
					busyGone.Add(1)
					undecidedMu.Lock()
					undecided = append(undecided, rec)
					undecidedMu.Unlock()
				case "failed":
					failed.Add(1)
					undecidedMu.Lock()
					undecided = append(undecided, rec)
					undecidedMu.Unlock()
				}
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopStats)
	// Close the load connections before resolving: their timed-out calls
	// would otherwise keep retransmitting into the server while the audit
	// below tries to reach a quiescent state.
	for _, c := range muxes {
		c.Close()
	}

	// Resolve undecided transactions over a clean connection: force
	// termination, then consult the scheduler's record (in-process only).
	verified := false
	if inProc {
		clean, err := netproto.DialMux(target, netproto.MuxOptions{Timeout: 30 * time.Second})
		if err == nil {
			sem := make(chan struct{}, 64)
			var rwg sync.WaitGroup
			for _, rec := range undecided {
				rwg.Add(1)
				sem <- struct{}{}
				go func(rec txnRec) {
					defer func() { <-sem; rwg.Done() }()
					clean.Submit(request.Request{TA: rec.ta, IntraTA: 1 << 20, Op: request.Abort, Object: request.NoObject})
					if res, op, ok := mw.TerminalOutcome(rec.ta); ok && op == request.Commit && res.Err == nil {
						addCommitted(rec)
					}
				}(rec)
			}
			rwg.Wait()
			clean.Close()
		}
		settle := time.Now().Add(60 * time.Second)
		for mw.Queued() > 0 && time.Now().Before(settle) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)

		// The audit: rows must hold exactly the acknowledged committed
		// writes — zero admitted-then-lost, zero double-execution.
		bad := 0
		for row := int64(0); row < *objects; row++ {
			want := expected[row]
			if got := srv.Get(row); got != want {
				if bad < 10 {
					fmt.Fprintf(os.Stderr, "netload: row %d = %d, want %d\n", row, got, want)
				}
				bad++
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "netload: %d rows diverge from the acknowledged commits\n", bad)
			os.Exit(2)
		}
		verified = true
	}

	statsMu.Lock()
	finalStats := lastStats
	statsMu.Unlock()
	if statsCl != nil {
		if s, err := statsCl.Stats(); err == nil {
			finalStats = s
		}
		statsCl.Close()
	}

	snap := lat.Snapshot()
	rep := report{
		Clients:     *clients,
		Conns:       *conns,
		TxnsPerCli:  *txns,
		Committed:   committed.Load(),
		Aborted:     aborted.Load(),
		BusyGaveUp:  busyGone.Load(),
		Failed:      failed.Load(),
		Requests:    requests.Load(),
		ElapsedMS:   elapsed.Milliseconds(),
		P50us:       snap.P50 / 1000,
		P99us:       snap.P99 / 1000,
		P999us:      snap.P999 / 1000,
		MeanUs:      snap.Mean / 1000,
		MaxUs:       snap.Max / 1000,
		Verified:    verified,
		Chaos:       *useChaos,
		ServerStats: finalStats,
	}
	if _, rest, ok := strings.Cut(finalStats, " fired["); ok {
		rep.Fired, _, _ = strings.Cut(rest, "]")
	}
	if _, rest, ok := strings.Cut(finalStats, " victims["); ok {
		rep.Victims, _, _ = strings.Cut(rest, "]")
	}
	if proxy != nil {
		rep.ChaosStats = fmt.Sprintf("%+v", proxy.Stats())
	}
	js, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(js))
	if *out != "" {
		if err := os.WriteFile(*out, append(js, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if mw != nil {
		mw.Stop()
	}
}
