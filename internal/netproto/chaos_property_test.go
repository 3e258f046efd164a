package netproto

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto/chaos"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// TestChaosEveryRequestOneTerminalOutcome is the wire-level analogue of the
// storage crash matrix: logical clients run sequential transactions through
// a fault-injecting proxy (latency, stalls, kills, torn frames, corrupted
// bytes), and afterwards the server's committed state must equal the
// synchronous oracle — every row holds exactly the sum of the writes of
// transactions that verifiably committed, every submission got exactly one
// terminal outcome (the test completing proves no submission hung), and
// nothing executed twice despite reconnect-with-resubmit.
func TestChaosEveryRequestOneTerminalOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules take seconds")
	}
	schedules := []struct {
		name string
		cfg  chaos.Config
	}{
		{"latency", chaos.Config{Seed: 1, LatencyP: 0.3, MaxLatency: 5 * time.Millisecond}},
		{"kills", chaos.Config{Seed: 2, KillP: 0.02}},
		{"torn", chaos.Config{Seed: 3, TearP: 0.02}},
		{"corrupt", chaos.Config{Seed: 4, CorruptP: 0.02}},
		{"stall", chaos.Config{Seed: 5, StallP: 0.01, StallFor: 700 * time.Millisecond}},
		{"mixed", chaos.Config{Seed: 6, LatencyP: 0.2, MaxLatency: 2 * time.Millisecond,
			KillP: 0.01, TearP: 0.01, CorruptP: 0.01, StallP: 0.005, StallFor: 700 * time.Millisecond}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) { runChaosSchedule(t, sched.cfg) })
	}
}

func runChaosSchedule(t *testing.T, cfg chaos.Config) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol:       protocol.SS2PLDatalog(),
		Server:         srv,
		KeepLog:        true,
		MaxQueued:      512,
		ResubmitWindow: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, scheduler.HybridTrigger{Level: 8, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	defer mw.Stop()
	s, err := Listen("127.0.0.1:0", mw)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	proxy, err := chaos.New(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Sessions share a few multiplexed connections through the proxy; short
	// round-trip timeouts keep stalled connections from wedging a whole run.
	const conns, sessions, txnsPer = 4, 40, 5
	clients := make([]*MuxClient, conns)
	for i := range clients {
		c, err := DialMux(proxy.Addr(), MuxOptions{Timeout: 300 * time.Millisecond, RetryBudget: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Each session runs sequential transactions: 1–3 writes, then commit.
	// committed records transactions whose commit was acknowledged;
	// undecided records ones that failed mid-flight (their fate is resolved
	// against the scheduler's terminal-outcome record afterwards).
	type txn struct {
		ta     int64
		writes []int64
	}
	var mu sync.Mutex
	var committed, undecided []txn
	var wg sync.WaitGroup
	for sess := 0; sess < sessions; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			c := clients[sess%conns]
			for n := 0; n < txnsPer; n++ {
				ta := int64(1 + sess*txnsPer + n)
				nw := 1 + int(ta)%3
				tx := txn{ta: ta}
				ok := true
				for w := 0; w < nw && ok; w++ {
					row := (ta*7 + int64(w)*3) % 64
					_, err := c.Submit(request.Request{TA: ta, IntraTA: int64(w), Op: request.Write, Object: row})
					switch {
					case err == nil:
						tx.writes = append(tx.writes, row)
					case errors.Is(err, ErrAborted):
						ok = false // victim: compensated, contributes nothing
					case errors.Is(err, ErrBusy) && w == 0:
						ok = false // never admitted, contributes nothing
					default:
						// Undecided: the write may or may not have executed.
						tx.writes = append(tx.writes, row)
						mu.Lock()
						undecided = append(undecided, tx)
						mu.Unlock()
						return // session gives up (its conn may be dead)
					}
				}
				if !ok {
					continue
				}
				_, err := c.Submit(request.Request{TA: ta, IntraTA: int64(nw), Op: request.Commit, Object: request.NoObject})
				mu.Lock()
				switch {
				case err == nil:
					committed = append(committed, tx)
				case errors.Is(err, ErrAborted):
					// compensated
				default:
					undecided = append(undecided, tx)
				}
				mu.Unlock()
				if err != nil && !errors.Is(err, ErrAborted) {
					return
				}
			}
		}(sess)
	}

	// Mid-run consistent STATS scrapes through a clean connection — the
	// snapshot must never tear, whatever the chaos schedule does.
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		c, err := DialMux(s.Addr(), MuxOptions{})
		if err != nil {
			return
		}
		defer c.Close()
		for i := 0; i < 20; i++ {
			if _, err := c.Stats(); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-statsDone

	// Resolve undecided transactions against the scheduler's own record,
	// over a clean connection: aborting a transaction terminates it (a
	// no-op if it already terminated), after which TerminalOutcome says
	// whether a Commit ran. Sessions are sequential, so a commit-terminal
	// transaction executed all of its writes. A session that gave up may
	// leave a write waiting for a lock; the abort is refused while it waits
	// (ErrTxnInFlight), so it is sent again until that write is answered.
	clean, err := DialMux(s.Addr(), MuxOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	inFlight := scheduler.ErrTxnInFlight.Error()
	for _, tx := range undecided {
		abort := request.Request{TA: tx.ta, IntraTA: 1 << 20, Op: request.Abort, Object: request.NoObject}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			_, err := clean.Submit(abort)
			if err == nil || !strings.Contains(err.Error(), inFlight) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("ta%d's abort still refused after 10 s: %v", tx.ta, err)
			}
		}
		res, op, okTerm := mw.TerminalOutcome(tx.ta)
		if okTerm && op == request.Commit && res.Err == nil {
			committed = append(committed, tx)
		}
	}
	// Let in-flight aborts (compensation) settle before reading rows.
	deadlineWait(t, mw)

	want := make(map[int64]int64)
	for _, tx := range committed {
		for _, row := range tx.writes {
			want[row]++
		}
	}
	for row := int64(0); row < 64; row++ {
		if got := srv.Get(row); got != want[row] {
			t.Errorf("row %d = %d, want %d (sum of committed writes)", row, got, want[row])
		}
	}
	t.Logf("chaos stats: %+v; committed=%d undecided=%d", proxy.Stats(), len(committed), len(undecided))
}

// deadlineWait blocks until the middleware has no admitted-but-unanswered
// work (bounded), so compensation of final aborts is visible.
func deadlineWait(t *testing.T, mw *scheduler.Middleware) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mw.Queued() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("middleware still has %d queued submissions", mw.Queued())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}
