package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto/chaos"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// startMuxServer brings up a middleware with the resubmit cache on (the
// production configuration of the mux front end).
func startMuxServer(t *testing.T, cfgTweak func(*scheduler.Config)) (*Server, *storage.Server, *scheduler.Middleware) {
	t.Helper()
	srv := storage.NewServer(storage.Config{Rows: 256})
	cfg := scheduler.Config{
		Protocol:       protocol.SS2PLDatalog(),
		Server:         srv,
		KeepLog:        true,
		ResubmitWindow: 4096,
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	engine, err := scheduler.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, scheduler.HybridTrigger{Level: 4, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	s, err := Listen("127.0.0.1:0", mw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mw.Stop()
	})
	return s, srv, mw
}

func TestMuxManyLogicalClientsOneConn(t *testing.T) {
	s, srv, _ := startMuxServer(t, nil)
	c, err := DialMux(s.Addr(), MuxOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 32 logical clients share one connection; each runs sequential
	// transactions incrementing its own row, so responses interleave across
	// clients (out-of-order on the wire) while each client's view stays
	// ordered.
	const clients, txns = 32, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < txns; n++ {
				ta := int64(1 + id*txns + n)
				tx := request.NewBuilder(ta, nil).Write(int64(id)).Commit()
				if aborted, err := c.RunTransaction(tx); err != nil {
					errs <- fmt.Errorf("client %d txn %d: %v", id, n, err)
					return
				} else if aborted {
					errs <- fmt.Errorf("client %d txn %d aborted on disjoint row", id, n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < clients; i++ {
		if got := srv.Get(int64(i)); got != txns {
			t.Errorf("row %d = %d, want %d", i, got, txns)
		}
	}
}

func TestMuxBatchSubmission(t *testing.T) {
	s, srv, _ := startMuxServer(t, nil)
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Independent single-write transactions in one wire frame.
	var reqs []request.Request
	for ta := int64(1); ta <= 8; ta++ {
		reqs = append(reqs, request.Request{TA: ta, IntraTA: 0, Op: request.Write, Object: 100 + ta})
	}
	res, err := c.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
	}
	for ta := int64(1); ta <= 8; ta++ {
		if _, err := c.Submit(request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
			t.Fatalf("commit %d: %v", ta, err)
		}
	}
	for ta := int64(1); ta <= 8; ta++ {
		if srv.Get(100+ta) != 1 {
			t.Errorf("row %d = %d, want 1", 100+ta, srv.Get(100+ta))
		}
	}
}

func TestMuxPingStatsAndLineCoexist(t *testing.T) {
	s, _, _ := startMuxServer(t, nil)

	mc, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if err := mc.Ping(); err != nil {
		t.Fatalf("mux ping: %v", err)
	}

	// The same port still speaks the line protocol.
	lc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	lr := bufio.NewReader(lc)
	line := func(cmd string) string {
		t.Helper()
		lc.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := fmt.Fprintf(lc, "%s\n", cmd); err != nil {
			t.Fatalf("line %s: %v", cmd, err)
		}
		reply, err := lr.ReadString('\n')
		if err != nil {
			t.Fatalf("line %s: %v", cmd, err)
		}
		return strings.TrimSpace(reply)
	}
	if got := line("PING"); got != "PONG" {
		t.Fatalf("line ping: %q", got)
	}

	if _, err := mc.Submit(request.Request{TA: 9, Op: request.Write, Object: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Submit(request.Request{TA: 9, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
		t.Fatal(err)
	}
	stats, err := mc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, " fired[") || !strings.Contains(stats, " strategies[") {
		t.Fatalf("mux stats name neither the rounds' strategies nor why they fired: %q", stats)
	}
	if got := line("STATS"); !strings.HasPrefix(got, "STATS ") || !strings.Contains(got, " fired[") {
		t.Fatalf("line stats: %q", got)
	}
}

func TestMuxReconnectResubmitIsIdempotent(t *testing.T) {
	// Row 43's writes take 50 ms on the server, so a request can be sent
	// while an earlier one is still executing.
	started := make(chan struct{}, 1)
	var srv *storage.Server
	s, _, _ := startMuxServer(t, func(cfg *scheduler.Config) {
		srv = storage.NewServer(storage.Config{Rows: 256, ExecDelay: func(r request.Request) time.Duration {
			if r.Object != 43 {
				return 0
			}
			select {
			case started <- struct{}{}:
			default:
			}
			return 50 * time.Millisecond
		}})
		cfg.Server = srv
	})
	c, err := DialMux(s.Addr(), MuxOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Execute a write, then kill the connection underneath the client and
	// resubmit the same (TA, IntraTA): the resubmit cache must answer
	// without executing twice.
	if _, err := c.Submit(request.Request{TA: 5, Op: request.Write, Object: 42}); err != nil {
		t.Fatal(err)
	}
	c.forceReconnect()
	if _, err := c.Submit(request.Request{TA: 5, IntraTA: 0, Op: request.Write, Object: 42}); err != nil {
		t.Fatalf("resubmit after reconnect: %v", err)
	}
	if _, err := c.Submit(request.Request{TA: 5, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Get(42); got != 1 {
		t.Errorf("row 42 = %d after idempotent resubmit, want 1", got)
	}

	// A second frame under a live key with a different object is not a
	// retransmission: it gets an error reply, and the first executes once.
	first := make(chan error, 1)
	go func() {
		v, err := c.Submit(request.Request{TA: 6, IntraTA: 0, Op: request.Write, Object: 43})
		if err == nil && v != 1 {
			err = fmt.Errorf("value %d, want 1", v)
		}
		first <- err
	}()
	<-started
	if _, err := c.Submit(request.Request{TA: 6, IntraTA: 0, Op: request.Write, Object: 44}); err == nil ||
		!strings.Contains(err.Error(), scheduler.ErrDuplicateKey.Error()) {
		t.Fatalf("changed duplicate answered %v, want %v", err, scheduler.ErrDuplicateKey)
	}
	if err := <-first; err != nil {
		t.Fatalf("first submission of the key: %v", err)
	}
	if _, err := c.Submit(request.Request{TA: 6, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); err != nil {
		t.Fatal(err)
	}
	if a, b := srv.Get(43), srv.Get(44); a != 1 || b != 0 {
		t.Errorf("rows 43 and 44 = %d and %d, want 1 and 0 (the key ran once)", a, b)
	}
}

func TestMuxGoawayOnStopAccepting(t *testing.T) {
	s, _, mw := startMuxServer(t, nil)
	c, err := DialMux(s.Addr(), MuxOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	s.StopAccepting()
	mw.BeginDrain()

	// The goaway is asynchronous; once observed, new submissions fail with
	// ErrShuttingDown client-side. Until then the drain rejects them
	// server-side with the same error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Submit(request.Request{TA: 77, Op: request.Write, Object: 1})
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit after drain: got %v, want ErrShuttingDown", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMuxBusyOnInflightCap(t *testing.T) {
	// Cap the per-conn inflight at 1 and wedge the scheduler behind a slow
	// trigger so the first request parks; the second must bounce with BUSY
	// (and the NoRetry client surfaces it).
	s, _, _ := startMuxServer(t, func(cfg *scheduler.Config) {
		cfg.MaxInflightPerConn = 1
	})
	c, err := DialMux(s.Addr(), MuxOptions{Timeout: 5 * time.Second, NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two writes of one transaction launched together: at most one can be
	// inflight. Retry the race a few times — scheduling may answer the
	// first before the second arrives.
	sawBusy := false
	for round := 0; round < 20 && !sawBusy; round++ {
		ta := int64(1000 + round)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = c.Submit(request.Request{TA: ta, IntraTA: int64(i), Op: request.Write, Object: int64(200 + i)})
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if errors.Is(err, ErrBusy) {
				sawBusy = true
			}
		}
		c.Submit(request.Request{TA: ta, IntraTA: 2, Op: request.Abort, Object: request.NoObject})
	}
	if !sawBusy {
		t.Error("never observed BUSY under a 1-request inflight cap")
	}
}

// TestMuxRecycledCallsNeverCross: logical clients share one MuxClient whose
// round trips time out quickly and are not retried, through a proxy that
// stalls and kills connections, while the connection is also torn down
// every few milliseconds — so calls are retransmitted on reconnect,
// withdrawn on their timeout and answered late, and every one of them is
// recycled. Each client reads only its own object, which holds a value no
// other object holds, so an answer meant for another call (a recycled call
// that a late response still reached) shows as a wrong value. A failed
// round trip gives its transaction up, as a client would: besides timeouts,
// a retransmission that a stalled original overtook is answered as
// superseded.
func TestMuxRecycledCallsNeverCross(t *testing.T) {
	const clients, txns = 16, 40
	srv := storage.NewServer(storage.Config{Rows: clients})
	for obj := int64(0); obj < clients; obj++ {
		for i := int64(0); i <= obj; i++ { // object obj holds obj+1
			if _, err := srv.ExecScheduled(request.Request{Op: request.Write, Object: obj}); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol:       protocol.SS2PLDatalog(),
		Server:         srv,
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
	proxy, err := chaos.New(s.Addr(), chaos.Config{Seed: 7, LatencyP: 0.2, MaxLatency: 3 * time.Millisecond,
		StallP: 0.05, StallFor: 30 * time.Millisecond, KillP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c, err := DialMux(proxy.Addr(), MuxOptions{Timeout: 10 * time.Millisecond, NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	reconnects := make(chan int)
	go func() {
		n := 0
		defer func() { reconnects <- n }()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				c.forceReconnect()
				n++
			}
		}
	}()

	var timeouts, failed, answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obj := int64(g)
			for n := 0; n < txns; n++ {
				ta := int64(1 + g*txns + n)
				for i, r := range []request.Request{
					{TA: ta, IntraTA: 0, Op: request.Read, Object: obj},
					{TA: ta, IntraTA: 1, Op: request.Read, Object: obj},
					{TA: ta, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
				} {
					v, err := c.Submit(r)
					if err != nil {
						if errors.Is(err, errTimeout) {
							timeouts.Add(1)
						} else {
							failed.Add(1)
						}
						break
					}
					answered.Add(1)
					if want := map[bool]int64{true: 0, false: obj + 1}[i == 2]; v != want {
						t.Errorf("client %d, %v: got %d, want %d (another request's answer)", g, r.Key(), v, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	forced := <-reconnects
	t.Logf("%d answers, %d timeouts, %d other failures, %d forced reconnects, proxy %+v",
		answered.Load(), timeouts.Load(), failed.Load(), forced, proxy.Stats())
	if timeouts.Load() == 0 {
		t.Errorf("no round trip timed out: no call was withdrawn (test premise broken)")
	}
	if answered.Load() < clients*txns {
		t.Errorf("only %d answers: too few round trips completed to show anything", answered.Load())
	}
}
