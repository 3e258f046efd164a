package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

func startServer(t *testing.T) (*Server, *storage.Server) {
	t.Helper()
	srv := storage.NewServer(storage.Config{Rows: 64})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol: protocol.SS2PLDatalog(),
		Server:   srv,
		KeepLog:  true,
	})
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
	return s, srv
}

func TestPingAndSingleTransaction(t *testing.T) {
	s, srv := startServer(t)
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	tx := request.NewBuilder(1, nil).Write(7).Read(7).Commit()
	aborted, err := c.RunTransaction(tx)
	if err != nil || aborted {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	if srv.Get(7) != 1 {
		t.Errorf("row 7 = %d", srv.Get(7))
	}
}

func TestReadReturnsValue(t *testing.T) {
	s, _ := startServer(t)
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 3}); err != nil {
		t.Fatal(err)
	}
	v, err := c.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Read, Object: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("read value %d", v)
	}
	if _, err := c.Submit(request.Request{TA: 1, IntraTA: 2, Op: request.Commit, Object: request.NoObject}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsSerializable(t *testing.T) {
	s, srv := startServer(t)
	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(ta int64) {
			defer wg.Done()
			c, err := DialMux(s.Addr(), MuxOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// All clients increment the same two rows.
			tx := request.NewBuilder(ta, nil).Write(1).Write(2).Commit()
			for {
				aborted, err := c.RunTransaction(tx)
				if err != nil {
					t.Error(err)
					return
				}
				if !aborted {
					return
				}
				// Retry under a fresh transaction number.
				ta += 100
				tx = request.NewBuilder(ta, nil).Write(1).Write(2).Commit()
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if srv.Get(1) != clients || srv.Get(2) != clients {
		t.Errorf("rows: %d %d, want %d each", srv.Get(1), srv.Get(2), clients)
	}
}

func TestDeadlockVictimGetsAborted(t *testing.T) {
	s, _ := startServer(t)
	c1, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.Submit(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Submit(request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 11}); err != nil {
		t.Fatal(err)
	}
	// Cross: both block; the scheduler must abort ta2 (youngest).
	errs := make(chan error, 2)
	go func() {
		_, err := c1.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Write, Object: 11})
		errs <- err
	}()
	go func() {
		_, err := c2.Submit(request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 10})
		errs <- err
	}()
	var aborted, ok int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrAborted):
				aborted++
			case err == nil:
				ok++
			default:
				t.Fatalf("unexpected: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock not resolved over the wire")
		}
	}
	if aborted != 1 || ok != 1 {
		t.Errorf("aborted=%d ok=%d", aborted, ok)
	}
}

func TestProtocolErrors(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		fmt.Fprintf(conn, "%s\n", line)
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", line, err)
		}
		return strings.TrimSpace(reply)
	}
	if got := send("BOGUS"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("BOGUS -> %q", got)
	}
	if got := send("REQ 1 0 x 5"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad op -> %q", got)
	}
	if got := send("REQ 1 0 r"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("short req -> %q", got)
	}
	if got := send("REQ notanumber 0 r 5"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("bad ta -> %q", got)
	}
	if got := send("REQ 1 0 r 5"); !strings.HasPrefix(got, "OK") {
		t.Errorf("valid req -> %q", got)
	}
	if got := send("REQ 1 1 r 5 9"); !strings.HasPrefix(got, "OK") {
		t.Errorf("req with priority -> %q", got)
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	s, _ := startServer(t)
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Errorf("close: %v", err)
	}
	if _, err := DialMux(s.Addr(), MuxOptions{}); err == nil {
		t.Error("dial succeeded after close")
	}
}

// TestPartitionedServerConcurrentClients runs the wire protocol against the
// partitioned middleware: concurrent clients whose transactions straddle
// shards (two fixed rows plus the commit) must all land, and the schedule
// must stay serializable across the merged shard logs.
func TestPartitionedServerConcurrentClients(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
		Base:       scheduler.Config{Server: srv, KeepLog: true, StarveAfter: 50},
		Partitions: 4,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := scheduler.NewPartitionedMiddleware(pe, scheduler.HybridTrigger{Level: 4, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	s, err := Listen("127.0.0.1:0", mw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mw.Stop()
	})
	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(ta int64) {
			defer wg.Done()
			c, err := DialMux(s.Addr(), MuxOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			tx := request.NewBuilder(ta, nil).Write(1).Write(2).Commit()
			for {
				aborted, err := c.RunTransaction(tx)
				if err != nil {
					t.Error(err)
					return
				}
				if !aborted {
					return
				}
				ta += 100
				tx = request.NewBuilder(ta, nil).Write(1).Write(2).Commit()
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if srv.Get(1) != clients || srv.Get(2) != clients {
		t.Errorf("rows: %d %d, want %d each", srv.Get(1), srv.Get(2), clients)
	}
	if err := protocol.CheckSerializable(pe.MergedLog()); err != nil {
		t.Error(err)
	}
	if err := protocol.CheckTerminationOrder(pe.MergedLog()); err != nil {
		t.Error(err)
	}
}
