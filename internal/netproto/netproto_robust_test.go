package netproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// startServerOn wires a full middleware stack around an existing storage
// server — used by the durability tests to serve a recovered store — with
// explicit connection options.
func startServerOn(t *testing.T, srv *storage.Server, opts Options) (*Server, func()) {
	t.Helper()
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol: protocol.SS2PLDatalog(),
		Server:   srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, scheduler.HybridTrigger{Level: 4, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	s, err := ListenOpts("127.0.0.1:0", mw, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := func() {
		s.Close()
		mw.Stop()
	}
	return s, stop
}

// fakeServer accepts one connection, closes its listener (so a client's
// redial is refused) and lets script drive the connection; it returns the
// listener address.
func fakeServer(t *testing.T, script func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		script(conn)
	}()
	return ln.Addr().String()
}

func TestSubmitTimesOutOnWedgedServer(t *testing.T) {
	// The server accepts and then never replies: without a timeout Submit
	// would hang forever.
	addr := fakeServer(t, func(conn net.Conn) {
		io.Copy(io.Discard, conn) // read and ignore everything
		conn.Close()
	})
	c, err := DialMux(addr, MuxOptions{Timeout: 100 * time.Millisecond, NoRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Submit(request.Request{TA: 1, Op: request.Write, Object: 1})
	if !errors.Is(err, errTimeout) {
		t.Fatalf("want the round-trip timeout, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Submit took %v, the timeout did not bound the wait", d)
	}
}

func TestSubmitFailsCleanlyWhenServerDiesMidRequest(t *testing.T) {
	dead := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn) {
		buf := make([]byte, 1)
		conn.Read(buf) // wait for the request to start arriving, then die
		conn.Close()
		close(dead)
	})
	c, err := DialMux(addr, MuxOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Submit(request.Request{TA: 1, Op: request.Write, Object: 1})
	if err == nil {
		t.Fatal("Submit returned nil after the server died mid-request")
	}
	// The redials are refused: the retry budget runs out long before the
	// round-trip timeout would.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Submit took %v to fail", d)
	}
	<-dead
}

func TestErrAbortedPropagates(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		fr := frameReader{br: bufio.NewReader(conn)}
		typ, body, err := fr.read()
		if err != nil || typ != frameReq {
			return
		}
		corr, _, err := decodeReqBody(body)
		if err != nil {
			return
		}
		conn.Write(appendReply(nil, response{corr: corr, status: statusAborted}))
		io.Copy(io.Discard, conn) // hold the connection until the client leaves
	})
	c, err := DialMux(addr, MuxOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Submit(request.Request{TA: 1, Op: request.Commit, Object: request.NoObject})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
}

// TestIdleConnectionReaped checks the reap on raw connections of both
// dialects: after one answered probe and the idle deadline, the server
// closes the connection. (A MuxClient would reconnect transparently.)
func TestIdleConnectionReaped(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	s, stop := startServerOn(t, srv, Options{IdleTimeout: 50 * time.Millisecond})
	defer stop()
	for _, dialect := range []struct {
		name  string
		probe []byte
		read  func(*frameReader) error
	}{
		{"line", []byte("PING\n"), func(r *frameReader) error {
			_, err := r.br.ReadString('\n')
			return err
		}},
		{"mux", appendCorrFrame(nil, framePing, 1), func(r *frameReader) error {
			_, _, err := r.read()
			return err
		}},
	} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		r := &frameReader{br: bufio.NewReader(conn)}
		if _, err := conn.Write(dialect.probe); err != nil {
			t.Fatalf("%s: probe: %v", dialect.name, err)
		}
		if err := dialect.read(r); err != nil {
			t.Fatalf("%s: probe on a fresh connection: %v", dialect.name, err)
		}
		time.Sleep(300 * time.Millisecond) // well past the idle deadline
		if err := dialect.read(r); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: want EOF on a connection the server should have reaped, got %v", dialect.name, err)
		}
	}
}

func TestWriteTimeoutDoesNotAffectPromptClients(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	s, stop := startServerOn(t, srv, Options{
		IdleTimeout:  time.Second,
		WriteTimeout: time.Second,
	})
	defer stop()
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := request.NewBuilder(1, nil).Write(3).Commit()
	if aborted, err := c.RunTransaction(tx); err != nil || aborted {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	if srv.Get(3) != 1 {
		t.Errorf("row 3 = %d", srv.Get(3))
	}
}

// TestReconnectAfterRestart is the end-to-end durability loop: commit over
// the wire, tear the whole stack down, recover the directory, serve it
// again, and read the committed state back over a fresh connection.
func TestReconnectAfterRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	srv, err := storage.Open(storage.Config{Rows: 16, Durable: true, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, stop := startServerOn(t, srv, Options{})
	c, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx := request.NewBuilder(1, nil).Write(5).Write(5).Commit()
	if aborted, err := c.RunTransaction(tx); err != nil || aborted {
		t.Fatalf("aborted=%v err=%v", aborted, err)
	}
	// Leave a second transaction uncommitted, then take the stack down.
	if _, err := c.Submit(request.Request{TA: 2, Op: request.Write, Object: 6}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	stop()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal")); err != nil {
		t.Fatalf("journal missing after shutdown: %v", err)
	}

	rec, err := storage.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, stop2 := startServerOn(t, rec, Options{})
	defer stop2()
	c2, err := DialMux(s2.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	v, err := c2.Submit(request.Request{TA: 3, Op: request.Read, Object: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("recovered row 5 = %d, want 2", v)
	}
	v, err = c2.Submit(request.Request{TA: 3, IntraTA: 1, Op: request.Read, Object: 6})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("uncommitted row 6 = %d, want 0 after recovery", v)
	}
}
