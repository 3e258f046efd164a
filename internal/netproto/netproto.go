// Package netproto is the wire front-end of the middleware scheduler: the
// paper's Figure 1 has clients connect to the scheduler over the network,
// with a control instance spawning one client worker per connection. The
// protocol is line-oriented text over TCP:
//
//	client -> server:  REQ <ta> <intrata> <op> <object> [<priority>]
//	                   PING
//	                   STATS
//	server -> client:  OK <value>      the request executed
//	                   ABORTED         the transaction was a deadlock victim
//	                   BUSY <ms>       admission control rejected the request;
//	                                   retry after the hinted backoff
//	                   SHUTTING_DOWN   the server is draining; go elsewhere
//	                   ERR <message>   malformed request or scheduler failure
//	                   PONG            reply to PING
//	                   STATS <summary> one-line scheduler summary (rounds,
//	                                   executed, latency tails, strategies),
//	                                   captured as a single consistent
//	                                   snapshot, for smoke tests and
//	                                   operational probes
//
// op is one of r, w, c, a (paper Table 2). Each connection is one client
// worker: requests on a connection are processed strictly in order, blocking
// until the scheduler executes them — exactly the paper's client model.
//
// The same port also speaks a multiplexed binary protocol (see frame.go):
// the server peeks the first byte of a connection — binary frames start with
// 0x00, line commands with an ASCII letter — and dispatches. MuxClient
// carries many concurrent logical clients over one connection with
// out-of-order responses matched by correlation ID, and it is the only Go
// client. The line dialect is the shell's: it stays so that an operator (and
// the smoke tests) can drive the server from bash.
package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/request"
	"repro/internal/scheduler"
)

// ErrAborted is returned by MuxClient.Submit when the server reports the
// transaction was aborted as a deadlock victim.
var ErrAborted = errors.New("netproto: transaction aborted by scheduler")

// ErrBusy is returned when the server's admission control rejected the
// request and the client's retry budget is exhausted (or retries are
// disabled). The transaction was never admitted — nothing to clean up.
var ErrBusy = errors.New("netproto: server busy")

// ErrShuttingDown is returned when the server is draining: it will finish
// admitted work but accepts nothing new. Clients should fail over, not
// retry.
var ErrShuttingDown = errors.New("netproto: server shutting down")

// Options configures a server's connection handling. The zero value keeps
// the original behaviour: no deadlines, connections live until they close
// or error.
type Options struct {
	// IdleTimeout reaps a connection that has not sent a request for this
	// long: the read blocks with a deadline and the worker exits when it
	// fires. Zero disables reaping.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write, so a client that stops reading
	// cannot wedge its worker. Zero means no limit.
	WriteTimeout time.Duration
}

// Server accepts client connections and forwards their requests to the
// middleware.
type Server struct {
	mw   *scheduler.Middleware
	ln   net.Listener
	opts Options

	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	muxConns map[*muxConn]struct{}
	wg       sync.WaitGroup
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") with no deadlines.
func Listen(addr string, mw *scheduler.Middleware) (*Server, error) {
	return ListenOpts(addr, mw, Options{})
}

// ListenOpts starts serving on addr with explicit connection options.
func ListenOpts(addr string, mw *scheduler.Middleware, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	s := &Server{
		mw:       mw,
		ln:       ln,
		opts:     opts,
		conns:    make(map[net.Conn]struct{}),
		muxConns: make(map[*muxConn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// StopAccepting begins the graceful drain: the listener closes (connection
// attempts are refused) and every multiplexed connection is sent GOAWAY so
// its clients stop submitting here. Existing connections stay up — admitted
// work still needs its responses. The full drain sequence is StopAccepting,
// then Middleware.DrainAndStop, then Close.
func (s *Server) StopAccepting() {
	s.ln.Close()
	s.mu.Lock()
	for mc := range s.muxConns {
		mc.goaway()
	}
	s.mu.Unlock()
}

// Close stops accepting, force-closes the remaining connections and waits
// for their workers to exit. For a graceful shutdown, drain first (see
// StopAccepting).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection for Close's force-close sweep; it
// refuses (and closes) connections that raced past a concurrent Close.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// trackMux additionally registers a mux connection for StopAccepting's
// GOAWAY broadcast.
func (s *Server) trackMux(mc *muxConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.muxConns[mc] = struct{}{}
	return true
}

func (s *Server) untrackMux(mc *muxConn) {
	s.mu.Lock()
	delete(s.muxConns, mc)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The paper's "control instance creates a separate client worker for
		// each connected client".
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)

	// Protocol dispatch: a binary frame's length field starts with 0x00
	// (frames are capped far below 16 MiB), a line command with an ASCII
	// letter.
	s.armIdle(conn)
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == 0x00 {
		s.serveMux(conn, br)
		return
	}

	sc := bufio.NewScanner(br)
	w := bufio.NewWriter(conn)
	reply := func(line string) bool {
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if _, err := w.WriteString(line + "\n"); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	for {
		s.armIdle(conn)
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == "PING":
			if !reply("PONG") {
				return
			}
		case line == "STATS":
			// One consistent snapshot: counters and latency tails captured
			// under a single critical section, so mid-run scrapes never see
			// torn state.
			snap := s.mw.Collector().Snapshot()
			if !reply("STATS " + snap.String()) {
				return
			}
		case line == "QUIT":
			return
		case strings.HasPrefix(line, "REQ "):
			req, err := parseReq(line)
			if err != nil {
				if !reply("ERR " + err.Error()) {
					return
				}
				continue
			}
			res := s.mw.Submit(req)
			switch {
			case errors.Is(res.Err, scheduler.ErrTxnAborted):
				if !reply("ABORTED") {
					return
				}
			case errors.Is(res.Err, scheduler.ErrBusy):
				var be *scheduler.BusyError
				ms := int64(10)
				if errors.As(res.Err, &be) && be.RetryAfter.Milliseconds() > 0 {
					ms = be.RetryAfter.Milliseconds()
				}
				if !reply("BUSY " + strconv.FormatInt(ms, 10)) {
					return
				}
			case errors.Is(res.Err, scheduler.ErrShuttingDown), errors.Is(res.Err, scheduler.ErrStopped):
				if !reply("SHUTTING_DOWN") {
					return
				}
			case res.Err != nil:
				if !reply("ERR " + res.Err.Error()) {
					return
				}
			default:
				if !reply("OK " + strconv.FormatInt(res.Value, 10)) {
					return
				}
			}
		default:
			if !reply("ERR unknown command") {
				return
			}
		}
	}
}

// armIdle arms the idle reaper before each request: when the deadline fires
// mid-read, the read fails and the worker exits, closing the connection.
func (s *Server) armIdle(conn net.Conn) {
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
}

func parseReq(line string) (request.Request, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 && len(fields) != 6 {
		return request.Request{}, fmt.Errorf("want REQ ta intrata op object [priority], got %d fields", len(fields)-1)
	}
	ta, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return request.Request{}, fmt.Errorf("bad ta %q", fields[1])
	}
	intra, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return request.Request{}, fmt.Errorf("bad intrata %q", fields[2])
	}
	op, err := request.ParseOp(fields[3])
	if err != nil {
		return request.Request{}, err
	}
	obj, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return request.Request{}, fmt.Errorf("bad object %q", fields[4])
	}
	r := request.Request{TA: ta, IntraTA: intra, Op: op, Object: obj}
	if len(fields) == 6 {
		prio, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil {
			return request.Request{}, fmt.Errorf("bad priority %q", fields[5])
		}
		r.Priority = prio
	}
	return r, nil
}

// DefaultTimeout bounds every client round-trip out of the box: a dead or
// wedged server yields a timeout error instead of hanging the caller
// forever. A negative MuxOptions.Timeout restores unbounded waits for
// debugging sessions.
const DefaultTimeout = 30 * time.Second

// DefaultRetryBudget is the number of BUSY-backoff (or reconnect) retries an
// operation spends before giving up.
const DefaultRetryBudget = 8

// defaultMaxBackoff caps the client-side exponential backoff.
const defaultMaxBackoff = 250 * time.Millisecond

// backoffWait sleeps for the larger of the server's retry-after hint and the
// client's own capped exponential backoff, with jitter so synchronized
// rejected clients do not return in lockstep.
func backoffWait(hint time.Duration, attempt int) {
	d := time.Millisecond << uint(attempt)
	if d > defaultMaxBackoff {
		d = defaultMaxBackoff
	}
	if hint > d {
		d = hint
	}
	// ±50% jitter.
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	time.Sleep(d)
}
