package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/request"
	"repro/internal/scheduler"
)

// DefaultMaxInflightPerConn caps a multiplexed connection's unanswered
// requests when the middleware's limits leave it unset.
const DefaultMaxInflightPerConn = 1024

// muxConn is the server side of one multiplexed connection: a reader
// goroutine decodes frames and submits requests without blocking
// (Middleware.SubmitTo, with the connection as the delivery target and the
// correlation ID as the tag), and a writer goroutine drains the bounded
// reply queue — so many logical clients share the connection and replies
// return in execution order, not submission order. The queue carries
// fixed-size reply values, which the writer encodes straight into its
// bufio.Writer's buffer.
type muxConn struct {
	conn     net.Conn
	out      chan response
	dead     chan struct{}
	deadOnce sync.Once
	inflight atomic.Int64
}

// respond enqueues one reply for the writer. The queue is sized for the
// inflight cap plus control traffic, so a live connection always has room;
// when the connection died the reply is dropped — the client's
// reconnect-with-resubmit path recovers the result from the scheduler's
// resubmit cache.
func (mc *muxConn) respond(rs response) {
	select {
	case mc.out <- rs:
	case <-mc.dead:
	}
}

// Reply answers the request submitted under correlation ID corr: the
// connection is the middleware's delivery target for its requests.
func (mc *muxConn) Reply(corr uint64, res scheduler.Result) {
	mc.respond(toResponse(corr, res))
	mc.inflight.Add(-1)
}

func (mc *muxConn) kill() {
	mc.deadOnce.Do(func() { close(mc.dead) })
	mc.conn.Close()
}

// goaway tells the client the server is draining (non-blocking: a stuck
// connection is killed by drain's force-close instead).
func (mc *muxConn) goaway() {
	select {
	case mc.out <- response{ctrl: frameGoaway}:
	default:
	}
}

// writeReplies is the connection's writer: it encodes each queued reply into
// w's buffer and flushes only when the queue is empty, so consecutive
// replies coalesce into one syscall. Any write error kills the connection.
func (s *Server) writeReplies(mc *muxConn) {
	w := bufio.NewWriter(mc.conn)
	for {
		select {
		case rs := <-mc.out:
			if s.opts.WriteTimeout > 0 {
				mc.conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			}
			// Room for the largest frame rs can make, so the encode stays
			// in w's buffer.
			if w.Available() < frameHdr+respBody+len(rs.msg) && w.Flush() != nil {
				mc.kill()
				return
			}
			if _, err := w.Write(appendReply(w.AvailableBuffer(), rs)); err != nil {
				mc.kill()
				return
			}
			if len(mc.out) == 0 {
				if err := w.Flush(); err != nil {
					mc.kill()
					return
				}
			}
		case <-mc.dead:
			return
		}
	}
}

// serveMux runs one multiplexed binary-protocol connection. br already holds
// the first (peeked) byte of the first frame.
func (s *Server) serveMux(conn net.Conn, br *bufio.Reader) {
	maxInflight := s.mw.Limits().MaxInflightPerConn
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflightPerConn
	}
	mc := &muxConn{
		conn: conn,
		// Inflight replies plus control frames (pong, stats, goaway); the
		// reader blocks on control-frame room, so the bound holds.
		out:  make(chan response, maxInflight+64),
		dead: make(chan struct{}),
	}
	if !s.trackMux(mc) {
		return // already draining and force-closed
	}
	defer s.untrackMux(mc)

	var wg sync.WaitGroup
	// Reader exit kills the connection first so the writer's select wakes,
	// then waits it out.
	defer func() {
		mc.kill()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.writeReplies(mc)
	}()

	fr := frameReader{br: br}
	for {
		s.armIdle(conn)
		typ, body, err := fr.read()
		if err != nil {
			// Includes CRC mismatches and torn frames: the connection is not
			// trustworthy, drop it and let the client reconnect.
			return
		}
		switch typ {
		case frameReq:
			corr, req, err := decodeReqBody(body)
			if err != nil {
				mc.respond(response{corr: corr, status: statusErr, msg: err.Error()})
				continue
			}
			s.submitMux(mc, maxInflight, corr, req)
		case frameBatch:
			if len(body) < 4 {
				return
			}
			n := int(binary.BigEndian.Uint32(body))
			rest := body[4:]
			if n < 0 || len(rest) != n*reqBody {
				return
			}
			for i := 0; i < n; i++ {
				corr, req, err := decodeReqBody(rest[i*reqBody : (i+1)*reqBody])
				if err != nil {
					mc.respond(response{corr: corr, status: statusErr, msg: err.Error()})
					continue
				}
				s.submitMux(mc, maxInflight, corr, req)
			}
		case framePing:
			if len(body) == 8 {
				mc.respond(response{ctrl: framePong, corr: binary.BigEndian.Uint64(body)})
			}
		case frameStats:
			if len(body) == 8 {
				snap := s.mw.Collector().Snapshot()
				mc.respond(response{ctrl: frameStatsR, corr: binary.BigEndian.Uint64(body), msg: snap.String()})
			}
		default:
			return // unknown frame type: protocol error
		}
	}
}

// submitMux pushes one decoded request into the scheduler, enforcing the
// per-connection inflight cap. Rejections answer immediately; accepted
// requests are answered by the middleware through mc.Reply.
func (s *Server) submitMux(mc *muxConn, maxInflight int, corr uint64, req request.Request) {
	if mc.inflight.Add(1) > int64(maxInflight) {
		mc.inflight.Add(-1)
		mc.respond(response{corr: corr, status: statusBusy, retryAfterMs: 5})
		return
	}
	if err := s.mw.SubmitTo(req, mc, corr); err != nil {
		mc.Reply(corr, scheduler.Result{Err: err})
	}
}

// toResponse maps a scheduler result onto the wire statuses.
func toResponse(corr uint64, res scheduler.Result) response {
	switch {
	case res.Err == nil:
		return response{corr: corr, status: statusOK, value: res.Value}
	case errors.Is(res.Err, scheduler.ErrTxnAborted):
		return response{corr: corr, status: statusAborted}
	case errors.Is(res.Err, scheduler.ErrBusy):
		var be *scheduler.BusyError
		ms := uint32(10)
		if errors.As(res.Err, &be) {
			ms = uint32(be.RetryAfter.Milliseconds())
			if ms == 0 {
				ms = 1
			}
		}
		return response{corr: corr, status: statusBusy, retryAfterMs: ms}
	case errors.Is(res.Err, scheduler.ErrShuttingDown), errors.Is(res.Err, scheduler.ErrStopped):
		return response{corr: corr, status: statusShutdown}
	default:
		return response{corr: corr, status: statusErr, msg: res.Err.Error()}
	}
}
