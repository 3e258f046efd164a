package netproto

import (
	"bufio"
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
// (Middleware.SubmitFunc), and a writer goroutine drains the bounded
// response queue — so many logical clients share the connection and
// responses return in execution order, not submission order.
type muxConn struct {
	conn     net.Conn
	out      chan []byte
	dead     chan struct{}
	deadOnce sync.Once
	inflight atomic.Int64
}

// respond enqueues one encoded frame for the writer. The queue is sized for
// the inflight cap plus control traffic, so a live connection always has
// room; when the connection died the frame is dropped — the client's
// reconnect-with-resubmit path recovers the result from the scheduler's
// resubmit cache.
func (mc *muxConn) respond(frame []byte) {
	select {
	case mc.out <- frame:
	case <-mc.dead:
	}
}

func (mc *muxConn) kill() {
	mc.deadOnce.Do(func() { close(mc.dead) })
	mc.conn.Close()
}

// goaway tells the client the server is draining (non-blocking: a stuck
// connection is killed by drain's force-close instead).
func (mc *muxConn) goaway() {
	select {
	case mc.out <- appendFrame(nil, frameGoaway, nil):
	default:
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
		// Inflight responses plus control frames (pong, stats, goaway); the
		// reader blocks on control-frame room, so the bound holds.
		out:  make(chan []byte, maxInflight+64),
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
		w := bufio.NewWriter(conn)
		for {
			select {
			case frame := <-mc.out:
				if s.opts.WriteTimeout > 0 {
					conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
				}
				if _, err := w.Write(frame); err != nil {
					mc.kill()
					return
				}
				// Flush only when the queue is empty: consecutive responses
				// coalesce into one syscall.
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
	}()

	for {
		s.armIdle(conn)
		typ, body, err := readFrame(br)
		if err != nil {
			// Includes CRC mismatches and torn frames: the connection is not
			// trustworthy, drop it and let the client reconnect.
			return
		}
		switch typ {
		case frameReq:
			corr, req, err := decodeReqBody(body)
			if err != nil {
				mc.respond(encodeResp(response{corr: corr, status: statusErr, msg: err.Error()}))
				continue
			}
			s.submitMux(mc, maxInflight, corr, req)
		case frameBatch:
			if len(body) < 4 {
				return
			}
			n := int(uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3]))
			rest := body[4:]
			if n < 0 || len(rest) != n*reqBody {
				return
			}
			for i := 0; i < n; i++ {
				corr, req, err := decodeReqBody(rest[i*reqBody : (i+1)*reqBody])
				if err != nil {
					mc.respond(encodeResp(response{corr: corr, status: statusErr, msg: err.Error()}))
					continue
				}
				s.submitMux(mc, maxInflight, corr, req)
			}
		case framePing:
			if len(body) == 8 {
				mc.respond(appendFrame(nil, framePong, body))
			}
		case frameStats:
			if len(body) == 8 {
				snap := s.mw.Collector().Snapshot()
				mc.respond(appendFrame(nil, frameStatsR, append(append([]byte{}, body...), snap.String()...)))
			}
		default:
			return // unknown frame type: protocol error
		}
	}
}

// submitMux pushes one decoded request into the scheduler, enforcing the
// per-connection inflight cap. Rejections answer immediately; accepted
// requests answer from the middleware's delivery callback.
func (s *Server) submitMux(mc *muxConn, maxInflight int, corr uint64, req request.Request) {
	if mc.inflight.Add(1) > int64(maxInflight) {
		mc.inflight.Add(-1)
		mc.respond(encodeResp(response{corr: corr, status: statusBusy, retryAfterMs: 5}))
		return
	}
	err := s.mw.SubmitFunc(req, func(res scheduler.Result) {
		mc.respond(encodeResp(toResponse(corr, res)))
		mc.inflight.Add(-1)
	})
	if err != nil {
		mc.respond(encodeResp(toResponse(corr, scheduler.Result{Err: err})))
		mc.inflight.Add(-1)
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
