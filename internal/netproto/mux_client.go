package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/request"
	"repro/internal/scheduler"
)

// MuxOptions configures a multiplexed client. The zero value selects the
// robust defaults: DefaultTimeout round-trips and DefaultRetryBudget
// retries.
type MuxOptions struct {
	// Timeout bounds one round-trip wait; a request that gets no response
	// within it forces a reconnect cycle (the pending request is
	// retransmitted). Zero selects DefaultTimeout; negative disables the
	// bound.
	Timeout time.Duration
	// RetryBudget is how many BUSY-backoff rounds, timeout-reconnect cycles
	// or redial attempts one operation spends before failing. Zero selects
	// DefaultRetryBudget.
	RetryBudget int
	// NoRetry disables BUSY retries and reconnects entirely — the first
	// failure surfaces. For benchmarks that measure, not mask, rejection.
	NoRetry bool
}

func (o MuxOptions) timeout() time.Duration {
	if o.Timeout < 0 {
		return 0
	}
	if o.Timeout == 0 {
		return DefaultTimeout
	}
	return o.Timeout
}

func (o MuxOptions) budget() int {
	if o.NoRetry {
		return 0
	}
	if o.RetryBudget <= 0 {
		return DefaultRetryBudget
	}
	return o.RetryBudget
}

// MuxClient multiplexes many concurrent logical clients over one TCP
// connection of the binary protocol: every Submit gets a correlation ID,
// responses match out of order, and any number of goroutines may call
// Submit/SubmitBatch/Ping/Stats concurrently.
//
// Robustness: round-trips time out (forcing a reconnect that retransmits
// everything unanswered), BUSY rejections back off with jitter honoring the
// server's retry-after hint, and broken connections redial with capped
// exponential backoff. A retransmitted request is idempotent: if the
// original is still in flight the retransmission attaches to it, and if it
// already executed the server's resubmit cache (Config.ResubmitWindow > 0)
// returns the recorded result instead of executing twice. A retransmission
// carries the original's content; the server refuses a different request
// under a live key (scheduler.ErrDuplicateKey).
type MuxClient struct {
	addr string
	opts MuxOptions

	mu        sync.Mutex
	conn      net.Conn
	w         *bufio.Writer
	gen       uint64
	nextCorr  uint64
	pending   map[uint64]*muxCall
	closed    bool
	goingAway bool
	redialing bool
}

// muxCall is one in-flight operation. done has capacity 1 and receives at
// most one response: delivery claims the call from the pending map under the
// client mutex, so a response raced by a retransmission cannot deliver
// twice. Calls are recycled with their done channel and timer.
type muxCall struct {
	req   request.Request
	ctrl  byte // framePing or frameStats for control calls, 0 for requests
	corr  uint64
	done  chan response
	timer *time.Timer // awaitCall's, made on its first use
}

// callPool recycles muxCalls. A call goes back only once nothing can send on
// its done channel any more: after it left pending and its single response
// was received, or after unregister withdrew it from pending — the same
// exactly-once argument that makes the middleware's pooled reply channels
// safe. A call released while still pending would take a late response for
// its old correlation ID into a later operation that reuses it.
var callPool = sync.Pool{New: func() any { return &muxCall{done: make(chan response, 1)} }}

func newCall(req request.Request, ctrl byte) *muxCall {
	call := callPool.Get().(*muxCall)
	call.req, call.ctrl = req, ctrl
	return call
}

// DialMux connects a multiplexed client.
func DialMux(addr string, opts MuxOptions) (*MuxClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	c := &MuxClient{
		addr:    addr,
		opts:    opts,
		conn:    conn,
		w:       bufio.NewWriterSize(conn, frameChunk),
		pending: make(map[uint64]*muxCall),
	}
	go c.readLoop(conn, 0)
	return c, nil
}

// Close terminates the connection and fails everything in flight.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.failPendingLocked()
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// failPendingLocked answers every pending call with a shutdown status.
// Caller holds c.mu.
func (c *MuxClient) failPendingLocked() {
	for corr, call := range c.pending {
		delete(c.pending, corr)
		call.done <- response{status: statusShutdown}
	}
}

// readLoop decodes frames off one connection generation and routes them.
func (c *MuxClient) readLoop(conn net.Conn, gen uint64) {
	fr := frameReader{br: bufio.NewReaderSize(conn, frameChunk)}
	for {
		typ, body, err := fr.read()
		if err != nil {
			c.reconnect(conn, gen)
			return
		}
		switch typ {
		case frameResp:
			rs, err := decodeRespBody(body)
			if err != nil {
				c.reconnect(conn, gen)
				return
			}
			c.deliver(rs)
		case framePong, frameStatsR:
			if len(body) < 8 {
				c.reconnect(conn, gen)
				return
			}
			c.deliver(response{corr: binary.BigEndian.Uint64(body), status: statusOK, msg: string(body[8:])})
		case frameGoaway:
			c.mu.Lock()
			c.goingAway = true
			c.mu.Unlock()
		default:
			c.reconnect(conn, gen)
			return
		}
	}
}

// deliver claims the pending call for one response and completes it.
// Unclaimed responses (stale generation, superseded correlation) are
// dropped.
func (c *MuxClient) deliver(rs response) {
	c.mu.Lock()
	call := c.pending[rs.corr]
	if call != nil {
		delete(c.pending, rs.corr)
	}
	c.mu.Unlock()
	if call != nil {
		call.done <- rs
	}
}

// reconnect replaces a failed connection: redial with capped backoff, then
// retransmit everything still pending under fresh correlation IDs. Exactly
// one goroutine reconnects per generation; the rest return.
func (c *MuxClient) reconnect(failed net.Conn, gen uint64) {
	c.mu.Lock()
	if c.closed || c.gen != gen || c.conn != failed {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	c.gen++
	newGen := c.gen
	c.redialing = true
	c.mu.Unlock()
	failed.Close()

	budget := c.opts.budget()
	for attempt := 0; ; attempt++ {
		if attempt > budget {
			c.mu.Lock()
			c.redialing = false
			c.failPendingLocked()
			c.mu.Unlock()
			return
		}
		conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			backoffWait(0, attempt)
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.w.Reset(conn)
		c.redialing = false
		// Retransmit under fresh correlation IDs: the server answers from
		// its resubmit cache or attaches the retry to the original still in
		// flight, so the retry is exactly-once from the client's point of
		// view.
		old := c.pending
		c.pending = make(map[uint64]*muxCall, len(old))
		for _, call := range old {
			call.corr = c.nextCorr
			c.nextCorr++
			c.pending[call.corr] = call
			c.writeCallLocked(call)
		}
		writeErr := c.w.Flush()
		c.mu.Unlock()
		go c.readLoop(conn, newGen)
		if writeErr != nil {
			// The fresh connection failed immediately; its read loop will
			// start the next reconnect cycle.
			conn.Close()
		}
		return
	}
}

// send registers one call and transmits its frame. When a reconnect is in
// progress the call is only registered — the reconnect retransmits it.
func (c *MuxClient) send(call *muxCall) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	if c.goingAway && call.ctrl == 0 {
		return ErrShuttingDown
	}
	call.corr = c.nextCorr
	c.nextCorr++
	c.pending[call.corr] = call
	if c.conn == nil {
		if c.redialing {
			return nil // reconnect in progress; it will retransmit
		}
		// A previous reconnect gave up; try a fresh dial inline.
		conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			delete(c.pending, call.corr)
			return fmt.Errorf("netproto: %w", err)
		}
		c.conn = conn
		c.w.Reset(conn)
		c.gen++
		go c.readLoop(conn, c.gen)
	}
	if t := c.opts.timeout(); t > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(t))
	}
	c.writeCallLocked(call)
	c.flushLocked()
	return nil
}

// writeCallLocked encodes one call's frame straight into the connection's
// write buffer. A write error sticks to c.w and surfaces at the next
// flushLocked. Caller holds c.mu.
func (c *MuxClient) writeCallLocked(call *muxCall) {
	if c.w.Available() < frameHdr+reqBody {
		c.w.Flush()
	}
	buf := c.w.AvailableBuffer()
	if call.ctrl != 0 {
		buf = appendCorrFrame(buf, call.ctrl, call.corr)
	} else {
		buf = appendReqFrame(buf, call.corr, call.req)
	}
	c.w.Write(buf)
}

// flushLocked sends what is buffered. Any write or flush error closes the
// connection: its read loop then reconnects and retransmits everything
// pending. Caller holds c.mu.
func (c *MuxClient) flushLocked() {
	if err := c.w.Flush(); err != nil {
		c.conn.Close()
	}
}

// unregister withdraws a call that gave up waiting; reports whether the call
// was still unanswered (false means a response was delivered concurrently).
func (c *MuxClient) unregister(call *muxCall) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.pending[call.corr]; ok && cur == call {
		delete(c.pending, call.corr)
		return true
	}
	return false
}

// forceReconnect kills the current connection so the read loop starts a
// reconnect cycle (used when a round-trip timed out: the connection may be
// wedged even though it looks open).
func (c *MuxClient) forceReconnect() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// errTimeout is returned when a round-trip exceeded the budgeted reconnect
// cycles without a response.
var errTimeout = errors.New("netproto: round-trip timed out")

// awaitCall waits for one registered call's response. Each timeout forces a
// reconnect cycle (the pending call is retransmitted) until the retry budget
// runs out.
func (c *MuxClient) awaitCall(call *muxCall) (response, error) {
	timeout := c.opts.timeout()
	if timeout <= 0 {
		return <-call.done, nil
	}
	budget := c.opts.budget()
	// The call's own timer, reused from its last operation: since Go 1.23 a
	// stopped or reset timer delivers no stale tick, so Reset is all a
	// recycled one needs.
	timer := call.timer
	if timer == nil {
		timer = time.NewTimer(timeout)
		call.timer = timer
	} else {
		timer.Reset(timeout)
	}
	defer timer.Stop()
	for cycle := 0; ; cycle++ {
		select {
		case rs := <-call.done:
			return rs, nil
		case <-timer.C:
			if cycle >= budget {
				if c.unregister(call) {
					return response{}, errTimeout
				}
				// A response landed between the timeout and the withdrawal —
				// take it.
				return <-call.done, nil
			}
			c.forceReconnect()
			timer.Reset(timeout)
		}
	}
}

// call runs one operation to completion under the retry policy: BUSY
// responses back off (honoring the server's hint) and resubmit. Whichever
// way send and awaitCall end, the call has left pending and nothing will
// send on it again, so it is released on every return.
func (c *MuxClient) call(req request.Request, ctrl byte) (response, error) {
	budget := c.opts.budget()
	mc := newCall(req, ctrl)
	defer callPool.Put(mc)
	for busy := 0; ; busy++ {
		if err := c.send(mc); err != nil {
			return response{}, err
		}
		rs, err := c.awaitCall(mc)
		if err != nil {
			return response{}, err
		}
		if rs.status == statusBusy && ctrl == 0 {
			if busy >= budget {
				return response{}, ErrBusy
			}
			backoffWait(time.Duration(rs.retryAfterMs)*time.Millisecond, busy)
			continue
		}
		return rs, nil
	}
}

// Submit sends one request over the multiplexed connection and blocks until
// its terminal outcome: the executed value, ErrAborted, ErrBusy (budget
// exhausted), ErrShuttingDown, or a transport error. Safe for concurrent
// use.
func (c *MuxClient) Submit(r request.Request) (int64, error) {
	rs, err := c.call(r, 0)
	if err != nil {
		return 0, err
	}
	return muxResult(rs)
}

func muxResult(rs response) (int64, error) {
	switch rs.status {
	case statusOK:
		return rs.value, nil
	case statusAborted:
		return 0, ErrAborted
	case statusBusy:
		return 0, ErrBusy
	case statusShutdown:
		return 0, ErrShuttingDown
	default:
		return 0, errors.New("netproto: server: " + rs.msg)
	}
}

// SubmitBatch submits many independent requests in one frame — the wire
// image of the scheduler loop's batch admission — and waits for all of their
// outcomes. BUSY outcomes are reported, not retried: batch callers manage
// their own pacing.
func (c *MuxClient) SubmitBatch(reqs []request.Request) ([]scheduler.Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	calls := make([]*muxCall, len(reqs))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, net.ErrClosed
	}
	if c.goingAway {
		c.mu.Unlock()
		return nil, ErrShuttingDown
	}
	buf := c.w.AvailableBuffer()
	at := len(buf)
	buf = binary.BigEndian.AppendUint32(startFrame(buf, frameBatch), uint32(len(reqs)))
	for i, r := range reqs {
		call := newCall(r, 0)
		call.corr = c.nextCorr
		c.nextCorr++
		c.pending[call.corr] = call
		calls[i] = call
		buf = appendReqBody(buf, call.corr, r)
	}
	if c.conn != nil {
		if t := c.opts.timeout(); t > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(t))
		}
		c.w.Write(endFrame(buf, at))
		c.flushLocked()
	}
	c.mu.Unlock()

	out := make([]scheduler.Result, len(reqs))
	for i, call := range calls {
		rs, err := c.awaitCall(call)
		callPool.Put(call)
		if err != nil {
			out[i] = scheduler.Result{Err: err}
			continue
		}
		v, err := muxResult(rs)
		out[i] = scheduler.Result{Value: v, Err: err}
	}
	return out, nil
}

// Ping round-trips a liveness probe.
func (c *MuxClient) Ping() error {
	_, err := c.call(request.Request{}, framePing)
	return err
}

// Stats round-trips the scheduler's consistent one-line summary.
func (c *MuxClient) Stats() (string, error) {
	rs, err := c.call(request.Request{}, frameStats)
	if err != nil {
		return "", err
	}
	return rs.msg, nil
}

// RunTransaction submits a whole transaction sequentially; it reports
// whether the transaction aborted (deadlock victim) and stops at the first
// failure.
func (c *MuxClient) RunTransaction(tx request.Transaction) (aborted bool, err error) {
	for _, r := range tx.Requests {
		if _, err := c.Submit(r); err != nil {
			if errors.Is(err, ErrAborted) {
				return true, nil
			}
			return false, err
		}
	}
	return false, nil
}
