package netproto

import (
	"bufio"
	"io"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// wireRequestAllocs bounds what one request's whole trip allocates: client
// encode, server read, middleware admission and delivery, reply encode,
// client read, and its share of the round it rides in. Nothing does: the
// wire path allocates nothing, and neither does a warm round, whose
// qualified set (FCFS's), plan steps and executed list are reused and whose
// short waits are the napper's. AllocsPerRun truncates to whole allocations
// per run of 2·wireClients requests, so one allocation per round fails.
const wireRequestAllocs = 0

// wireClients logical clients share the connection, and the fill trigger
// waits for all of them, so a round carries one request of each.
const wireClients = 4

// TestWireRoundTripAllocations pins the steady state of the multiplexed
// protocol: a request's trip over the wire, on both the client and the
// server, allocates nothing, so what a round trip costs is the round's own
// work. The protocol is imperative (no request rows) and the resubmit cache
// is on, as on the wire workloads.
func TestWireRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	srv := storage.NewServer(storage.Config{Rows: 1 << 10})
	engine, err := scheduler.NewEngine(scheduler.Config{
		Protocol:       &protocol.FCFS{},
		Server:         srv,
		ResubmitWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := scheduler.NewMiddleware(engine, scheduler.FillTrigger{Level: wireClients}, metrics.NewCollector())
	mw.Start()
	s, err := Listen("127.0.0.1:0", mw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialMux(s.Addr(), MuxOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
		mw.Stop()
	})

	// Each client runs one write-commit transaction per go signal; the
	// clients are started once, so a run allocates nothing of its own.
	var start, done [wireClients]chan struct{}
	var failed atomic.Value
	for i := range start {
		start[i], done[i] = make(chan struct{}), make(chan struct{})
		go func(i int) {
			for ta := int64(i + 1); ; ta += wireClients {
				if _, ok := <-start[i]; !ok {
					return
				}
				for _, r := range [...]request.Request{
					{TA: ta, IntraTA: 0, Op: request.Write, Object: ta % (1 << 10)},
					{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject},
				} {
					if _, err := c.Submit(r); err != nil {
						failed.Store(err)
					}
				}
				done[i] <- struct{}{}
			}
		}(i)
	}
	defer func() {
		for i := range start {
			close(start[i])
		}
	}()
	txns := func() {
		for i := range start {
			start[i] <- struct{}{}
		}
		for i := range done {
			<-done[i]
		}
	}
	for i := 0; i < 200; i++ {
		txns() // warm the maps, free lists, pools and the resubmit window
	}
	got := testing.AllocsPerRun(500, txns) / (2 * wireClients)
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
	if got > wireRequestAllocs {
		t.Fatalf("a request's round trip allocates %.2f times, want <= %d", got, wireRequestAllocs)
	}
	t.Logf("%.2f allocations per request", got)
}

// TestFrameCodecAllocatesNothing pins the three wire steps a request takes
// apart from the scheduler: the client encodes its frame into the
// connection's write buffer, the server encodes a reply into its writer's
// buffer, and a connection's reader reads a frame in place once its buffer
// is warm.
func TestFrameCodecAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := &MuxClient{w: bufio.NewWriterSize(io.Discard, frameChunk)}
	call := &muxCall{req: fuzzReq, corr: 9}
	if n := testing.AllocsPerRun(100, func() {
		c.writeCallLocked(call)
		c.w.Flush()
	}); n != 0 {
		t.Errorf("the client's frame encode allocates %.0f times, want 0", n)
	}

	w := bufio.NewWriterSize(io.Discard, frameChunk)
	rs := response{corr: 9, status: statusOK, value: 42}
	if n := testing.AllocsPerRun(100, func() {
		w.Write(appendReply(w.AvailableBuffer(), rs))
		w.Flush()
	}); n != 0 {
		t.Errorf("the server's reply encode allocates %.0f times, want 0", n)
	}

	fr := frameReader{br: bufio.NewReaderSize(&repeater{frame: appendReqFrame(nil, 9, fuzzReq)}, frameChunk)}
	if _, _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := fr.read(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a frame on a warm connection allocates %.0f times, want 0", n)
	}
}

// repeater is a connection that sends one frame over and over.
type repeater struct {
	frame []byte
	off   int
}

func (r *repeater) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.frame[r.off:])
		n += k
		r.off = (r.off + k) % len(r.frame)
	}
	return n, nil
}

// TestReplyValueStaysSmall: a connection's reply queue is allocated when the
// connection is accepted, with room for the inflight cap plus control
// frames, so the value it queues stays within 48 bytes.
func TestReplyValueStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(response{}); n > 48 {
		t.Errorf("response is %d bytes, want at most 48", n)
	}
}
