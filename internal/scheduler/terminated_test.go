package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestTerminatedRecordMatchesMap drives the record of terminated
// transactions and a map side by side with ids from dense ranges (each
// terminating in random order), sparse ids and negative ids, and requires
// the same answer for every id added and for random probes after each step.
func TestTerminatedRecordMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for run := 0; run < 40; run++ {
		var s terminatedSet
		model := map[int64]bool{}
		bases := []int64{0, 1 << 40, -1 << 20, int64(rng.Intn(1 << 30))}
		span := int64(64 * (1 + rng.Intn(200)))
		check := func(ta int64) {
			t.Helper()
			if got := s.has(ta); got != model[ta] {
				t.Fatalf("run %d: has(%d) = %v, model %v", run, ta, got, model[ta])
			}
		}
		for step := 0; step < 3000; step++ {
			var ta int64
			switch rng.Intn(8) {
			case 0:
				ta = rng.Int63() - rng.Int63()
			default:
				ta = bases[rng.Intn(len(bases))] + rng.Int63n(span)
			}
			s.add(ta)
			model[ta] = true
			check(ta)
			for p := 0; p < 4; p++ {
				check(bases[rng.Intn(len(bases))] + rng.Int63n(span+128) - 64)
			}
		}
		for i := 1; i < len(s.runs); i++ {
			if s.runs[i-1].hi >= s.runs[i].lo {
				t.Fatalf("run %d: runs %v and %v overlap or touch", run, s.runs[i-1], s.runs[i])
			}
		}
		for ta := range model {
			check(ta)
		}
	}
}

// TestTerminatedRecordStaysBounded drives the record the way the front end
// does under a large closed loop: 200,000 dense transaction ids and 10,000
// retry ids counted up from 2^40, at most 3,000 live at once, terminating in
// random order. The record must hold one word per 64-id block that still
// holds a live or unused id, so its entries follow the live transactions,
// not the terminated ones; and its runs must stay a handful, so a
// termination, which at worst inserts into or deletes from the run slice,
// copies nothing proportional to the live span.
func TestTerminatedRecordStaysBounded(t *testing.T) {
	const (
		dense   = 200_000
		retries = 10_000
		maxLive = 3_000
	)
	rng := rand.New(rand.NewSource(7))
	var s terminatedSet
	nextDense, nextRetry := int64(1), int64(1<<40)
	var live []int64
	liveBlocks := map[int64]int{} // live ids per 64-id block
	maxEntries, maxRuns, maxLiveBlocks := 0, 0, 0
	for nextDense <= dense || nextRetry < 1<<40+retries || len(live) > 0 {
		for len(live) < maxLive && (nextDense <= dense || nextRetry < 1<<40+retries) {
			var ta int64
			if nextRetry < 1<<40+retries && (nextDense > dense || rng.Intn(20) == 0) {
				ta, nextRetry = nextRetry, nextRetry+1
			} else {
				ta, nextDense = nextDense, nextDense+1
			}
			live = append(live, ta)
			liveBlocks[ta>>6]++
		}
		i := rng.Intn(len(live))
		ta := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if liveBlocks[ta>>6]--; liveBlocks[ta>>6] == 0 {
			delete(liveBlocks, ta>>6)
		}
		if s.has(ta) {
			t.Fatalf("ta%d reads terminated while live", ta)
		}
		s.add(ta)
		if !s.has(ta) {
			t.Fatalf("ta%d does not read terminated after add", ta)
		}
		// Beside the blocks holding a live id, only block 0 (id 0 is never
		// used) and each counter's current block may hold a word.
		if len(s.partial) > len(liveBlocks)+3 {
			t.Fatalf("%d block words for %d blocks holding a live id", len(s.partial), len(liveBlocks))
		}
		maxEntries = max(maxEntries, len(s.partial)+len(s.runs))
		maxRuns = max(maxRuns, len(s.runs))
		maxLiveBlocks = max(maxLiveBlocks, len(liveBlocks))
	}
	if maxRuns > 2 {
		t.Errorf("the record held up to %d runs, want at most 2 (one per id range)", maxRuns)
	}
	if maxEntries > maxLive {
		t.Errorf("the record held up to %d entries for at most %d live transactions", maxEntries, maxLive)
	}
	if len(s.partial) > 3 || len(s.runs) != 2 {
		t.Errorf("after every id terminated: %d block words (want at most block 0's and each counter's last) and runs %v", len(s.partial), s.runs)
	}
	for _, ta := range []int64{1, dense, 1 << 40, 1<<40 + retries - 1} {
		if !s.has(ta) {
			t.Errorf("ta%d terminated but not recorded", ta)
		}
	}
	for _, ta := range []int64{0, dense + 1, 1<<40 - 1, 1<<40 + retries, -1} {
		if s.has(ta) {
			t.Errorf("ta%d never ran but reads terminated", ta)
		}
	}
	t.Logf("at most %d entries (%d runs) with up to %d blocks holding a live id", maxEntries, maxRuns, maxLiveBlocks)
}

// refusalCase is one SS2PL text on one shard count.
type refusalCase struct {
	name  string
	proto func() protocol.Protocol
	parts int
}

var refusalCases = []refusalCase{
	{"ss2pl-datalog/parts=1", func() protocol.Protocol { return protocol.SS2PLDatalog() }, 1},
	{"ss2pl-datalog/parts=4", func() protocol.Protocol { return protocol.SS2PLDatalog() }, 4},
	{"listing1/parts=1", func() protocol.Protocol { return protocol.SS2PLSQL() }, 1},
	{"listing1/parts=4", func() protocol.Protocol { return protocol.SS2PLSQL() }, 4},
}

// startRefusalCase starts a middleware (resubmit window 0, the embedded
// default) over c's engine and returns it with two objects that route to
// different shards when there is more than one, so a transaction writing
// both terminates across partitions.
func startRefusalCase(t *testing.T, c refusalCase) (*Middleware, *Engine, *storage.Server, [2]int64) {
	t.Helper()
	srv := storage.NewServer(storage.Config{Rows: 64})
	e, err := NewPartitionedEngine(PartitionedConfig{
		Base: Config{Server: srv, KeepLog: true}, Partitions: c.parts, Factory: c.proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := int64(3), int64(4)
	for c.parts > 1 && e.Directory().ForObject(b) == e.Directory().ForObject(a) {
		b++
	}
	mw := NewMiddleware(e, HybridTrigger{Level: 1, Every: time.Millisecond}, nil)
	mw.Start()
	return mw, e, srv, [2]int64{a, b}
}

// submitWithin submits r and fails the test when no answer comes within 5 s.
func submitWithin(t *testing.T, mw *Middleware, r request.Request) Result {
	t.Helper()
	done := make(chan Result, 1)
	go func() { done <- mw.Submit(r) }()
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatalf("%v is still waiting after 5 s", r)
		return Result{}
	}
}

// mustSubmit is submitWithin for a request that must succeed.
func mustSubmit(t *testing.T, mw *Middleware, r request.Request) Result {
	t.Helper()
	res := submitWithin(t, mw, r)
	if res.Err != nil {
		t.Fatalf("%v: %v", r, res.Err)
	}
	return res
}

// awaitReply waits up to 5 s for the one answer a SubmitTo target gets.
func awaitReply(t *testing.T, what string, c <-chan Result) Result {
	t.Helper()
	select {
	case res := <-c:
		return res
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still unanswered after 5 s", what)
		return Result{}
	}
}

func write(ta, intra, obj int64) request.Request {
	return request.Request{TA: ta, IntraTA: intra, Op: request.Write, Object: obj}
}

func term(ta, intra int64, op request.Op) request.Request {
	return request.Request{TA: ta, IntraTA: intra, Op: op, Object: request.NoObject}
}

// checkEnded requires each object at its wanted value, an execution log in
// which no request follows its transaction's termination, and no history
// row left.
func checkEnded(t *testing.T, e *Engine, srv *storage.Server, objs, want [2]int64) {
	t.Helper()
	for i, o := range objs {
		if got := srv.Get(o); got != want[i] {
			t.Errorf("object %d = %d, want %d", o, got, want[i])
		}
	}
	if err := protocol.CheckTerminationOrder(e.MergedLog()); err != nil {
		t.Error(err)
	}
	for s := 0; s < e.Partitions(); s++ {
		if n := e.Shard(s).History().Len(); n != 0 {
			t.Errorf("shard %d keeps %d history rows after every transaction ended: %v", s, n, e.Shard(s).History().Live())
		}
	}
}

var terminations = []struct {
	name string
	op   request.Op
	// kept is what each object holds after ta1 writes it once, ends this
	// way, and ta2 writes it once and commits.
	kept int64
}{{"commit", request.Commit, 2}, {"abort", request.Abort, 1}}

// TestLateRequestOfTerminatedTxnIsRefused is the late route of defect 5: a
// request submitted after its transaction's commit or abort executed is
// refused with ErrTxnFinished, whatever the resubmit window (0 here), and
// never executes — so it holds no lock, and another transaction's writes
// of the same objects run at once.
func TestLateRequestOfTerminatedTxnIsRefused(t *testing.T) {
	for _, c := range refusalCases {
		for _, end := range terminations {
			t.Run(c.name+"/"+end.name, func(t *testing.T) {
				mw, e, srv, obj := startRefusalCase(t, c)
				mustSubmit(t, mw, write(1, 0, obj[0]))
				mustSubmit(t, mw, write(1, 1, obj[1]))
				mustSubmit(t, mw, term(1, 2, end.op))
				for _, r := range []request.Request{write(1, 3, obj[0]), write(1, 4, obj[1]), term(1, 5, request.Commit), term(1, 2, end.op)} {
					if res := submitWithin(t, mw, r); !errors.Is(res.Err, ErrTxnFinished) {
						t.Fatalf("late %v = %+v, want ErrTxnFinished", r, res)
					}
				}
				mustSubmit(t, mw, write(2, 0, obj[0]))
				mustSubmit(t, mw, write(2, 1, obj[1]))
				mustSubmit(t, mw, term(2, 2, request.Commit))
				mw.Stop()
				checkEnded(t, e, srv, obj, [2]int64{end.kept, end.kept})
			})
		}
	}
}

// TestTerminationOvertakingItsRequestsIsRefused is the overtaking route of
// defect 5: a commit or abort submitted while a request of its transaction
// waits for a lock is refused with ErrTxnInFlight instead of running first
// (terminations carry no object, so SS2PL never blocks one). The waiting
// request still runs once the lock frees, and the termination, submitted
// again after its answer, ends the transaction.
func TestTerminationOvertakingItsRequestsIsRefused(t *testing.T) {
	for _, c := range refusalCases {
		for _, end := range terminations {
			t.Run(c.name+"/"+end.name, func(t *testing.T) {
				mw, e, srv, obj := startRefusalCase(t, c)
				mustSubmit(t, mw, write(1, 0, obj[0]))
				mustSubmit(t, mw, write(2, 0, obj[1]))
				waiting := make(chan Result, 1)
				if err := mw.SubmitTo(write(2, 1, obj[0]), replierFunc(func(_ uint64, res Result) { waiting <- res }), 0); err != nil {
					t.Fatal(err)
				}
				if res := submitWithin(t, mw, term(2, 2, end.op)); !errors.Is(res.Err, ErrTxnInFlight) {
					t.Fatalf("ta2's %s ahead of its waiting write = %+v, want ErrTxnInFlight", end.name, res)
				}
				select {
				case res := <-waiting:
					t.Fatalf("ta2's write answered %+v while ta1 holds its lock", res)
				default:
				}
				mustSubmit(t, mw, term(1, 1, request.Commit))
				if res := awaitReply(t, "ta2's write", waiting); res.Err != nil || res.Value != 2 {
					t.Fatalf("ta2's write = %+v, want value 2 (after ta1's write)", res)
				}
				mustSubmit(t, mw, term(2, 2, end.op))
				mw.Stop()
				// ta1's commit keeps its write of obj[0]; ta2's ending decides
				// both of its own.
				want := [2]int64{1, 0}
				if end.op == request.Commit {
					want = [2]int64{2, 1}
				}
				checkEnded(t, e, srv, obj, want)
			})
		}
	}
}

// hookedProtocol runs hook once, on the round loop, right after the first
// qualification that finds it set: inside a round, after the round drained
// its admission queues and before the front end hears of its victims.
type hookedProtocol struct {
	*protocol.DatalogProtocol
	hook atomic.Pointer[func()]
}

func (p *hookedProtocol) QualifyIncremental(pending, history []request.Request, d protocol.Deltas) ([]request.Request, error) {
	q, err := p.DatalogProtocol.QualifyIncremental(pending, history, d)
	if h := p.hook.Swap(nil); h != nil {
		(*h)()
	}
	return q, err
}

// TestWoundedTxnsQueuedRequestIsRefused is the wound route of defect 5: a
// client sends its transaction's next request, one at a time after the
// previous answer, while the round that wounds the transaction runs. The
// request is registered and queued before the front end hears of the
// wound; it must be answered ErrTxnAborted and never execute — neither a
// write, nor a commit or an abort after the victim's abort. In the "idle"
// case the client sends nothing until the read that wounds it is answered:
// its next request hears of the abort, and every later one is refused as
// finished.
func TestWoundedTxnsQueuedRequestIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		next   request.Request
		hooked bool
	}{
		{"write", write(5, 1, 8), true},
		{"commit", term(5, 1, request.Commit), true},
		{"abort", term(5, 1, request.Abort), true},
		{"idle", write(5, 1, 8), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := storage.NewServer(storage.Config{Rows: 16})
			proto := &hookedProtocol{DatalogProtocol: protocol.WoundWaitDatalog()}
			e, err := NewEngine(Config{Protocol: proto, Server: srv, KeepLog: true})
			if err != nil {
				t.Fatal(err)
			}
			mw := NewMiddleware(e, HybridTrigger{Level: 1, Every: time.Millisecond}, nil)
			mw.Start()
			// The younger ta5 takes object 7's write lock.
			mustSubmit(t, mw, write(5, 0, 7))
			queued := make(chan Result, 1)
			sendNext := func() {
				if err := mw.SubmitTo(tc.next, replierFunc(func(_ uint64, res Result) { queued <- res }), 0); err != nil {
					queued <- Result{Err: fmt.Errorf("SubmitTo: %w", err)}
				}
			}
			if tc.hooked {
				proto.hook.Store(&sendNext)
			}
			// The older ta2 reads object 7: the round that admits the read
			// wounds ta5 and rolls its write back, and ta5's next request
			// arrives while that round runs.
			if res := mustSubmit(t, mw, request.Request{TA: 2, Op: request.Read, Object: 7}); res.Value != 0 {
				t.Fatalf("ta2 read %d, want 0 (ta5's write rolled back)", res.Value)
			}
			if !tc.hooked {
				sendNext()
			}
			if res := awaitReply(t, "ta5's next request", queued); !errors.Is(res.Err, ErrTxnAborted) {
				t.Fatalf("ta5's %v after its wound = %+v, want ErrTxnAborted", tc.next, res)
			}
			if !tc.hooked {
				if res := submitWithin(t, mw, term(5, 2, request.Commit)); !errors.Is(res.Err, ErrTxnFinished) {
					t.Fatalf("the wounded ta5's commit after it heard of the abort = %+v, want ErrTxnFinished", res)
				}
			}
			mustSubmit(t, mw, term(2, 1, request.Commit))
			mw.Stop()
			for _, o := range []int64{7, 8} {
				if got := srv.Get(o); got != 0 {
					t.Errorf("object %d = %d, want 0 (every write of ta5 undone or never run)", o, got)
				}
			}
			if err := protocol.CheckTerminationOrder(e.History().Log()); err != nil {
				t.Error(err)
			}
			if q, p, h := e.QueueLen(), e.PendingLen(), e.History().Len(); q+p+h != 0 {
				t.Errorf("%d queued, %d pending, %d history rows left", q, p, h)
			}
			if n := mw.Queued(); n != 0 {
				t.Errorf("%d submissions still counted unanswered", n)
			}
			mw.mu.Lock()
			untold := len(mw.untold)
			mw.mu.Unlock()
			if untold != 0 {
				t.Errorf("%d victims still wait to hear of their abort", untold)
			}
		})
	}
}
