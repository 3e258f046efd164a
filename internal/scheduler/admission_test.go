package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestRejectedRequestLeavesNoTrace is the admission-control property test:
// under a tiny MaxQueued cap and heavy concurrent submission, a BUSY-rejected
// transaction must leave no trace — not in the pending store, not in the
// history log, not in the durable journal — and every submission must get
// exactly one answer (Submit returning is that answer; the accounting below
// proves each outcome is terminal and consistent). Runs at GOMAXPROCS 1 and
// 4, under -race in CI.
func TestRejectedRequestLeavesNoTrace(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			dir := t.TempDir()
			srv, err := storage.Open(storage.Config{Rows: 64, Durable: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(Config{
				Protocol:  protocol.SS2PLDatalog(),
				Server:    srv,
				KeepLog:   true,
				MaxQueued: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			mw := NewMiddleware(engine, HybridTrigger{Level: 4, Every: time.Millisecond}, metrics.NewCollector())
			mw.Start()

			// 32 submitters × sequential single-write transactions against a
			// queue capped at 8: a good fraction must bounce.
			const submitters, txnsPer = 32, 16
			var rejectedTAs sync.Map
			var committed, rejected, aborted atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for n := 0; n < txnsPer; n++ {
						ta := int64(1 + s*txnsPer + n)
						res := mw.Submit(request.Request{TA: ta, IntraTA: 0, Op: request.Write, Object: ta % 64})
						switch {
						case errors.Is(res.Err, ErrBusy):
							// Rejected before admission: nothing of this TA
							// may ever surface anywhere.
							rejectedTAs.Store(ta, true)
							rejected.Add(1)
							continue
						case errors.Is(res.Err, ErrTxnAborted):
							aborted.Add(1)
							continue
						case res.Err != nil:
							t.Errorf("ta %d write: %v", ta, res.Err)
							continue
						}
						res = mw.Submit(request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject})
						switch {
						case res.Err == nil:
							committed.Add(1)
						case errors.Is(res.Err, ErrTxnAborted):
							aborted.Add(1)
						case errors.Is(res.Err, ErrBusy):
							// Requests of admitted transactions always pass
							// admission.
							t.Errorf("ta %d: BUSY on an already-admitted transaction", ta)
						default:
							t.Errorf("ta %d commit: %v", ta, res.Err)
						}
					}
				}(s)
			}
			wg.Wait()

			if rejected.Load() == 0 {
				t.Error("no BUSY rejections under a queue cap of 8 — the property was not exercised")
			}
			// Exactly one outcome per transaction.
			if got := committed.Load() + rejected.Load() + aborted.Load(); got != submitters*txnsPer {
				t.Errorf("outcomes=%d, want %d (committed=%d rejected=%d aborted=%d)",
					got, submitters*txnsPer, committed.Load(), rejected.Load(), aborted.Load())
			}

			// No trace in pending or history.
			mw.Stop()
			for _, r := range engine.Shard(0).pending.Live() {
				if _, ok := rejectedTAs.Load(r.TA); ok {
					t.Errorf("rejected ta %d found in pending store", r.TA)
				}
			}
			for _, r := range engine.History().Log() {
				if _, ok := rejectedTAs.Load(r.TA); ok {
					t.Errorf("rejected ta %d found in history log", r.TA)
				}
			}

			// No trace in the journal: recover and check the committed set.
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := storage.Open(storage.Config{Rows: 64, Durable: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			for _, ta := range rec.RecoveredCommits() {
				if _, ok := rejectedTAs.Load(ta); ok {
					t.Errorf("rejected ta %d found committed in the journal", ta)
				}
			}
		})
	}
}

// TestColdStartRetryAfter pins the cold-start admission contract: before any
// round has completed, roundEWMA is zero, and a BUSY rejection must still
// carry a floored retry hint — not zero, which would invite a tight retry
// stampede from the very burst that filled the queue. The first completed
// round must then seed the EWMA with its full sample instead of warming up
// from zero (an eighth per round), so the hint reflects real round time
// immediately.
func TestColdStartRetryAfter(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	engine, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, HybridTrigger{Level: 1, Every: time.Millisecond}, metrics.NewCollector())
	// Not started: no round can have completed, the true cold start.
	if got := mw.roundEWMA.Load(); got != 0 {
		t.Fatalf("roundEWMA before any round = %d, want 0", got)
	}
	if d := mw.retryAfter(); d < minRetryAfter {
		t.Errorf("cold-start retryAfter = %s, want >= %s", d, minRetryAfter)
	}

	// Fill the queue to the cap by hand (the counter is what admission reads)
	// and verify a cold-start rejection carries the floored hint end to end.
	mw.queued.Store(1)
	err = mw.admission(request.Request{TA: 7, Op: request.Write, Object: 1})
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("cold-start overflow error = %v, want BusyError", err)
	}
	if be.RetryAfter < minRetryAfter || be.RetryAfter > time.Second {
		t.Errorf("cold-start RetryAfter = %s, want within [%s, 1s]", be.RetryAfter, minRetryAfter)
	}
	mw.queued.Store(0)

	// First observed round seeds the EWMA with the full sample.
	mw.observeRound(metrics.RoundStats{Duration: 2 * time.Millisecond, Total: 8 * time.Millisecond})
	if got := time.Duration(mw.roundEWMA.Load()); got != 8*time.Millisecond {
		t.Errorf("roundEWMA after first round = %s, want seeded to 8ms", got)
	}
	if got := time.Duration(mw.qualEWMA.Load()); got != 2*time.Millisecond {
		t.Errorf("qualEWMA after first round = %s, want seeded to 2ms", got)
	}
	// Later rounds blend at weight 1/8.
	mw.observeRound(metrics.RoundStats{Duration: 2 * time.Millisecond, Total: 16 * time.Millisecond})
	if got := time.Duration(mw.roundEWMA.Load()); got != 9*time.Millisecond {
		t.Errorf("roundEWMA after second round = %s, want 8ms + (16ms-8ms)/8 = 9ms", got)
	}
}

// TestBusyErrorCarriesRetryAfter pins the rejection contract: the error
// matches ErrBusy via errors.Is and carries a positive, bounded retry hint.
func TestBusyErrorCarriesRetryAfter(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	engine, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, HybridTrigger{Level: 1, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	defer mw.Stop()

	// TA 1 takes the write lock on object 1 and stays open; TA 2's write on
	// the same object admits but blocks — the queue (cap 1) is now full.
	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	blocked := make(chan Result, 1)
	go func() { blocked <- mw.Submit(request.Request{TA: 2, Op: request.Write, Object: 1}) }()
	deadline := time.Now().Add(2 * time.Second)
	for mw.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked submission never queued")
		}
		time.Sleep(time.Millisecond)
	}

	res := mw.Submit(request.Request{TA: 3, Op: request.Write, Object: 2})
	if !errors.Is(res.Err, ErrBusy) {
		t.Fatalf("overflow error = %v, want ErrBusy", res.Err)
	}
	var be *BusyError
	if !errors.As(res.Err, &be) {
		t.Fatalf("overflow error %T does not carry a BusyError", res.Err)
	}
	if be.RetryAfter < time.Millisecond || be.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %s, want within [1ms, 1s]", be.RetryAfter)
	}

	// Unblock and settle: TA 1 commits, TA 2's write then executes.
	if res := mw.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-blocked; res.Err != nil && !errors.Is(res.Err, ErrTxnAborted) {
		t.Fatalf("blocked write settled with %v", res.Err)
	}
}

// TestShedLowPriorityFirst pins graceful degradation: with qualify latency
// over budget, priority-0 transactions shed while premium ones still admit;
// over twice the budget everything new sheds, but requests of admitted
// transactions keep flowing.
func TestShedLowPriorityFirst(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	engine, err := NewEngine(Config{
		Protocol:          protocol.SS2PLDatalog(),
		Server:            srv,
		ShedLatencyBudget: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, HybridTrigger{Level: 1, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	defer mw.Stop()

	// Admit a premium transaction while the EWMA is calm.
	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 1, Priority: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}

	// Push the qualify EWMA past the budget (the round loop is the only
	// writer once Stop is called, but here we simulate pressure directly —
	// the EWMA is an atomic read on the admission path).
	mw.qualEWMA.Store(int64(15 * time.Millisecond))
	if res := mw.Submit(request.Request{TA: 2, Op: request.Write, Object: 2, Priority: 0}); !errors.Is(res.Err, ErrBusy) {
		t.Errorf("low-priority admission over budget = %v, want ErrBusy", res.Err)
	}
	mw.qualEWMA.Store(int64(15 * time.Millisecond))
	if res := mw.Submit(request.Request{TA: 3, Op: request.Write, Object: 3, Priority: 2}); res.Err != nil {
		t.Errorf("premium admission over budget = %v, want admitted", res.Err)
	}

	// Past twice the budget: everything new sheds; the admitted premium
	// transaction still terminates.
	mw.qualEWMA.Store(int64(25 * time.Millisecond))
	if res := mw.Submit(request.Request{TA: 4, Op: request.Write, Object: 4, Priority: 5}); !errors.Is(res.Err, ErrBusy) {
		t.Errorf("admission over 2x budget = %v, want ErrBusy", res.Err)
	}
	mw.qualEWMA.Store(int64(25 * time.Millisecond))
	if res := mw.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
		t.Errorf("admitted transaction's commit under shedding = %v, want executed", res.Err)
	}
}

// TestDrainRejectsNewFinishesAdmitted pins the graceful-drain contract.
func TestDrainRejectsNewFinishesAdmitted(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	engine, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, HybridTrigger{Level: 4, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()

	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	mw.BeginDrain()
	if res := mw.Submit(request.Request{TA: 2, Op: request.Write, Object: 2}); !errors.Is(res.Err, ErrShuttingDown) {
		t.Errorf("new transaction during drain = %v, want ErrShuttingDown", res.Err)
	}
	// The admitted transaction runs to termination through the drain.
	if res := mw.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
		t.Errorf("admitted transaction's commit during drain = %v", res.Err)
	}
	mw.DrainAndStop(time.Second)
	if got := srv.Get(1); got != 1 {
		t.Errorf("row 1 = %d after drain, want 1", got)
	}
}

// TestResubmitCacheWindow pins the idempotent-resubmit contract: an executed
// request's resubmission returns the recorded result without executing
// twice, and terminal outcomes stay visible for ResubmitWindow transactions.
func TestResubmitCacheWindow(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 16})
	engine, err := NewEngine(Config{
		Protocol:       protocol.SS2PLDatalog(),
		Server:         srv,
		ResubmitWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, HybridTrigger{Level: 1, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	defer mw.Stop()

	// Execute a write, then resubmit the same key: one execution.
	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 5}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 5}); res.Err != nil {
		t.Fatalf("resubmit of executed write: %v", res.Err)
	}
	if got := srv.Get(5); got != 1 {
		t.Fatalf("row 5 = %d after duplicate submit, want 1 (no double execution)", got)
	}
	// Commit, then resubmit the commit: cached terminal outcome.
	if res := mw.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := mw.Submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
		t.Fatalf("resubmit of commit: %v", res.Err)
	}
	// A resubmitted non-termination request of a committed transaction is
	// answered with ErrTxnFinished, never re-executed.
	if res := mw.Submit(request.Request{TA: 1, Op: request.Write, Object: 5}); !errors.Is(res.Err, ErrTxnFinished) {
		t.Fatalf("write of finished txn = %v, want ErrTxnFinished", res.Err)
	}
	if got := srv.Get(5); got != 1 {
		t.Fatalf("row 5 = %d, want 1", got)
	}

	if _, op, ok := mw.TerminalOutcome(1); !ok || op != request.Commit {
		t.Errorf("TerminalOutcome(1) = %v ok=%v, want Commit", op, ok)
	}
	// Push TA 1 out of the 4-entry window.
	for ta := int64(2); ta <= 6; ta++ {
		if res := mw.Submit(request.Request{TA: ta, Op: request.Write, Object: ta}); res.Err != nil {
			t.Fatal(res.Err)
		}
		if res := mw.Submit(request.Request{TA: ta, IntraTA: 1, Op: request.Commit, Object: request.NoObject}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, _, ok := mw.TerminalOutcome(1); ok {
		t.Error("TerminalOutcome(1) still recorded after window eviction")
	}
}
