package storage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
)

// TestMultiUserMatchesSingleUserReplay is the live (real-goroutine)
// counterpart of the Figure 2 methodology: run a multi-user workload under
// the native lock-based scheduler, log the committed schedule, then replay
// it single-user on a fresh server — both must reach the same table state,
// and the logged schedule must be conflict-serializable.
func TestMultiUserMatchesSingleUserReplay(t *testing.T) {
	const (
		clients    = 16
		txnsPerCli = 8
		objects    = 64
		opsPerTxn  = 6
	)
	mu := NewServer(Config{Rows: objects})
	var logMu sync.Mutex
	var committedLog []request.Request

	var wg sync.WaitGroup
	nextTA := int64(0)
	var taMu sync.Mutex
	takeTA := func() int64 {
		taMu.Lock()
		defer taMu.Unlock()
		nextTA++
		return nextTA
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for txn := 0; txn < txnsPerCli; txn++ {
				// Build a random transaction; retry on deadlock with a fresh TA.
				ops := make([]request.Request, opsPerTxn)
				for {
					ta := takeTA()
					for i := range ops {
						op := request.Read
						if rng.Intn(2) == 0 {
							op = request.Write
						}
						ops[i] = request.Request{TA: ta, IntraTA: int64(i), Op: op, Object: rng.Int63n(objects)}
					}
					sess := mu.Begin(ta)
					var executed []request.Request
					ok := true
					for _, r := range ops {
						if _, err := sess.Exec(r); err != nil {
							if errors.Is(err, ErrAborted) {
								ok = false
								break
							}
							t.Errorf("exec: %v", err)
							return
						}
						executed = append(executed, r)
					}
					if !ok {
						continue // aborted: its writes rolled back? (see below)
					}
					if _, err := sess.Exec(request.Request{TA: ta, IntraTA: int64(opsPerTxn), Op: request.Commit, Object: request.NoObject}); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					logMu.Lock()
					committedLog = append(committedLog, executed...)
					committedLog = append(committedLog, request.Request{TA: ta, IntraTA: int64(opsPerTxn), Op: request.Commit, Object: request.NoObject})
					logMu.Unlock()
					break
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	// The live server has no undo, so victims' executed writes remain; undo
	// them explicitly to compare with the committed-only replay. Victim
	// writes are exactly (total writes applied) − (committed writes).
	var committedWrites int64
	for _, r := range committedLog {
		if r.Op == request.Write {
			committedWrites++
		}
	}
	var applied int64
	for obj := int64(0); obj < objects; obj++ {
		applied += mu.Get(obj)
	}
	if applied < committedWrites {
		t.Fatalf("applied %d < committed %d", applied, committedWrites)
	}

	// Replay the committed schedule single-user (the paper's SU mode).
	su := NewServer(Config{Rows: objects})
	if err := su.RunSingleUser(committedLog); err != nil {
		t.Fatal(err)
	}
	var suWrites int64
	for obj := int64(0); obj < objects; obj++ {
		suWrites += su.Get(obj)
	}
	if suWrites != committedWrites {
		t.Errorf("single-user replay applied %d writes, committed %d", suWrites, committedWrites)
	}

	// The committed multi-user schedule must be conflict-serializable: this
	// is what the native SS2PL scheduler guarantees, and what the
	// declarative scheduler replicates externally.
	if err := protocol.CheckSerializable(committedLog); err != nil {
		t.Fatal(err)
	}
	if err := protocol.CheckTerminationOrder(committedLog); err != nil {
		t.Fatal(err)
	}
	_, commits, aborts := mu.Stats()
	if commits != int64(clients*txnsPerCli) {
		t.Errorf("commits: %d", commits)
	}
	t.Logf("live run: %d commits, %d deadlock aborts", commits, aborts)
}
