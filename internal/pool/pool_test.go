package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunRangeCoversExactly: every element of [0, n) is visited exactly once
// for a sweep of (n, tasks) combinations, including the boundary cases —
// tasks > n (clamped), tasks == n (singleton windows), uneven divisions
// (windows balanced to within one element) and n == 0 / tasks == 0 (no-op).
func TestRunRangeCoversExactly(t *testing.T) {
	p := New(3)
	defer p.Shutdown()
	for _, tc := range []struct{ n, tasks int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 3}, {7, 2}, {16, 5}, {100, 7}, {3, 0}, {3, -1},
	} {
		visits := make([]int32, tc.n)
		var calls int32
		var loSum, width [64]int32
		p.RunRange(tc.n, tc.tasks, func(task, lo, hi, worker int) {
			atomic.AddInt32(&calls, 1)
			if worker < 0 || worker >= p.Workers() {
				t.Errorf("n=%d tasks=%d: worker id %d out of range", tc.n, tc.tasks, worker)
			}
			atomic.StoreInt32(&loSum[task], int32(lo))
			atomic.StoreInt32(&width[task], int32(hi-lo))
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		wantCalls := tc.tasks
		if wantCalls > tc.n {
			wantCalls = tc.n
		}
		if wantCalls < 1 {
			wantCalls = 0 // tasks < 1 is a no-op
		}
		wantVisits := int32(1)
		if wantCalls == 0 {
			wantVisits = 0
		}
		for i, v := range visits {
			if v != wantVisits {
				t.Fatalf("n=%d tasks=%d: element %d visited %d times, want %d", tc.n, tc.tasks, i, v, wantVisits)
			}
		}
		if int(calls) != wantCalls {
			t.Fatalf("n=%d tasks=%d: %d calls, want %d", tc.n, tc.tasks, calls, wantCalls)
		}
		// Windows are contiguous, ordered by task index, balanced to within
		// one element.
		for task := 1; task < int(calls); task++ {
			if loSum[task] != loSum[task-1]+width[task-1] {
				t.Fatalf("n=%d tasks=%d: window %d not contiguous", tc.n, tc.tasks, task)
			}
		}
		if calls > 0 {
			minW, maxW := width[0], width[0]
			for task := 1; task < int(calls); task++ {
				if width[task] < minW {
					minW = width[task]
				}
				if width[task] > maxW {
					maxW = width[task]
				}
			}
			if maxW-minW > 1 {
				t.Fatalf("n=%d tasks=%d: window widths span %d..%d", tc.n, tc.tasks, minW, maxW)
			}
		}
	}
}

// TestRunRangeDeterministicMerge: chunk-ordered merge of per-task outputs is
// deterministic across repeated concurrent executions — the contract the ra
// operators' parallel paths rely on for reproducible row order.
func TestRunRangeDeterministicMerge(t *testing.T) {
	p := New(4)
	defer p.Shutdown()
	const n, tasks = 1000, 8
	var want []int
	for rep := 0; rep < 20; rep++ {
		outs := make([][]int, tasks)
		p.RunRange(n, tasks, func(task, lo, hi, _ int) {
			var buf []int
			for i := lo; i < hi; i++ {
				buf = append(buf, i*3)
			}
			outs[task] = buf
		})
		var merged []int
		for _, chunk := range outs {
			merged = append(merged, chunk...)
		}
		if rep == 0 {
			want = merged
			if len(want) != n {
				t.Fatalf("merged %d elements, want %d", len(want), n)
			}
			continue
		}
		for i := range want {
			if merged[i] != want[i] {
				t.Fatalf("rep %d: merge order diverged at %d", rep, i)
			}
		}
	}
}

// TestRunPerWorkerScratchUnshared: each worker id runs at most one task at a
// time, so per-worker scratch needs no locking; under -race this test also
// proves the claim.
func TestRunPerWorkerScratchUnshared(t *testing.T) {
	p := New(4)
	defer p.Shutdown()
	scratch := make([][]int, p.Workers())
	var total int64
	p.Run(64, func(task, worker int) {
		scratch[worker] = append(scratch[worker], task)
		atomic.AddInt64(&total, 1)
	})
	if total != 64 {
		t.Fatalf("ran %d tasks", total)
	}
	seen := 0
	for _, s := range scratch {
		seen += len(s)
	}
	if seen != 64 {
		t.Fatalf("scratch holds %d entries", seen)
	}
}

// TestConcurrentBatches: Run is safe to call from multiple goroutines (the
// shards' SQL protocols each own a pool today, but nothing in the type says
// so). -race guards the internals.
func TestConcurrentBatches(t *testing.T) {
	p := New(4)
	defer p.Shutdown()
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				p.Run(16, func(task, worker int) {
					atomic.AddInt64(&total, 1)
				})
			}
		}()
	}
	wg.Wait()
	if total != 6*10*16 {
		t.Fatalf("ran %d tasks, want %d", total, 6*10*16)
	}
}

// TestShutdownIdempotent: Shutdown may be called more than once (explicit
// teardown can precede the owner's GC cleanup).
func TestShutdownIdempotent(t *testing.T) {
	p := New(2)
	p.Run(4, func(task, worker int) {})
	p.Shutdown()
	p.Shutdown()
}

// TestReconfigureLifecycle: Reconfigure keeps the pool when the count is
// unchanged, returns nil for single-threaded counts, and builds a fresh pool
// (shutting the old one down) when the count changes.
func TestReconfigureLifecycle(t *testing.T) {
	type owner struct{ _ int }
	o := &owner{}
	p := Reconfigure(o, nil, 3)
	if p == nil || p.Workers() != 3 {
		t.Fatalf("fresh pool: %+v", p)
	}
	if q := Reconfigure(o, p, 3); q != p {
		t.Fatal("unchanged count did not keep the pool")
	}
	q := Reconfigure(o, p, 2)
	if q == p || q == nil || q.Workers() != 2 {
		t.Fatalf("changed count: %+v", q)
	}
	// The replaced pool is shut down; the new one still runs batches.
	ran := false
	q.Run(1, func(task, worker int) { ran = true })
	if !ran {
		t.Fatal("new pool did not run")
	}
	if r := Reconfigure(o, q, 1); r != nil {
		t.Fatal("n=1 should be single-threaded (nil pool)")
	}
	// n <= 0 selects GOMAXPROCS: a pool of that many workers, or nil on a
	// single-core configuration (single-threaded).
	r := Reconfigure(o, nil, 0)
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if r == nil || r.Workers() != procs {
			t.Fatalf("n<=0 should select %d workers, got %+v", procs, r)
		}
	} else if r != nil {
		t.Fatalf("n<=0 on a single-core box should be single-threaded, got %d workers", r.Workers())
	}
}
