// Package pool provides the persistent worker pool of the parallel
// evaluator: the relational-algebra operators behind the mini-SQL executor
// fan their large passes out over it. A Pool is a fixed set of
// goroutines fed from one channel; batches block the submitting goroutine
// until every task of the batch has finished, so the callers' single-threaded
// round structure is preserved — only the inside of one evaluation pass runs
// concurrently.
package pool

import (
	"runtime"
	"sync"
)

// Pool is a persistent set of worker goroutines executing batches of tasks.
// Workers are spawned lazily on the first batch and exit on Shutdown (owners
// that have no Close hook can arrange a runtime.AddCleanup). The zero value
// is not usable; create pools with New.
type Pool struct {
	workers  int
	jobs     chan job
	stop     chan struct{}
	once     sync.Once
	stopOnce sync.Once
}

type job struct {
	run func(worker int)
	wg  *sync.WaitGroup
}

// New creates a pool of n workers (n <= 0 selects GOMAXPROCS).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: n,
		jobs:    make(chan job, 4*n),
		stop:    make(chan struct{}),
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) start() {
	p.once.Do(func() {
		for i := 0; i < p.workers; i++ {
			go p.worker(i)
		}
	})
}

func (p *Pool) worker(id int) {
	for {
		select {
		case j := <-p.jobs:
			j.run(id)
			j.wg.Done()
		case <-p.stop:
			return
		}
	}
}

// Shutdown stops the workers; safe to call more than once (an explicit
// teardown can precede an owner's GC cleanup).
func (p *Pool) Shutdown() { p.stopOnce.Do(func() { close(p.stop) }) }

// Run executes n tasks on the pool and blocks until all complete. fn receives
// the task index and the worker id (0 <= worker < Workers()); each worker id
// runs at most one task at a time, so per-worker scratch state needs no
// locking.
func (p *Pool) Run(n int, fn func(task, worker int)) {
	p.start()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- job{run: func(w int) { fn(i, w) }, wg: &wg}
	}
	wg.Wait()
}

// Reconfigure implements the SetParallelism lifecycle shared by every pool
// owner (the SQL protocol): it resolves n (n <= 0
// selects GOMAXPROCS), shuts old down when the worker count changes, and
// returns the pool for the new count — old itself when unchanged, nil for
// single-threaded, or a fresh pool whose goroutines are shut down when
// owner becomes unreachable (owners have no Close hook).
func Reconfigure[T any](owner *T, old *Pool, n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if old != nil {
		if old.Workers() == n {
			return old
		}
		old.Shutdown()
	}
	if n <= 1 {
		return nil
	}
	p := New(n)
	runtime.AddCleanup(owner, func(pl *Pool) { pl.Shutdown() }, p)
	return p
}

// RunRange splits the half-open range [0, n) into tasks contiguous windows
// and executes fn(task, lo, hi, worker) for each on the pool, blocking until
// all complete. tasks is clamped to n; the windows are balanced to within
// one element. The shared chunk arithmetic of every range-partitioned pass
// (row loops, probe batches).
func (p *Pool) RunRange(n, tasks int, fn func(task, lo, hi, worker int)) {
	if tasks > n {
		tasks = n
	}
	if tasks < 1 {
		return
	}
	p.Run(tasks, func(task, worker int) {
		fn(task, task*n/tasks, (task+1)*n/tasks, worker)
	})
}
