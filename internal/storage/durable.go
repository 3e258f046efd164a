// Durable storage mode: the glue between the volatile table, the
// write-ahead journal and the checkpoint page file.
//
// Durable truth is the pair (pages, journal): `committed` mirrors the table
// state produced by terminated transactions only, and `inflight` holds the
// outstanding writes of active ones. Both are maintained incrementally
// under one mutex as records are journaled, so a checkpoint can snapshot
// them at an exact LSN boundary at any moment — mid-round, mid-batch,
// between a write and its commit — without asking the scheduler anything.
// The scheduler's history-store GC merely *triggers* checkpoints
// (MaybeCheckpoint), it does not define their content.
//
// Recovery invariant (winners-only, termination-gated): a transaction's
// writes survive a crash if and only if its commit record is in the
// journal's valid prefix (or it committed before the last checkpoint). An
// aborted transaction contributes nothing — its writes, failed writes and
// undo compensations are all skipped — so "no resurrected aborts" holds
// structurally, whatever interleaving the crash cut through.
//
// Cross-shard commit ordering: under the partitioned engine, per-shard
// executors journal concurrently, so transaction T's commit (home shard)
// could reach the journal before T's write executed by another shard — a
// crash between the two would ack a commit and lose one of its writes. The
// commit gate closes this: the scheduler tells the server how many writes T
// has in (global) history before executing T's commit (ExpectWrites), and
// commitTA blocks until that many of T's write records are journaled. The
// wait always terminates: the awaited writes belong to strictly earlier
// rounds, which precede the waiting commit in every shard's FIFO executor.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/request"
)

const (
	defaultSyncEvery       = 1
	defaultCheckpointEvery = 1 << 20 // journal bytes between GC-triggered checkpoints

	// commitGateTimeout bounds the commit gate's wait: if the expected write
	// records never arrive (an executor died), the commit fails instead of
	// wedging the shard forever.
	commitGateTimeout = 10 * time.Second
)

// durableState is the durable half of a Server. All fields are guarded by
// mu; gate is signalled whenever a write record is journaled or the journal
// dies, waking commit gates.
type durableState struct {
	mu   sync.Mutex
	gate sync.Cond

	j   *journal
	dir string
	met *metrics.Durability

	committed []int64
	inflight  map[int64][]inflightWrite
	expect    map[int64]int
	// freeWrites holds the emptied write lists of terminated transactions
	// (dropTA), for the next transactions noteWrite files.
	freeWrites [][]inflightWrite

	syncEvery      int
	commitBatches  int // commit-carrying batches since the last fsync
	batchHadCommit bool

	ckptEvery  int64
	lastCkptAt int64 // j.appended at the last checkpoint

	commits, aborts int64   // durable totals, persisted in the meta page
	winners         []int64 // TAs replayed as committed by the last recovery
}

func newDurableState(j *journal, dir string, met *metrics.Durability, committed []int64, cfg Config) *durableState {
	d := &durableState{
		j: j, dir: dir, met: met,
		committed: committed,
		inflight:  make(map[int64][]inflightWrite),
		expect:    make(map[int64]int),
		syncEvery: cfg.SyncEvery,
		ckptEvery: cfg.CheckpointEvery,
	}
	if d.syncEvery <= 0 {
		d.syncEvery = defaultSyncEvery
	}
	if d.ckptEvery <= 0 {
		d.ckptEvery = defaultCheckpointEvery
	}
	d.gate.L = &d.mu
	return d
}

// Open creates a server from a config: volatile when !cfg.Durable, and
// otherwise a durable server over cfg.Dir — recovering the directory's
// journal and checkpoint when they exist, creating them when they don't.
func Open(cfg Config) (*Server, error) {
	if !cfg.Durable {
		return NewServer(cfg), nil
	}
	if cfg.Dir == "" {
		return nil, errors.New("storage: durable mode needs Config.Dir")
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, journalFileName)); err == nil {
		return recoverDir(cfg)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	met := &metrics.Durability{}
	j, err := createJournal(cfg.Dir, 1, int64(cfg.Rows), met)
	if err != nil {
		return nil, err
	}
	j.crashAt = cfg.CrashAt
	s := &Server{
		cfg:   cfg,
		locks: lock.NewManager(),
		table: make([]atomic.Int64, cfg.Rows),
	}
	s.dur = newDurableState(j, cfg.Dir, met, make([]int64, cfg.Rows), cfg)
	return s, nil
}

// Recover opens an existing durable directory, replaying the journal tail
// over the last checkpoint. It fails if the directory holds no journal
// (unlike Open, which would create one).
func Recover(dir string) (*Server, error) {
	if _, err := os.Stat(filepath.Join(dir, journalFileName)); err != nil {
		return nil, fmt.Errorf("storage: recover %s: %w", dir, err)
	}
	return Open(Config{Durable: true, Dir: dir})
}

// recoverDir rebuilds committed state from (pages, journal): load the
// checkpoint image, scan the journal's valid prefix, and replay the writes
// of winners — transactions whose commit record is at or above the
// checkpoint's base LSN. It finishes with a fresh checkpoint, so stale
// records cannot outlive the recovery that judged them (a reused
// transaction ID must not resurrect a dead incarnation's writes) and a
// second recovery replays only the empty tail.
func recoverDir(cfg Config) (*Server, error) {
	start := time.Now()
	met := &metrics.Durability{}

	jpath := filepath.Join(cfg.Dir, journalFileName)
	baseLSN, rows, recs, _, torn, err := scanJournal(jpath)
	if err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("storage: recover: journal header claims %d rows", rows)
	}
	img, err := readPages(cfg.Dir, rows)
	havePages := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if cfg.Rows != 0 && int64(cfg.Rows) != rows {
		return nil, fmt.Errorf("storage: recover: directory has %d rows, config wants %d", rows, cfg.Rows)
	}
	cfg.Rows = int(rows)

	committed := make([]int64, rows)
	att := map[int64][]inflightWrite{}
	var commits, aborts, replayFloor int64
	if havePages {
		committed = img.committed
		att = img.att
		commits, aborts = img.commits, img.aborts
		// A crash between the checkpoint's two renames can leave a journal
		// older than the page file: records already folded into pages must
		// not replay twice.
		replayFloor = img.baseLSN
	}

	winners := map[int64]bool{}
	var replayed int64
	for _, r := range recs {
		if r.lsn < replayFloor {
			continue
		}
		replayed++
		switch r.typ {
		case recCommit:
			winners[r.ta] = true
		case recAbort:
			aborts++
		}
	}
	commits += int64(len(winners))
	for _, r := range recs {
		if r.lsn < replayFloor || r.typ != recWrite || !winners[r.ta] {
			continue
		}
		if r.obj < 0 || r.obj >= rows {
			return nil, fmt.Errorf("storage: recover: lsn %d writes row %d out of [0,%d)", r.lsn, r.obj, rows)
		}
		committed[r.obj]++
	}
	for ta := range winners {
		for _, w := range att[ta] {
			if w.ok {
				committed[w.obj]++
			}
		}
	}
	winnerList := make([]int64, 0, len(winners))
	for ta := range winners {
		winnerList = append(winnerList, ta)
	}
	sort.Slice(winnerList, func(i, j int) bool { return winnerList[i] < winnerList[j] })

	met.TornRecords.Store(torn)
	met.ReplayedRecords.Store(replayed)

	s := &Server{
		cfg:   cfg,
		locks: lock.NewManager(),
		table: make([]atomic.Int64, rows),
	}
	for i, v := range committed {
		if v != 0 {
			s.table[i].Store(v)
		}
	}
	s.commits.Store(commits)
	s.aborts.Store(aborts)

	// The journal handle starts file-less: the recovery checkpoint below
	// rotates in a fresh file before any append can happen.
	j := &journal{dir: cfg.Dir, rows: rows, nextLSN: baseLSN + int64(len(recs)), met: met}
	d := newDurableState(j, cfg.Dir, met, committed, cfg)
	d.commits, d.aborts = commits, aborts
	d.winners = winnerList
	s.dur = d

	d.mu.Lock()
	err = d.checkpointLocked()
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	j.crashAt = cfg.CrashAt
	met.ReplayNanos.Store(time.Since(start).Nanoseconds())
	return s, nil
}

// noteWrite journals one executed (or rejected) write and registers it as
// outstanding for its transaction.
func (d *durableState) noteWrite(ta, obj int64, ok bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	typ := recWrite
	if !ok {
		typ = recWriteFailed
	}
	err := d.j.append(typ, ta, obj)
	if err == nil {
		ws, filed := d.inflight[ta]
		if n := len(d.freeWrites); !filed && n > 0 {
			ws = d.freeWrites[n-1]
			d.freeWrites = d.freeWrites[:n-1]
		}
		d.inflight[ta] = append(ws, inflightWrite{obj: obj, ok: ok})
	}
	d.gate.Broadcast() // wake commit gates (progress or journal death)
	return err
}

// commitTA journals a commit record — after the commit gate — and folds the
// transaction's outstanding writes into committed state.
func (d *durableState) commitTA(ta int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := d.expect[ta]; len(d.inflight[ta]) < want {
		var timedOut atomic.Bool
		t := time.AfterFunc(commitGateTimeout, func() {
			timedOut.Store(true)
			d.mu.Lock()
			d.gate.Broadcast()
			d.mu.Unlock()
		})
		defer t.Stop()
		for len(d.inflight[ta]) < want {
			if d.j.dead != nil {
				return d.j.dead
			}
			if timedOut.Load() {
				return fmt.Errorf("storage: commit gate: ta%d has %d of %d journaled writes after %s",
					ta, len(d.inflight[ta]), want, commitGateTimeout)
			}
			d.gate.Wait()
		}
	}
	if err := d.j.append(recCommit, ta, request.NoObject); err != nil {
		d.gate.Broadcast()
		return err
	}
	for _, w := range d.inflight[ta] {
		if w.ok {
			d.committed[w.obj]++
		}
	}
	d.dropTA(ta)
	d.commits++
	d.batchHadCommit = true
	return nil
}

// abortTA journals an abort record and drops the transaction's outstanding
// writes from durable state (recovery never replays a loser).
func (d *durableState) abortTA(ta int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.append(recAbort, ta, request.NoObject); err != nil {
		d.gate.Broadcast()
		return err
	}
	d.dropTA(ta)
	d.aborts++
	return nil
}

// dropTA forgets a terminated transaction and keeps its emptied write list
// for the next transaction. d.mu held.
func (d *durableState) dropTA(ta int64) {
	if ws, ok := d.inflight[ta]; ok {
		delete(d.inflight, ta)
		d.freeWrites = append(d.freeWrites, ws[:0])
	}
	delete(d.expect, ta)
}

// undoWrite journals a victim's write compensation and removes the matching
// outstanding entry.
func (d *durableState) undoWrite(ta, obj int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.append(recUndo, ta, obj); err != nil {
		d.gate.Broadcast()
		return err
	}
	ws := d.inflight[ta]
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].obj == obj && ws[i].ok {
			d.inflight[ta] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	return nil
}

func (d *durableState) expectWrites(ta int64, n int) {
	d.mu.Lock()
	d.expect[ta] = n
	d.mu.Unlock()
}

// endBatch is the commit-batch boundary: flush always, fsync per the group
// commit policy (every syncEvery-th batch that carried a commit record).
func (d *durableState) endBatch() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.flush(); err != nil {
		return err
	}
	if d.batchHadCommit {
		d.batchHadCommit = false
		d.commitBatches++
		if d.commitBatches >= d.syncEvery {
			d.commitBatches = 0
			return d.j.sync()
		}
	}
	return nil
}

// checkpointLocked snapshots (committed, inflight) at the current LSN,
// writes the page file atomically and rotates the journal. d.mu held.
func (d *durableState) checkpointLocked() error {
	if d.j.dead != nil {
		return d.j.dead
	}
	img := pagesImage{
		baseLSN:   d.j.nextLSN,
		rows:      int64(len(d.committed)),
		commits:   d.commits,
		aborts:    d.aborts,
		committed: d.committed,
		att:       d.inflight,
	}
	n, err := writePages(d.dir, img)
	if err != nil {
		d.j.dead = err
		d.gate.Broadcast()
		return err
	}
	if err := d.j.rotate(img.baseLSN); err != nil {
		d.gate.Broadcast()
		return err
	}
	d.lastCkptAt = d.j.appended
	d.met.Checkpoints.Add(1)
	d.met.CheckpointBytes.Add(n)
	return nil
}

// Durable reports whether the server runs the durable storage mode.
func (s *Server) Durable() bool { return s.dur != nil }

// Durability exposes the journal/recovery counters (nil when volatile).
func (s *Server) Durability() *metrics.Durability {
	if s.dur == nil {
		return nil
	}
	return s.dur.met
}

// RecoveredCommits lists the transactions whose commits the last recovery
// replayed from the journal tail (ascending; empty on a fresh or volatile
// server). Transactions that committed before the last checkpoint are
// folded into the page image and not enumerable.
func (s *Server) RecoveredCommits() []int64 {
	if s.dur == nil {
		return nil
	}
	return append([]int64(nil), s.dur.winners...)
}

// ExpectWrites arms the commit gate: transaction ta's commit record may not
// be journaled before n of its write records are. The scheduler calls this
// right before executing ta's commit, with n taken from the (global)
// history store. No-op on a volatile server.
func (s *Server) ExpectWrites(ta int64, n int) {
	if s.dur == nil || n <= 0 {
		return
	}
	s.dur.expectWrites(ta, n)
}

// EndBatch marks a commit-batch boundary: the executor calls it after each
// round's plan, before results are delivered to clients, so an acked commit
// is flushed — and, per the SyncEvery group-commit policy, fsynced — first.
// No-op on a volatile server.
func (s *Server) EndBatch() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.endBatch()
}

// Checkpoint forces a checkpoint now.
func (s *Server) Checkpoint() error {
	if s.dur == nil {
		return errors.New("storage: Checkpoint on a volatile server")
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	return s.dur.checkpointLocked()
}

// MaybeCheckpoint checkpoints if the journal grew past CheckpointEvery
// bytes since the last one. The scheduler calls it from the commit stage's
// history-GC hook; a checkpoint failure surfaces as the journal's sticky
// dead error on the next operation.
func (s *Server) MaybeCheckpoint() {
	if s.dur == nil {
		return
	}
	d := s.dur
	d.mu.Lock()
	if d.j.dead == nil && d.j.appended-d.lastCkptAt >= d.ckptEvery {
		d.checkpointLocked()
	}
	d.mu.Unlock()
}

// Close flushes and syncs the journal and releases the file handle. No-op
// on a volatile server.
func (s *Server) Close() error {
	if s.dur == nil {
		return nil
	}
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.j.dead != nil {
		d.j.close()
		return nil
	}
	if err := d.j.sync(); err != nil {
		d.j.close()
		return err
	}
	return d.j.close()
}
