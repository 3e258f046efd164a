// Package storage implements the "server" of the paper's architecture
// (Figure 1): an in-memory single-table record store in the spirit of the
// experiment's setup (one table of 100 000 rows, single-row SELECT and
// UPDATE statements). It can run in two modes, exactly as the paper
// requires:
//
//   - internal scheduling: sessions acquire S/X locks from the native lock
//     manager per statement and hold them until commit/abort (the DBMS's own
//     SS2PL scheduler, the baseline of Figure 2);
//   - external scheduling: the middleware has already scheduled the batch,
//     the server's own scheduler is "disabled as far as possible" and
//     statements execute without locking.
//
// A synthetic per-statement work parameter models the statement execution
// cost of the paper's commercial DBMS, so that contention effects, not Go
// slice indexing, dominate measurements.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/request"
)

// ErrAborted is returned when a statement's transaction was chosen as a
// deadlock victim; the session is rolled back and unusable.
var ErrAborted = errors.New("storage: transaction aborted (deadlock victim)")

// Config parameterises the server.
type Config struct {
	// Rows is the table size (paper: 100 000).
	Rows int
	// StatementWork is a synthetic CPU cost per statement in arbitrary spin
	// units; 0 means raw speed.
	StatementWork int
	// ExecDelay, when set, is slept before each externally scheduled
	// statement (ExecScheduled), modelling the round-trip and service time
	// of a remote server. It is how the pipeline tests and the overlap
	// benchmark make execution slow relative to qualification without
	// burning CPU the qualification leg needs.
	ExecDelay func(r request.Request) time.Duration

	// Durable selects the durable storage mode: externally scheduled work
	// is write-ahead journaled to Dir and survives a crash via
	// Open/Recover. Durable servers must be built with Open, not NewServer;
	// the internal-scheduling Session path and RunSingleUser stay volatile
	// (they exist to measure the native scheduler, not to persist).
	Durable bool
	// Dir is the durable directory (journal + checkpoint page file).
	Dir string
	// SyncEvery is the group-commit factor: fsync the journal every n-th
	// commit-batch boundary (0 or 1 = every batch that carried a commit;
	// larger values trade a bounded window of acked-but-unsynced commits
	// for fewer syncs).
	SyncEvery int
	// CheckpointEvery is the journal growth in bytes that makes the
	// scheduler-triggered MaybeCheckpoint actually checkpoint (default
	// 1 MiB).
	CheckpointEvery int64
	// CrashAt arms the journal's fault-injection hook: the append stream
	// dies when it crosses this logical byte offset, leaving a torn tail
	// exactly as a power cut would (0 = disabled). Tests only.
	CrashAt int64
}

// Server is the storage server.
type Server struct {
	cfg   Config
	locks *lock.Manager
	table []atomic.Int64

	statements atomic.Int64
	commits    atomic.Int64
	aborts     atomic.Int64

	// dur is the durable half (journal, checkpoints, recovery bookkeeping);
	// nil on a volatile server, which keeps the hot paths branch-cheap.
	dur *durableState
}

// NewServer creates a volatile server with all rows zero. Durable
// configurations must go through Open (which can fail).
func NewServer(cfg Config) *Server {
	if cfg.Durable {
		panic("storage: NewServer cannot build a durable server; use Open")
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 1
	}
	return &Server{
		cfg:   cfg,
		locks: lock.NewManager(),
		table: make([]atomic.Int64, cfg.Rows),
	}
}

// Rows returns the table size.
func (s *Server) Rows() int { return s.cfg.Rows }

// Stats reports (statements, commits, aborts) executed so far.
func (s *Server) Stats() (statements, commits, aborts int64) {
	return s.statements.Load(), s.commits.Load(), s.aborts.Load()
}

// Checksum folds the table contents; used by tests to compare executions.
func (s *Server) Checksum() int64 {
	var sum int64
	for i := range s.table {
		sum += s.table[i].Load() * int64(i+1)
	}
	return sum
}

// Get reads a row without any locking (diagnostics only).
func (s *Server) Get(row int64) int64 { return s.table[row].Load() }

// Snapshot copies the full table — row-exact state comparison for recovery
// verification and future replication, where Checksum's fold would hide
// compensating errors.
func (s *Server) Snapshot() []int64 {
	out := make([]int64, len(s.table))
	for i := range s.table {
		out[i] = s.table[i].Load()
	}
	return out
}

// ForEachRow calls f for every row in ascending order until f returns
// false — the iterator form of Snapshot, allocation-free.
func (s *Server) ForEachRow(f func(row, val int64) bool) {
	for i := range s.table {
		if !f(int64(i), s.table[i].Load()) {
			return
		}
	}
}

func (s *Server) work() {
	// Volatile-ish spin so the loop is not optimised away.
	acc := int64(1)
	for i := 0; i < s.cfg.StatementWork; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 42 {
		panic("unreachable")
	}
}

func (s *Server) apply(r request.Request) (int64, error) {
	if r.Object < 0 || r.Object >= int64(s.cfg.Rows) {
		return 0, fmt.Errorf("storage: object %d out of range [0,%d)", r.Object, s.cfg.Rows)
	}
	s.work()
	s.statements.Add(1)
	switch r.Op {
	case request.Read:
		return s.table[r.Object].Load(), nil
	case request.Write:
		return s.table[r.Object].Add(1), nil
	default:
		return 0, fmt.Errorf("storage: apply called with %q", r.Op)
	}
}

// Session is one transaction's connection under internal scheduling.
type Session struct {
	srv  *Server
	ta   int64
	done bool
}

// Begin opens a session for transaction ta.
func (s *Server) Begin(ta int64) *Session { return &Session{srv: s, ta: ta} }

// Exec executes one statement under the native SS2PL scheduler: reads take a
// shared lock, writes an exclusive lock, both held until Commit or Abort. A
// deadlock victim gets ErrAborted and the session is rolled back.
func (sess *Session) Exec(r request.Request) (int64, error) {
	if sess.done {
		return 0, fmt.Errorf("storage: session for ta%d already finished", sess.ta)
	}
	if r.TA != sess.ta {
		return 0, fmt.Errorf("storage: request of ta%d on session of ta%d", r.TA, sess.ta)
	}
	switch r.Op {
	case request.Commit:
		sess.finish(true)
		return 0, nil
	case request.Abort:
		sess.finish(false)
		return 0, nil
	case request.Read, request.Write:
		mode := lock.Shared
		if r.Op == request.Write {
			mode = lock.Exclusive
		}
		if err := sess.srv.locks.Acquire(sess.ta, r.Object, mode); err != nil {
			sess.finish(false)
			if errors.Is(err, lock.ErrDeadlock) {
				return 0, ErrAborted
			}
			return 0, err
		}
		return sess.srv.apply(r)
	default:
		return 0, fmt.Errorf("storage: invalid op %q", r.Op)
	}
}

func (sess *Session) finish(commit bool) {
	if sess.done {
		return
	}
	sess.done = true
	sess.srv.locks.ReleaseAll(sess.ta)
	if commit {
		sess.srv.commits.Add(1)
	} else {
		sess.srv.aborts.Add(1)
	}
}

// ExecScheduled executes an externally scheduled request without locking —
// the middleware guarantees the batch is conflict-free (external scheduling
// mode). Termination requests only update counters.
func (s *Server) ExecScheduled(r request.Request) (int64, error) {
	if s.cfg.ExecDelay != nil {
		if d := s.cfg.ExecDelay(r); d > 0 {
			time.Sleep(d)
		}
	}
	switch r.Op {
	case request.Commit:
		if s.dur != nil {
			if err := s.dur.commitTA(r.TA); err != nil {
				return 0, err
			}
		}
		s.commits.Add(1)
		return 0, nil
	case request.Abort:
		if s.dur != nil {
			if err := s.dur.abortTA(r.TA); err != nil {
				return 0, err
			}
		}
		s.aborts.Add(1)
		return 0, nil
	default:
		v, err := s.apply(r)
		if s.dur != nil && r.Op == request.Write {
			if jerr := s.dur.noteWrite(r.TA, r.Object, err == nil); jerr != nil {
				return v, jerr
			}
		}
		return v, err
	}
}

// UndoWriteFor compensates one executed write of aborting transaction ta
// (writes are increments, so undo is an exact decrement). The scheduler
// calls this for each write a deadlock victim had already executed; in
// durable mode the compensation is journaled against ta.
func (s *Server) UndoWriteFor(ta, object int64) error {
	if object < 0 || object >= int64(s.cfg.Rows) {
		return fmt.Errorf("storage: undo object %d out of range [0,%d)", object, s.cfg.Rows)
	}
	s.table[object].Add(-1)
	if s.dur != nil {
		return s.dur.undoWrite(ta, object)
	}
	return nil
}

// ExecBatch executes a scheduled batch back to back ("executed as a batch
// job, whereby we expect a performance improvement").
func (s *Server) ExecBatch(batch []request.Request) error {
	for _, r := range batch {
		if _, err := s.ExecScheduled(r); err != nil {
			return err
		}
	}
	return nil
}

// RunSingleUser replays a statement sequence in single-user mode: one
// transaction, exclusive table access, no locking — the paper's method for
// bounding native scheduler overhead from below (Section 4.2.1, "we acquired
// an exclusive lock on the table ... and processed the same statement
// sequence in a single transaction").
func (s *Server) RunSingleUser(seq []request.Request) error {
	for _, r := range seq {
		if r.Op.IsTermination() {
			continue // a single enclosing transaction replaces per-TA commits
		}
		if _, err := s.apply(r); err != nil {
			return err
		}
	}
	return nil
}
