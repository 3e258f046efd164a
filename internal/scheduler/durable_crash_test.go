package scheduler

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The crash-injection property (the durable mode's headline test): run a
// random workload against a durable server whose journal dies at a random
// byte offset — including mid-record, leaving a torn tail — recover the
// directory, and check the recovery invariant exactly:
//
//   - no lost commits: every commit the engine executed successfully is
//     replayed (set equality, in fact: the winners are exactly the executed
//     commits);
//   - no resurrected aborts: no victim's writes survive;
//   - row-exact state: the recovered table equals both the workload's
//     write multisets summed over the winners and a history-store oracle
//     replay of exactly the committed prefix;
//   - torn tails are discarded cleanly, never parsed.
//
// The trial counts scale with CRASH_TRIALS / CRASH_SEEDS (the CI crash
// matrix raises them); the defaults alone cover >= 200 random crash points.

const crashRows = 32

// crashEnv reads an integer knob for the crash matrix.
func crashEnv(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// preserveCrashArtifacts copies the durable directory's files into
// CRASH_ARTIFACT_DIR (when set) so CI can upload a failing journal.
func preserveCrashArtifacts(t *testing.T, dir, tag string) {
	dst := os.Getenv("CRASH_ARTIFACT_DIR")
	if dst == "" {
		return
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	for _, name := range []string{"journal", "pages"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		out := filepath.Join(dst, tag+"-"+name)
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Logf("artifact copy: %v", err)
		} else {
			t.Logf("preserved %s", out)
		}
	}
}

// crashClients flattens a generated workload into per-client closed-loop
// scripts plus the oracle bookkeeping: each TA's write multiset and owning
// client.
func crashClients(t *testing.T, seed int64) (clients [][]request.Request, taClient map[int64]int, writesOf map[int64][]int64) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 6, TxnsPerClient: 2,
		ReadsPerTxn: 1, WritesPerTxn: 3,
		Objects: crashRows, Seed: seed + 1, // few objects: conflicts, victims
	})
	if err != nil {
		t.Fatal(err)
	}
	taClient = map[int64]int{}
	writesOf = map[int64][]int64{}
	for _, q := range gen.ClientQueues() {
		var rs []request.Request
		for _, tx := range q {
			taClient[tx.TA] = len(clients)
			for _, r := range tx.Requests {
				if r.Op == request.Write {
					writesOf[tx.TA] = append(writesOf[tx.TA], r.Object)
				}
			}
			rs = append(rs, tx.Requests...)
		}
		clients = append(clients, rs)
	}
	return clients, taClient, writesOf
}

// driveUntilCrash feeds the scripts closed-loop (one outstanding request
// per client) until the workload drains or the engine dies on the journal's
// failpoint. It records executed commits and victims and reports whether
// the run crashed. dead carries aborted TAs across phases.
func driveUntilCrash(t *testing.T, eng *Engine, clients [][]request.Request, taClient map[int64]int,
	dead map[int64]bool, acked, victims map[int64]bool) (crashed bool) {
	t.Helper()
	cursor := make([]int, len(clients))
	inflight := make([]bool, len(clients))
	for round := 0; round < 1500; round++ {
		idle := true
		for c := range clients {
			if inflight[c] {
				idle = false
				continue
			}
			for cursor[c] < len(clients[c]) && dead[clients[c][cursor[c]].TA] {
				cursor[c]++
			}
			if cursor[c] >= len(clients[c]) {
				continue
			}
			r := clients[c][cursor[c]]
			cursor[c]++
			eng.Enqueue(r)
			inflight[c] = true
			idle = false
		}
		if idle {
			return false
		}
		res, err := eng.Round()
		// Process the round's partial results even when it died mid-plan: a
		// commit whose ExecScheduled succeeded has its record in the journal's
		// valid prefix, crash or not.
		for _, ta := range res.Victims {
			victims[ta] = true
			dead[ta] = true
			inflight[taClient[ta]] = false
		}
		for _, ex := range res.Executed {
			inflight[taClient[ex.Request.TA]] = false
			if ex.Request.Op == request.Commit && ex.Err == nil {
				acked[ex.Request.TA] = true
			}
		}
		if err != nil {
			return true
		}
	}
	t.Fatal("workload did not converge within the round cap")
	return false
}

// checkRecovery recovers dir and asserts the full invariant. log is the
// engine's execution log (the history-store oracle); ackedPreCheckpoint
// lists commits already folded into the page file (empty without a
// checkpoint phase).
func checkRecovery(t *testing.T, dir, tag string, acked, victims map[int64]bool,
	writesOf map[int64][]int64, log []request.Request, ackedPreCheckpoint map[int64]bool) (replayed int64) {
	t.Helper()
	failf := func(format string, args ...any) {
		t.Helper()
		preserveCrashArtifacts(t, dir, tag)
		t.Fatalf(tag+": "+format, args...)
	}
	rec, err := storage.Recover(dir)
	if err != nil {
		failf("Recover: %v", err)
	}
	defer rec.Close()
	replayed = rec.Durability().ReplayedRecords.Load()

	winners := map[int64]bool{}
	for _, ta := range rec.RecoveredCommits() {
		winners[ta] = true
	}
	// No lost commits — and nothing beyond them: the replayed winners are
	// exactly the commits the engine executed after the last checkpoint.
	for ta := range acked {
		if !winners[ta] && !ackedPreCheckpoint[ta] {
			failf("lost commit: ta%d was executed but not recovered", ta)
		}
	}
	for ta := range winners {
		if !acked[ta] {
			failf("phantom commit: ta%d recovered but never executed", ta)
		}
	}
	// No resurrected aborts.
	for ta := range winners {
		if victims[ta] {
			failf("resurrected abort: victim ta%d recovered as committed", ta)
		}
	}

	// Row-exact state vs the workload's write multisets over the committed
	// transactions (winners plus pre-checkpoint commits).
	expected := make([]int64, crashRows)
	for ta := range winners {
		for _, obj := range writesOf[ta] {
			expected[obj]++
		}
	}
	for ta := range ackedPreCheckpoint {
		if !winners[ta] {
			for _, obj := range writesOf[ta] {
				expected[obj]++
			}
		}
	}
	snap := rec.Snapshot()
	for i := range expected {
		if snap[i] != expected[i] {
			failf("row %d = %d, want %d (winners %v)", i, snap[i], expected[i], rec.RecoveredCommits())
		}
	}

	// History-store oracle: replay exactly the committed prefix of the
	// execution log and compare checksums.
	if log != nil {
		oracle := make([]int64, crashRows)
		for _, r := range log {
			if r.Op == request.Write && (winners[r.TA] || ackedPreCheckpoint[r.TA]) {
				oracle[r.Object]++
			}
		}
		var want, got int64
		for i := range oracle {
			want += oracle[i] * int64(i+1)
			got += snap[i] * int64(i+1)
		}
		if got != want {
			failf("recovered checksum %d != history-store oracle %d", got, want)
		}
	}
	return replayed
}

func TestCrashRecoveryPropertySingle(t *testing.T) {
	seeds := crashEnv("CRASH_SEEDS", 2)
	trials := crashEnv("CRASH_TRIALS", 120)
	if testing.Short() {
		seeds, trials = 1, 30
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		clients, taClient, writesOf := crashClients(t, seed)
		mk := func(dir string, crashAt int64) (*Engine, *storage.Server) {
			srv, err := storage.Open(storage.Config{
				Rows: crashRows, Durable: true, Dir: dir,
				CrashAt: crashAt, CheckpointEvery: 1 << 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(Config{
				Protocol: protocol.SS2PLDatalog(), Server: srv,
				KeepLog: true, StarveAfter: 12,
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng, srv
		}

		// Dry run: measure the journal's full extent so trials can aim
		// anywhere inside it (and sometimes beyond — a crashless control).
		dryDir := t.TempDir()
		eng, srv := mk(dryDir, 0)
		if driveUntilCrash(t, eng, clients, taClient, map[int64]bool{}, map[int64]bool{}, map[int64]bool{}) {
			t.Fatal("dry run crashed without a failpoint")
		}
		total := srv.Durability().BytesJournaled.Load()
		srv.Close()

		rng := rand.New(rand.NewSource(seed*7919 + 17))
		for trial := 0; trial < trials; trial++ {
			crashAt := 33 + rng.Int63n(total) // any byte: record boundaries and torn mid-record tails
			tag := fmt.Sprintf("single-seed%d-trial%d-at%d", seed, trial, crashAt)
			dir := t.TempDir()
			eng, srv := mk(dir, crashAt)
			acked, victims := map[int64]bool{}, map[int64]bool{}
			crashed := driveUntilCrash(t, eng, clients, taClient, map[int64]bool{}, acked, victims)
			srv.Close()
			if !crashed && crashAt < total {
				preserveCrashArtifacts(t, dir, tag)
				t.Fatalf("%s: failpoint inside the journal extent did not fire", tag)
			}
			checkRecovery(t, dir, tag, acked, victims, writesOf, eng.History().Log(), nil)
		}
	}
}

// TestCrashRecoveryAfterCheckpointReplaysTail runs the property across a
// checkpoint: phase 1 drains and checkpoints, phase 2 crashes. Recovery
// must replay only the journal tail (bounded by the records journaled after
// the checkpoint) on top of the page file.
func TestCrashRecoveryAfterCheckpointReplaysTail(t *testing.T) {
	trials := crashEnv("CRASH_TRIALS", 120) / 3
	if testing.Short() {
		trials = 10
	}
	seed := int64(5)
	clients, taClient, writesOf := crashClients(t, seed)
	// Phase split: each client's first transaction is phase 1.
	phase1 := make([][]request.Request, len(clients))
	phase2 := make([][]request.Request, len(clients))
	for c, rs := range clients {
		cut := 0
		for i, r := range rs {
			if r.Op.IsTermination() {
				cut = i + 1
				break
			}
		}
		phase1[c], phase2[c] = rs[:cut], rs[cut:]
	}

	run := func(dir string, crashAt int64) (eng *Engine, srv *storage.Server,
		acked1, acked2, victims map[int64]bool, atCkpt int64, crashed bool) {
		srv, err := storage.Open(storage.Config{
			Rows: crashRows, Durable: true, Dir: dir,
			CrashAt: crashAt, CheckpointEvery: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err = NewEngine(Config{
			Protocol: protocol.SS2PLDatalog(), Server: srv,
			KeepLog: true, StarveAfter: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		dead := map[int64]bool{}
		acked1, acked2, victims = map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
		if driveUntilCrash(t, eng, phase1, taClient, dead, acked1, victims) {
			t.Fatal("phase 1 crashed: the failpoint must aim past the checkpoint")
		}
		if err := srv.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		atCkpt = srv.Durability().RecordsJournaled.Load()
		crashed = driveUntilCrash(t, eng, phase2, taClient, dead, acked2, victims)
		return eng, srv, acked1, acked2, victims, atCkpt, crashed
	}

	// Dry run for the phase-2 byte range.
	dryDir := t.TempDir()
	_, srv, _, _, _, _, _ := run(dryDir, 0)
	total := srv.Durability().BytesJournaled.Load()
	srv.Close()
	// Phase-1 extent: re-run phase 1 only to measure its end offset.
	p1Dir := t.TempDir()
	p1Srv, err := storage.Open(storage.Config{Rows: crashRows, Durable: true, Dir: p1Dir, CheckpointEvery: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	p1Eng, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: p1Srv, StarveAfter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if driveUntilCrash(t, p1Eng, phase1, taClient, map[int64]bool{}, map[int64]bool{}, map[int64]bool{}) {
		t.Fatal("phase-1 measurement run crashed")
	}
	if err := p1Srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1End := p1Srv.Durability().BytesJournaled.Load()
	p1Srv.Close()
	if total <= p1End {
		t.Fatalf("phase 2 journaled nothing (p1End=%d total=%d)", p1End, total)
	}

	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < trials; trial++ {
		crashAt := p1End + 1 + rng.Int63n(total-p1End)
		tag := fmt.Sprintf("ckpt-trial%d-at%d", trial, crashAt)
		dir := t.TempDir()
		eng, srv, acked1, acked2, victims, atCkpt, _ := run(dir, crashAt)
		tailRecords := srv.Durability().RecordsJournaled.Load() - atCkpt
		srv.Close()
		replayed := checkRecovery(t, dir, tag, acked2, victims, writesOf, eng.History().Log(), acked1)
		if replayed > tailRecords {
			preserveCrashArtifacts(t, dir, tag)
			t.Fatalf("%s: recovery replayed %d records, want <= the %d journaled after the checkpoint",
				tag, replayed, tailRecords)
		}
	}
}

// TestCrashRecoveryPropertyPartitioned runs the property against the
// partitioned engine with concurrent per-shard executors — the
// configuration whose cross-shard commit ordering the journal's commit gate
// exists for. Run under -race in CI at GOMAXPROCS 1 and 4.
func TestCrashRecoveryPropertyPartitioned(t *testing.T) {
	seeds := crashEnv("CRASH_SEEDS", 2)
	trials := crashEnv("CRASH_TRIALS", 120) / 6
	if testing.Short() {
		seeds, trials = 1, 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		clients, taClient, writesOf := crashClients(t, seed)

		drive := func(dir string, crashAt int64) (pe *PartitionedEngine, srv *storage.Server,
			acked, victims map[int64]bool, crashed bool) {
			srv, err := storage.Open(storage.Config{
				Rows: crashRows, Durable: true, Dir: dir,
				CrashAt: crashAt, CheckpointEvery: 1 << 40,
				ExecDelay: randExecDelay(seed, 20), // overlap: shard executors race for real
			})
			if err != nil {
				t.Fatal(err)
			}
			pe, err = NewPartitionedEngine(PartitionedConfig{
				Base:       Config{Server: srv, KeepLog: true, StarveAfter: 12},
				Partitions: 4,
				Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
			})
			if err != nil {
				t.Fatal(err)
			}
			// The executors feed this channel and the driver drains it between
			// rounds; it holds every batch a drain can leave in flight (a full
			// pipeline per shard plus one round's plans), so an executor never
			// blocks on it while the driver waits on an executor.
			// An executor reuses its Executed buffer once deliver returns,
			// so the batch is copied before it is queued.
			completions := make(chan Completion, 4*(pipelineDepth+2))
			pe.StartExecutors(func(c Completion) {
				c.Executed = slices.Clone(c.Executed)
				completions <- c
			})
			acked, victims = map[int64]bool{}, map[int64]bool{}
			dead := map[int64]bool{}
			cursor := make([]int, len(clients))
			inflight := make([]bool, len(clients))
			handle := func(c Completion) {
				if c.Err != nil {
					// Keep processing Executed: a commit whose journal append
					// beat the crash is durable even when the batch then died.
					crashed = true
				}
				for _, ex := range c.Executed {
					inflight[taClient[ex.Request.TA]] = false
					if ex.Request.Op == request.Commit && ex.Err == nil {
						acked[ex.Request.TA] = true
					}
				}
			}
			for round := 0; round < 4000 && !crashed; round++ {
				idle := true
				for c := range clients {
					if inflight[c] {
						idle = false
						continue
					}
					for cursor[c] < len(clients[c]) && dead[clients[c][cursor[c]].TA] {
						cursor[c]++
					}
					if cursor[c] >= len(clients[c]) {
						continue
					}
					r := clients[c][cursor[c]]
					cursor[c]++
					pe.Enqueue(r)
					inflight[c] = true
					idle = false
				}
				busy := false
				for c := range clients {
					busy = busy || inflight[c]
				}
				if idle && !busy {
					break
				}
				res, err := pe.RoundDeferred()
				if err != nil {
					crashed = true
					break
				}
				for _, ta := range res.Victims {
					victims[ta] = true
					dead[ta] = true
					inflight[taClient[ta]] = false
				}
				for drained := false; !drained; {
					select {
					case c := <-completions:
						handle(c)
					default:
						drained = true
					}
				}
			}
			pe.StopExecutors()
			close(completions)
			for c := range completions {
				handle(c)
			}
			return pe, srv, acked, victims, crashed
		}

		dryDir := t.TempDir()
		_, srv, _, _, crashed := drive(dryDir, 0)
		if crashed {
			t.Fatal("dry run crashed without a failpoint")
		}
		total := srv.Durability().BytesJournaled.Load()
		srv.Close()

		rng := rand.New(rand.NewSource(seed*104729 + 3))
		for trial := 0; trial < trials; trial++ {
			crashAt := 33 + rng.Int63n(total)
			tag := fmt.Sprintf("part-seed%d-trial%d-at%d", seed, trial, crashAt)
			dir := t.TempDir()
			pe, srv, acked, victims, _ := drive(dir, crashAt)
			srv.Close()
			checkRecovery(t, dir, tag, acked, victims, writesOf, pe.MergedLog(), nil)
		}
	}
}
