package scheduler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestClientAbortUndoesExecutedWrites: a transaction that wrote two objects
// and then sends Abort itself must leave both rows as it found them — on one
// shard, and on four with the writes on different shards (the abort's
// replica copy compensates its shard's write) — and a durable server must
// recover to the same rows.
func TestClientAbortUndoesExecutedWrites(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("parts=%d/durable=%v", parts, durable), func(t *testing.T) {
				dir := t.TempDir()
				srv, err := storage.Open(storage.Config{Rows: 64, Durable: durable, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				pe, err := NewPartitionedEngine(PartitionedConfig{
					Base:       Config{Server: srv},
					Partitions: parts,
					Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
				})
				if err != nil {
					t.Fatal(err)
				}
				objA, objB := int64(3), int64(4)
				for parts > 1 && pe.Directory().ForObject(objB) == pe.Directory().ForObject(objA) {
					objB++
				}
				m := NewPartitionedMiddleware(pe, HybridTrigger{Level: 1, Every: time.Millisecond}, nil)
				m.Start()
				submit := func(ta, intra int64, op request.Op, obj int64) {
					t.Helper()
					if res := m.Submit(request.Request{TA: ta, IntraTA: intra, Op: op, Object: obj}); res.Err != nil {
						t.Fatalf("ta%d/%d: %v", ta, intra, res.Err)
					}
				}
				// A committed write first, so "initial value" is not just zero.
				submit(1, 0, request.Write, objA)
				submit(1, 1, request.Commit, request.NoObject)
				submit(2, 0, request.Write, objA)
				submit(2, 1, request.Write, objB)
				submit(2, 2, request.Abort, request.NoObject)
				m.Stop()
				check := func(what string, get func(int64) int64) {
					t.Helper()
					if a, b := get(objA), get(objB); a != 1 || b != 0 {
						t.Fatalf("%s: rows %d,%d = %d,%d after the client's abort, want 1,0", what, objA, objB, a, b)
					}
				}
				check("live", srv.Get)
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if !durable {
					return
				}
				rec, err := storage.Recover(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				check("recovered", rec.Get)
			})
		}
	}
}

// TestOneShardRoundsLeaveTheSingleLoopRecord pins what a one-shard
// middleware records per round: one merged-view entry with Partition 0 and
// the protocol's strategy, no per-partition entries and no load report — so
// the collector grows by one record per round and a one-shard STATS line
// carries no shard fields.
func TestOneShardRoundsLeaveTheSingleLoopRecord(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	m := NewMiddleware(e, HybridTrigger{Level: 1, Every: time.Millisecond}, col)
	m.Start()
	const txns = 20
	for ta := int64(1); ta <= txns; ta++ {
		for i, r := range request.NewBuilder(ta, nil).Write(ta % 64).Commit().Requests {
			if res := m.Submit(r); res.Err != nil {
				t.Fatalf("ta%d/%d: %v", ta, i, res.Err)
			}
		}
	}
	m.Stop()
	rounds := col.Rounds()
	if len(rounds) != e.Rounds() || len(rounds) < txns {
		t.Fatalf("collector holds %d round records for %d engine rounds (%d transactions)", len(rounds), e.Rounds(), txns)
	}
	for i, r := range rounds {
		if r.Partition != 0 || r.Cross != 0 {
			t.Fatalf("round %d: record %+v is not a single-loop record", i, r)
		}
		if r.Pending > 0 && r.Strategy == "" {
			t.Fatalf("round %d: no strategy on the round record: %+v", i, r)
		}
	}
	if got := col.PartitionSummaries(); len(got) != 0 {
		t.Fatalf("one shard recorded per-partition rounds: %v", got)
	}
	if got := col.PartitionRounds(0); len(got) != 0 {
		t.Fatalf("one shard appended %d records to partRounds", len(got))
	}
	snap := col.Snapshot()
	if len(snap.Load.Shards) != 0 || snap.QualifiedImbalance != 0 {
		t.Fatalf("one shard recorded a load report: %+v", snap.Load)
	}
}

// oneShardRoundAllocs bounds what a warm one-shard round allocates for the
// batch of TestOneShardSequencerIdle: 16 per round, measured with this
// test's loop once the protocol adapters built their round-lived tuples in
// reused storage and the Datalog engine carved derived facts from
// per-predicate regions (28 before; the single loop of commit 123e475, the
// last one with a separate single loop, made 142), plus 10%.
const oneShardRoundAllocs = 17

// TestOneShardSequencerIdle: a warm one-shard round over a conflict-free
// batch must cost no more allocations than measured (far fewer than the
// single loop it replaced) — the sequencer's multi-shard work (routing, agreement, dedupe, per-shard
// records) is skipped, not merely cheap. This is what holds allocs_per_txn
// and cpu_ms_per_txn on light load, where rounds carry ~8 requests.
func TestOneShardSequencerIdle(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 1 << 16})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	ta := int64(1)
	batch := make([]request.Request, 0, 12)
	round := func() {
		batch = batch[:0]
		for i := 0; i < 4; i++ {
			batch = append(batch,
				request.Request{TA: ta, IntraTA: 0, Op: request.Read, Object: (ta * 2) % (1 << 16)},
				request.Request{TA: ta, IntraTA: 1, Op: request.Write, Object: (ta*2 + 1) % (1 << 16)},
				request.Request{TA: ta, IntraTA: 2, Op: request.Commit, Object: request.NoObject})
			ta++
		}
		e.Enqueue(batch...)
		res, err := e.Round()
		if err != nil || len(res.Executed) != len(batch) {
			t.Fatalf("round executed %d of %d: %v", len(res.Executed), len(batch), err)
		}
	}
	for i := 0; i < 50; i++ {
		round() // warm the protocol's incremental state and the stores' buffers
	}
	if got := testing.AllocsPerRun(200, round); got > oneShardRoundAllocs {
		t.Fatalf("a warm one-shard round allocates %.0f times, want <= %d (the measured figure + 10%%)", got, oneShardRoundAllocs)
	}
}
