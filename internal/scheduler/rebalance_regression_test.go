package scheduler

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Regression: an aggressive rebalancer (check every 2 rounds, low trigger)
// bounces a hot slot between shards faster than an idle
// shard consumes its delta windows. A history row migrated out and back in
// between two qualifications then lands as remove+re-append in one window;
// until the history store cancelled that pair in place, the incremental
// protocols netted it to absent — dropping a live SS2PL write lock and
// letting a second writer qualify (observed as precedence cycle
// [17 34 31 19 17] on this exact seed).
func TestRebalanceBouncedSlotKeepsLocks(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 64})
	pe, err := NewPartitionedEngine(PartitionedConfig{
		Base:       Config{Server: srv, KeepLog: true},
		Partitions: 4,
		Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
		Rebalance:  RebalanceConfig{Slots: 128, Trigger: 1.1, Every: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewPartitionedMiddleware(pe, HybridTrigger{Level: 16, Every: time.Millisecond}, metrics.NewCollector())
	mw.Start()
	gen, err := workload.NewGenerator(workload.Config{
		Clients: 16, TxnsPerClient: 3, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 64, Seed: 3, HotKeys: 8, HotFrac: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(mw, gen.ClientQueues(), 10); err != nil {
		t.Fatal(err)
	}
	mw.Stop()

	if err := protocol.CheckSerializable(pe.MergedLog()); err != nil {
		t.Fatalf("merged schedule under bouncing rebalancer: %v", err)
	}
	if err := protocol.CheckTerminationOrder(pe.MergedLog()); err != nil {
		t.Fatalf("merged schedule under bouncing rebalancer: %v", err)
	}
}
