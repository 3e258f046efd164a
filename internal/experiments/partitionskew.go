package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// PartitionSkewPoint is one cell of the partition-skew study: the partitioned
// round loop under a uniform workload vs a hot-key workload whose hot set
// hashes to few shards, with and without the online slot rebalancer. Uniform
// load should spread qualified work evenly and gain from partitioning; a hot
// set concentrates conflicts (and victims) on the hot shards, so the
// imbalance columns show where the speedup goes — and what the rebalancer
// claws back by moving and rotating hot slots.
type PartitionSkewPoint struct {
	Workload   string
	Partitions int
	Committed  int64
	Aborted    int64
	Rounds     int
	// Cross counts cross-partition terminations (transactions whose key set
	// straddled shards).
	Cross int64
	// MeanRound and P99Round are full super-round times (drain + parallel
	// qualify + sequencing + commit + execution).
	MeanRound time.Duration
	P99Round  time.Duration
	// Imbalance is max/mean qualified work across shards over the whole run
	// (1.0 = perfectly balanced; only meaningful for Partitions > 1).
	Imbalance float64
	// Steady is the same ratio over each shard's second half of rounds —
	// the rebalancer needs a few rounds of load observations before it
	// moves slots, so this is the converged figure.
	Steady float64
	// Moves counts the slot migrations the rebalancer applied, rotations of
	// an irreducible hot slot included (zero under the static table).
	Moves int
}

// PartitionSkew sweeps partition counts under a uniform workload, a hot-key
// workload on the static slot table, and the same hot-key workload with the
// online rebalancer enabled, all through the middleware (closed
// loop, with retries).
func PartitionSkew(partitions []int, clients int) ([]PartitionSkewPoint, error) {
	base := workload.Config{
		Clients:       clients,
		TxnsPerClient: 4,
		ReadsPerTxn:   2,
		WritesPerTxn:  2,
		Objects:       256,
		Seed:          17,
	}
	hot := base
	hot.HotKeys = 8
	hot.HotFrac = 0.8
	hot.HotSkew = 1.5

	// An aggressive rebalancer for the short closed-loop run: check every
	// round.
	rebal := scheduler.RebalanceConfig{
		Slots:   256,
		Trigger: 1.05,
		Every:   1,
	}

	var out []PartitionSkewPoint
	for _, wl := range []struct {
		name string
		cfg  workload.Config
		reb  scheduler.RebalanceConfig
	}{
		{"uniform", base, scheduler.RebalanceConfig{}},
		{"hot-key 80%/8", hot, scheduler.RebalanceConfig{}},
		{"hot-key rebal", hot, rebal},
	} {
		for _, parts := range partitions {
			srv := storage.NewServer(storage.Config{Rows: int(base.Objects)})
			pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
				Base:       scheduler.Config{Server: srv, StarveAfter: 64},
				Partitions: parts,
				Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
				Rebalance:  wl.reb,
			})
			if err != nil {
				return nil, err
			}
			col := metrics.NewCollector()
			m := scheduler.NewMiddleware(pe, scheduler.HybridTrigger{Level: clients / 2, Every: time.Millisecond}, col)
			m.Start()
			gen, err := workload.NewGenerator(wl.cfg)
			if err != nil {
				m.Stop()
				return nil, err
			}
			res, err := scheduler.RunWorkload(m, gen.ClientQueues(), 10)
			m.Stop()
			if err != nil {
				return nil, err
			}
			var roundHist metrics.Histogram
			for _, r := range col.Rounds() {
				roundHist.Observe(int64(r.Total))
			}
			sum := col.Summarise()
			p := PartitionSkewPoint{
				Workload:   wl.name,
				Partitions: parts,
				Committed:  res.CommittedTxns,
				Aborted:    res.AbortedTxns,
				Rounds:     sum.Rounds,
				Cross:      sum.Cross,
				MeanRound:  time.Duration(roundHist.Mean()),
				P99Round:   time.Duration(roundHist.Quantile(0.99)),
				Imbalance:  qualifiedImbalance(col.PartitionSummaries()),
				Steady:     steadyImbalance(col, parts),
			}
			if ls, ok := pe.LoadReport(0); ok {
				p.Moves = ls.Moves
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// qualifiedImbalance is max/mean qualified work across the shards that did
// any work (0 when no per-partition records exist).
func qualifiedImbalance(sums []metrics.PartitionSummary) float64 {
	if len(sums) == 0 {
		return 0
	}
	var total, max int64
	for _, s := range sums {
		total += s.Qualified
		if s.Qualified > max {
			max = s.Qualified
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(sums))
	return float64(max) / mean
}

// steadyImbalance is max/mean qualified work across shards counting only
// each shard's second half of round records — after the rebalancer's load
// EWMAs have warmed up and its moves have been applied.
func steadyImbalance(col *metrics.Collector, parts int) float64 {
	if parts < 2 {
		return 0
	}
	loads := make([]float64, 0, parts)
	var total float64
	for p := 0; p < parts; p++ {
		rs := col.PartitionRounds(p)
		var q float64
		for _, r := range rs[len(rs)/2:] {
			q += float64(r.Qualified)
		}
		loads = append(loads, q)
		total += q
	}
	if total == 0 {
		return 0
	}
	mean := total / float64(len(loads))
	var max float64
	for _, q := range loads {
		if q > max {
			max = q
		}
	}
	return max / mean
}

// FormatPartitionSkew renders the sweep.
func FormatPartitionSkew(points []PartitionSkewPoint) string {
	var b strings.Builder
	b.WriteString("Partitioned round loops under uniform vs hot-key load (static vs rebalanced slot table)\n\n")
	fmt.Fprintf(&b, "%-14s %5s %10s %8s %7s %6s %12s %12s %10s %7s %6s\n",
		"workload", "parts", "committed", "aborted", "rounds", "cross", "mean round", "p99 round", "imbalance", "steady", "moves")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %5d %10d %8d %7d %6d %12s %12s %10.2f %7.2f %6d\n",
			p.Workload, p.Partitions, p.Committed, p.Aborted, p.Rounds, p.Cross,
			p.MeanRound.Round(time.Microsecond), p.P99Round.Round(time.Microsecond),
			p.Imbalance, p.Steady, p.Moves)
	}
	b.WriteString("\nexpected shape: uniform load spreads qualified work evenly (imbalance ~1)\n")
	b.WriteString("and cross-partition commits grow with the partition count; the hot-key\n")
	b.WriteString("workload concentrates conflicts on the hot shards (imbalance >> 1) under\n")
	b.WriteString("the static hash table, so extra partitions buy little for the skewed\n")
	b.WriteString("rounds — with the rebalancer, hot slots are moved to the coldest shards,\n")
	b.WriteString("and a slot too hot to move whole is rotated among them on a cooldown, so\n")
	b.WriteString("the steady-state imbalance falls below the static table's\n")
	return b.String()
}
