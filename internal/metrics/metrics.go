// Package metrics provides the measurement plumbing of the evaluation
// harness: counters, a fixed-bucket latency histogram and per-round
// scheduler statistics.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a log-linear histogram of non-negative int64 observations
// (e.g. nanoseconds), in HdrHistogram's layout: values below 16 get a bucket
// each, and every power-of-two range above is split into 16 linear
// sub-buckets, so a bucket's width is at most 1/16 of its lower bound and a
// quantile reads at most 1/16 above the exact one. The zero value is ready
// to use.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// subBits is log2 of the sub-buckets per power of two.
const subBits = 4

// histBuckets covers every non-negative int64: the 16 exact values below 16
// plus 16 sub-buckets for each power of two from 2^4 to 2^62.
const histBuckets = (63 - subBits + 1) << subBits

// bucketOf returns v's bucket: v itself below 16; above, v's leading bit and
// the four bits after it, so [2^e, 2^(e+1)) fills 16 buckets of width
// 2^(e-4).
func bucketOf(v int64) int {
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e < subBits {
		return int(v)
	}
	shift := e - subBits
	return shift<<subBits + int(v>>shift)
}

// bucketUpper returns the largest value bucket b holds.
func bucketUpper(b int) int64 {
	if b < 1<<subBits {
		return int64(b)
	}
	shift := b>>subBits - 1
	return int64(b-shift<<subBits+1)<<shift - 1
}

// Observe records one value (negative values count as zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) based on
// bucket boundaries.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	// Ceiling rank: the q-quantile of n observations is the smallest
	// observation with at least ceil(q*n) observations at or below it. A
	// floored rank reads one observation low whenever q*n is fractional —
	// at n=100 it makes P999 collapse onto P99.
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen int64
	for b, n := range h.buckets {
		seen += n
		if seen >= target {
			return bucketUpper(b)
		}
	}
	return h.max
}

// HistogramSnapshot is a point-in-time view of one histogram: the counters
// and the tail quantiles, captured atomically.
type HistogramSnapshot struct {
	Count int64
	Mean  int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
}

// Snapshot captures the histogram's counters and quantiles atomically.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshotLocked()
}

func (h *Histogram) snapshotLocked() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / h.count
	}
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// RoundStats describes one scheduling round.
type RoundStats struct {
	Pending   int
	Qualified int
	Victims   int
	Duration  time.Duration // protocol evaluation time only
	Total     time.Duration // queue drain + protocol + bookkeeping + execution
	// Exec is the server execution time of the round's batch. The
	// synchronous engine includes it in Total; under the pipelined round
	// loop it overlaps later rounds' qualification and is reported through
	// the collector's Exec histogram when the batch completes.
	Exec    time.Duration
	History int // live history size after the round
	// Strategy names the evaluation path the protocol took this round
	// (e.g. the Datalog engine's cold/none/recompute, or the SQL
	// protocol's sql-cold/sql-ivm-build/sql-ivm); empty when the protocol
	// does not report one.
	Strategy string
	// Fired names what made the middleware's loop run this round (one of the
	// Fired* reasons); empty on rounds driven directly through the engine.
	Fired string
	// Cause names why the round's victims were aborted (one of the Victim*
	// causes); empty on rounds without victims.
	Cause string
	// Partition identifies which round loop produced this record under the
	// partitioned scheduler: a shard index for per-shard records (recorded
	// via AddPartitionRound), MergedPartition for the merged per-round
	// record. One-shard records leave it zero.
	Partition int
	// Cross counts the cross-partition terminations committed this round
	// (terminations sequenced to more than one shard). Always zero on a
	// one-shard engine.
	Cross int
}

// Why a round ran (RoundStats.Fired): a trigger condition — the queue reached
// the fill level, the maximum delay elapsed, every client that was answered
// has returned (scheduler.HybridTrigger) — or the loop itself: its progress
// rule for blocked pending requests, or the shutdown drain.
const (
	FiredLevel    = "level"
	FiredEvery    = "every"
	FiredReturned = "returned"
	FiredProgress = "progress"
	FiredDrain    = "drain"
)

// Why a round aborted its victims (RoundStats.Cause): the protocol declared
// them (wound-wait), a fully blocked round broke its waits-for cycles, or the
// oldest waiter passed the starvation bound — and then either the cycles
// among the waiters were broken or, with no cycle to explain the wait, the
// oldest waiter itself was aborted.
const (
	VictimWound         = "wound"
	VictimCycle         = "cycle"
	VictimStarvedCycle  = "starved-cycle"
	VictimStarvedOldest = "starved-oldest"
)

// MergedPartition marks a RoundStats record as the merged view of one
// partitioned super-round (as opposed to one shard's share of it).
const MergedPartition = -1

// Collector accumulates scheduler statistics. It is safe for concurrent use.
// AddRound and AddPartitionRound keep every record and fold it into running
// totals, so a scrape (Summarise, PartitionSummaries, Snapshot) costs the
// same however long the collector has run.
type Collector struct {
	mu     sync.Mutex
	rounds []RoundStats
	// sum holds the running totals of the merged rounds: Summary's counts,
	// sums and maps, with MeanPending, MeanQualified and MeanRoundDuration
	// left for Summarise to derive; pending is the sum behind MeanPending.
	sum     Summary
	pending int64
	parts   map[int]*partitionLog
	Latency Histogram // per-request middleware latency (ns)
	// Exec records per-batch server execution times (ns) as reported by the
	// pipelined executor when a round's batch completes — the "execute" leg
	// that overlaps qualification, measured separately so the overlap is
	// observable (round throughput ≈ max(mean round, mean exec), not their
	// sum).
	Exec      Histogram
	startedAt time.Time

	// load is the partitioned scheduler's latest rebalancer report (zero
	// until RecordLoad is first called — one-shard runs and runs with the
	// rebalancer disabled never record one).
	load LoadSnapshot
}

// SlotLoad is one hot slot's decayed load and owning shard.
type SlotLoad struct {
	Slot  int
	Shard int
	Load  float64
}

// LoadSnapshot is the partitioned scheduler's load-accounting view: decayed
// per-shard loads, their max/mean imbalance, the hottest slots, and the
// rebalancer's cumulative move counter and routing-table version.
type LoadSnapshot struct {
	Shards    []float64
	TopSlots  []SlotLoad
	Imbalance float64
	Moves     int
	Version   uint64
}

// RecordLoad stores the latest rebalancer load report (overwriting the
// previous one — the report is already a decayed aggregate).
func (c *Collector) RecordLoad(ls LoadSnapshot) {
	c.mu.Lock()
	c.load = ls
	c.mu.Unlock()
}

// NewCollector starts a collector.
func NewCollector() *Collector {
	return &Collector{startedAt: time.Now()}
}

// partitionLog is one shard's round records and their running totals.
type partitionLog struct {
	rounds                      []RoundStats
	qualified, victims, pending int64
	dur                         time.Duration
}

// AddRound records one round.
func (c *Collector) AddRound(rs RoundStats) {
	c.mu.Lock()
	c.rounds = append(c.rounds, rs)
	s := &c.sum
	s.Rounds++
	s.Executed += int64(rs.Qualified)
	s.Aborted += int64(rs.Victims)
	s.TotalRoundTime += rs.Duration
	s.Cross += int64(rs.Cross)
	c.pending += int64(rs.Pending)
	count(&s.Strategies, rs.Strategy, 1)
	count(&s.Fired, rs.Fired, 1)
	count(&s.Causes, rs.Cause, rs.Victims)
	c.mu.Unlock()
}

// AddPartitionRound records one shard's share of a partitioned super-round.
// These feed the per-partition summaries only; the merged per-round record
// goes through AddRound so the aggregate counters count each request once.
func (c *Collector) AddPartitionRound(rs RoundStats) {
	c.mu.Lock()
	p := c.parts[rs.Partition]
	if p == nil {
		if c.parts == nil {
			c.parts = make(map[int]*partitionLog)
		}
		p = &partitionLog{}
		c.parts[rs.Partition] = p
	}
	p.rounds = append(p.rounds, rs)
	p.qualified += int64(rs.Qualified)
	p.victims += int64(rs.Victims)
	p.pending += int64(rs.Pending)
	p.dur += rs.Duration
	c.mu.Unlock()
}

// PartitionRounds returns a copy of one shard's round records.
func (c *Collector) PartitionRounds(partition int) []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rounds []RoundStats
	if p := c.parts[partition]; p != nil {
		rounds = p.rounds
	}
	return append(make([]RoundStats, 0, len(rounds)), rounds...)
}

// Rounds returns a copy of the per-round records.
func (c *Collector) Rounds() []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundStats, len(c.rounds))
	copy(out, c.rounds)
	return out
}

// Executed returns the number of requests executed.
func (c *Collector) Executed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum.Executed
}

// Aborted returns the number of deadlock victims.
func (c *Collector) Aborted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum.Aborted
}

// Summary aggregates the rounds.
type Summary struct {
	Rounds            int
	Executed          int64
	Aborted           int64
	MeanPending       float64
	MeanQualified     float64
	MeanRoundDuration time.Duration
	TotalRoundTime    time.Duration
	// Cross totals the cross-partition terminations committed (0 on a
	// one-shard engine).
	Cross int64
	// Strategies counts rounds per reported evaluation strategy (rounds
	// without a reported strategy are not counted).
	Strategies map[string]int
	// Fired counts rounds per trigger reason (RoundStats.Fired), likewise.
	Fired map[string]int
	// Causes counts victims (not rounds) per abort cause (RoundStats.Cause).
	Causes map[string]int
}

// Summarise computes the aggregate view.
func (c *Collector) Summarise() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.summariseLocked()
}

func (c *Collector) summariseLocked() Summary {
	s := c.sum
	s.Strategies = maps.Clone(s.Strategies)
	s.Fired = maps.Clone(s.Fired)
	s.Causes = maps.Clone(s.Causes)
	if n := s.Rounds; n > 0 {
		s.MeanPending = float64(c.pending) / float64(n)
		s.MeanQualified = float64(s.Executed) / float64(n)
		s.MeanRoundDuration = s.TotalRoundTime / time.Duration(n)
	}
	return s
}

// count adds n under name, allocating the map on first use; rounds that
// report no name are not counted.
func count(m *map[string]int, name string, n int) {
	if name == "" {
		return
	}
	if *m == nil {
		*m = make(map[string]int)
	}
	(*m)[name] += n
}

// Snapshot is one consistent view of a Collector: the aggregate summary and
// both histograms, captured in a single critical section.
type Snapshot struct {
	Summary Summary
	Latency HistogramSnapshot // per-request middleware latency (ns)
	Exec    HistogramSnapshot // per-batch server execution time (ns)
	// Load is the latest rebalancer load report (zero Shards when none was
	// recorded); QualifiedImbalance is the max/mean ratio of per-shard
	// qualified totals over the whole run (0 on one-shard runs).
	Load               LoadSnapshot
	QualifiedImbalance float64
}

// Snapshot captures the round counters and both histograms while holding all
// three locks at once, so concurrent observers (the STATS wire command, the
// load harness's mid-run scrapes) never see torn state — e.g. an executed
// count from one round paired with a latency count from the previous one.
// Lock order is collector then histograms; nothing acquires the other way,
// so the nesting cannot deadlock.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Latency.mu.Lock()
	defer c.Latency.mu.Unlock()
	c.Exec.mu.Lock()
	defer c.Exec.mu.Unlock()
	return Snapshot{
		Summary:            c.summariseLocked(),
		Latency:            c.Latency.snapshotLocked(),
		Exec:               c.Exec.snapshotLocked(),
		Load:               c.load,
		QualifiedImbalance: c.qualifiedImbalanceLocked(),
	}
}

// qualifiedImbalanceLocked is the max/mean ratio of the shards' qualified
// totals — the run-level skew observable (0 with fewer than two shards).
func (c *Collector) qualifiedImbalanceLocked() float64 {
	if len(c.parts) < 2 {
		return 0
	}
	var total, max int64
	for _, p := range c.parts {
		total += p.qualified
		if p.qualified > max {
			max = p.qualified
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(c.parts))
	return float64(max) / mean
}

// String renders the snapshot as one STATS line: the counters and tails, then
// which evaluation strategies the rounds ran, why the rounds fired and why
// transactions were aborted.
func (s Snapshot) String() string {
	line := fmt.Sprintf("%s latency_p50=%s latency_p99=%s latency_p999=%s exec_batches=%d exec_p99=%s",
		s.Summary,
		time.Duration(s.Latency.P50), time.Duration(s.Latency.P99), time.Duration(s.Latency.P999),
		s.Exec.Count, time.Duration(s.Exec.P99))
	if s.QualifiedImbalance > 0 {
		line += fmt.Sprintf(" imbalance=%.2f", s.QualifiedImbalance)
	}
	if len(s.Load.Shards) > 0 {
		line += fmt.Sprintf(" load_imbalance=%.2f slot_moves=%d table_v=%d",
			s.Load.Imbalance, s.Load.Moves, s.Load.Version)
		for _, t := range s.Load.TopSlots {
			line += fmt.Sprintf(" hot_slot=%d@%d:%.1f", t.Slot, t.Shard, t.Load)
		}
	}
	if strat := s.Summary.StrategyString(); strat != "" {
		line += " strategies[" + strat + "]"
	}
	if fired := s.Summary.FiredString(); fired != "" {
		line += " fired[" + fired + "]"
	}
	if causes := s.Summary.CauseString(); causes != "" {
		line += " victims[" + causes + "]"
	}
	return line
}

// PartitionSummary is one shard's aggregate view under the partitioned
// scheduler.
type PartitionSummary struct {
	Partition int
	// Rounds counts the super-rounds in which this shard was active (had
	// queued or pending work).
	Rounds int
	// Qualified and Victims total the shard's committed requests (replica
	// copies of cross-partition terminations count in every shard they
	// released locks in) and the victims whose abort touched the shard.
	Qualified    int64
	Victims      int64
	MeanPending  float64
	MeanDuration time.Duration // mean protocol evaluation time per active round
}

// PartitionSummaries aggregates the per-shard records, sorted by partition
// index. Empty when AddPartitionRound was never called (one-shard runs).
func (c *Collector) PartitionSummaries() []PartitionSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PartitionSummary, 0, len(c.parts))
	for i, p := range c.parts {
		n := len(p.rounds) // >= 1: a log exists once a round was added
		out = append(out, PartitionSummary{
			Partition:    i,
			Rounds:       n,
			Qualified:    p.qualified,
			Victims:      p.victims,
			MeanPending:  float64(p.pending) / float64(n),
			MeanDuration: p.dur / time.Duration(n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out
}

// String renders one shard's summary line.
func (s PartitionSummary) String() string {
	return fmt.Sprintf("partition=%d rounds=%d qualified=%d victims=%d mean_pending=%.1f mean_round=%s",
		s.Partition, s.Rounds, s.Qualified, s.Victims, s.MeanPending, s.MeanDuration)
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("rounds=%d executed=%d aborted=%d mean_pending=%.1f mean_qualified=%.1f mean_round=%s total_round=%s",
		s.Rounds, s.Executed, s.Aborted, s.MeanPending, s.MeanQualified, s.MeanRoundDuration, s.TotalRoundTime)
}

// Durability counts the journal and recovery work of the durable storage
// backend. All fields are atomics so the journal writer, the checkpointer
// and readers (stats endpoints, tests) touch them without a lock. The zero
// value is ready to use.
type Durability struct {
	// BytesJournaled and RecordsJournaled count what the write-ahead
	// journal appended (header bytes included, torn tails excluded —
	// partially written records are counted only by the byte prefix that
	// reached the file).
	BytesJournaled   atomic.Int64
	RecordsJournaled atomic.Int64
	// Syncs counts fsyncs of the journal file (group commit amortizes
	// these: one per SyncEvery commit-batch boundaries, not per record).
	Syncs atomic.Int64
	// Checkpoints counts completed checkpoints; CheckpointBytes totals the
	// page-file bytes they wrote.
	Checkpoints     atomic.Int64
	CheckpointBytes atomic.Int64
	// TornRecords counts journal records discarded at recovery because the
	// tail was torn (short final record or CRC mismatch) — everything from
	// the first invalid frame onward.
	TornRecords atomic.Int64
	// ReplayedRecords counts journal records scanned by the last recovery;
	// ReplayNanos is how long that replay took. After a checkpoint only the
	// journal tail remains, so ReplayedRecords is the observable for the
	// "recovery replays only the tail" invariant.
	ReplayedRecords atomic.Int64
	ReplayNanos     atomic.Int64
}

// String renders the counters as a one-line summary.
func (d *Durability) String() string {
	return fmt.Sprintf("journaled=%dB/%drec syncs=%d checkpoints=%d (%dB) replayed=%drec in %s torn=%d",
		d.BytesJournaled.Load(), d.RecordsJournaled.Load(), d.Syncs.Load(),
		d.Checkpoints.Load(), d.CheckpointBytes.Load(),
		d.ReplayedRecords.Load(), time.Duration(d.ReplayNanos.Load()), d.TornRecords.Load())
}

// StrategyString renders the per-strategy round counts as
// "name=count name=count ...", sorted by name ("" when no strategy was
// reported) — the one-line view of which evaluation paths ran.
func (s Summary) StrategyString() string { return countsString(s.Strategies) }

// FiredString renders the per-reason round counts the same way — the
// one-line view of why rounds ran.
func (s Summary) FiredString() string { return countsString(s.Fired) }

// CauseString renders the per-cause victim counts the same way — the
// one-line view of why transactions were aborted.
func (s Summary) CauseString() string { return countsString(s.Causes) }

func countsString(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, counts[n])
	}
	return b.String()
}
