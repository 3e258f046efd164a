package metrics

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count: %d", h.Count())
	}
	if h.Mean() != (1+2+3+100+1000)/5 {
		t.Errorf("mean: %d", h.Mean())
	}
	if h.Max() != 1000 {
		t.Errorf("max: %d", h.Max())
	}
	if q := h.Quantile(0.5); q < 3 || q > 7 {
		t.Errorf("p50 bound: %d", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 bound: %d", q)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.9) != 0 {
		t.Error("empty histogram not zero")
	}
	h.Observe(-5)
	h.Observe(0)
	if h.Count() != 2 || h.Max() != 0 {
		t.Errorf("negative clamp: count=%d max=%d", h.Count(), h.Max())
	}
}

// TestHistogramQuantileRank pins the ceiling-rank definition against exact
// bucket bounds at small counts: the q-quantile of n observations is the
// bucket upper bound of the smallest observation whose rank is ceil(q*n).
// The floored rank this replaces returned the 99th of 100 observations for
// P99 and collapsed P999 onto P99 for every count below 1000.
func TestHistogramQuantileRank(t *testing.T) {
	// Observations spread one per power of two: each lands in its own
	// bucket, so rank r maps to a unique, predictable bound.
	bound := func(rank int) int64 {
		if rank <= 0 {
			rank = 1
		}
		return upperOfPowerOfTwo(rank - 1) // observation 1<<(rank-1)
	}
	cases := []struct {
		n    int     // observations: 1<<0 .. 1<<(n-1)
		q    float64 //
		rank int     // expected ceiling rank ceil(q*n)
	}{
		{n: 10, q: 0.50, rank: 5},
		{n: 10, q: 0.90, rank: 9},
		{n: 10, q: 0.99, rank: 10},  // floor would give rank 9
		{n: 10, q: 0.999, rank: 10}, // floor would give rank 9
		{n: 10, q: 1.0, rank: 10},
		{n: 4, q: 0.50, rank: 2},
		{n: 4, q: 0.75, rank: 3},
		{n: 4, q: 0.76, rank: 4}, // floor would give rank 3
		{n: 1, q: 0.001, rank: 1},
		{n: 1, q: 1.0, rank: 1},
		{n: 3, q: 0.999, rank: 3},
		{n: 20, q: 0.99, rank: 20}, // floor would give rank 19
	}
	for _, tc := range cases {
		var h Histogram
		for i := 0; i < tc.n; i++ {
			h.Observe(int64(1) << i)
		}
		if got, want := h.Quantile(tc.q), bound(tc.rank); got != want {
			t.Errorf("n=%d q=%g: got %d, want %d (rank %d)", tc.n, tc.q, got, want, tc.rank)
		}
	}
	// P99 at exactly 100 observations must return the largest observation's
	// bucket bound (rank ceil(99.0)=99 of values 0..99 all in low buckets is
	// uninformative; use two distinct magnitudes instead): 99 small + 1 large
	// means P99 covers the 99th small value, and P999 must reach the large one.
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(1) // bound 1
	}
	h.Observe(1 << 20)
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("P99 of 99x1+1x2^20: got %d, want 1", got)
	}
	if got, want := h.Quantile(0.999), upperOfPowerOfTwo(20); got != want {
		t.Errorf("P999 of 99x1+1x2^20: got %d, want %d (must reach the tail)", got, want)
	}
}

// upperOfPowerOfTwo is the largest value in the bucket of 1<<k: below 16
// every value has its own bucket, above it 1<<k starts a bucket 1/16 of
// itself wide.
func upperOfPowerOfTwo(k int) int64 {
	if k < 4 {
		return int64(1) << k
	}
	return int64(1)<<k + int64(1)<<(k-4) - 1
}

// TestHistogramQuantilesWithinSixteenth checks P50/P90/P99/P999 against the
// exact ceiling-rank quantiles of known distributions: every reading is an
// upper bound at most 1/16 above the exact value (exact below 16). The
// two-cluster load puts its p50 and p99 in one power of two, [1024, 2048),
// which a power-of-two histogram could only report as the same bound.
func TestHistogramQuantilesWithinSixteenth(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	const n = 20000
	dists := map[string]func(i int) int64{
		"uniform":     func(int) int64 { return rnd.Int63n(1_000_000) },
		"exponential": func(int) int64 { return int64(rnd.ExpFloat64() * 50_000) },
		"lognormal":   func(int) int64 { return int64(math.Exp(rnd.NormFloat64()*2 + 10)) },
		"small":       func(int) int64 { return rnd.Int63n(40) },
		"two-cluster": func(i int) int64 {
			if i%50 == 0 { // 2%: the slow cluster
				return 1900 + rnd.Int63n(100)
			}
			return 1100 + rnd.Int63n(100)
		},
	}
	for name, draw := range dists {
		var h Histogram
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = draw(i)
			h.Observe(vals[i])
		}
		slices.Sort(vals)
		snap := h.Snapshot()
		for _, c := range []struct {
			q   float64
			got int64
		}{{0.50, snap.P50}, {0.90, snap.P90}, {0.99, snap.P99}, {0.999, snap.P999}} {
			exact := vals[int(math.Ceil(c.q*n))-1]
			if c.got < exact || c.got > exact+exact/16 {
				t.Errorf("%s: P%g = %d, exact %d: outside [exact, exact+exact/16]", name, 100*c.q, c.got, exact)
			}
		}
		if name == "two-cluster" {
			if bits.Len64(uint64(snap.P50)) != bits.Len64(uint64(snap.P99)) {
				t.Fatalf("two-cluster: p50 %d and p99 %d are not in one power of two; the load no longer tests the split", snap.P50, snap.P99)
			}
			if snap.P99-snap.P50 < 600 {
				t.Errorf("two-cluster: p50 %d and p99 %d not separated", snap.P50, snap.P99)
			}
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count: %d", h.Count())
	}
}

func TestCollectorSummarise(t *testing.T) {
	c := NewCollector()
	c.AddRound(RoundStats{Pending: 10, Qualified: 5, Duration: time.Millisecond})
	c.AddRound(RoundStats{Pending: 20, Qualified: 15, Victims: 1, Duration: 3 * time.Millisecond})
	s := c.Summarise()
	if s.Rounds != 2 || s.Executed != 20 || s.Aborted != 1 {
		t.Errorf("summary: %+v", s)
	}
	if s.MeanPending != 15 || s.MeanQualified != 10 {
		t.Errorf("means: %+v", s)
	}
	if s.MeanRoundDuration != 2*time.Millisecond {
		t.Errorf("mean duration: %v", s.MeanRoundDuration)
	}
	if s.String() == "" {
		t.Error("empty string")
	}
	if got := c.Rounds(); len(got) != 2 {
		t.Errorf("rounds copy: %d", len(got))
	}
	if c.Executed() != 20 || c.Aborted() != 1 {
		t.Errorf("counters: %d %d", c.Executed(), c.Aborted())
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	s := c.Summarise()
	if s.Rounds != 0 || s.MeanPending != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

// TestStrategyCounting: per-round strategy labels aggregate into Summary.
// Strategies and render deterministically via StrategyString — the SQL
// protocol's sql-ivm / sql-cold rounds and the Datalog engine's recompute
// rounds land in the same map. The trigger reasons (RoundStats.Fired) count
// the same way, independently.
func TestStrategyCounting(t *testing.T) {
	c := NewCollector()
	fired := []string{FiredReturned, FiredReturned, FiredLevel, "", FiredEvery, FiredReturned}
	for i, s := range []string{"sql-ivm", "sql-ivm", "sql-cold", "recompute", "sql-ivm-build", ""} {
		c.AddRound(RoundStats{Pending: 1, Strategy: s, Fired: fired[i]})
	}
	sum := c.Summarise()
	if got, want := sum.FiredString(), "every=1 level=1 returned=3"; got != want {
		t.Fatalf("FiredString = %q, want %q", got, want)
	}
	if sum.Strategies["sql-ivm"] != 2 || sum.Strategies["sql-cold"] != 1 ||
		sum.Strategies["recompute"] != 1 || sum.Strategies["sql-ivm-build"] != 1 {
		t.Fatalf("strategies: %v", sum.Strategies)
	}
	if _, ok := sum.Strategies[""]; ok {
		t.Fatal("unreported strategy counted")
	}
	want := "recompute=1 sql-cold=1 sql-ivm=2 sql-ivm-build=1"
	if got := sum.StrategyString(); got != want {
		t.Fatalf("StrategyString = %q, want %q", got, want)
	}
	if got := NewCollector().Summarise().StrategyString(); got != "" {
		t.Fatalf("empty StrategyString = %q", got)
	}
}

// TestCauseCounting: abort causes (RoundStats.Cause) count victims, not
// rounds — a cycle round that aborts three transactions counts three — and
// the STATS line carries them after fired[…] as victims[…].
func TestCauseCounting(t *testing.T) {
	c := NewCollector()
	c.AddRound(RoundStats{Pending: 4, Qualified: 1, Fired: FiredLevel})
	c.AddRound(RoundStats{Pending: 4, Victims: 3, Cause: VictimCycle, Fired: FiredLevel})
	c.AddRound(RoundStats{Pending: 4, Victims: 1, Cause: VictimStarvedOldest, Fired: FiredLevel})
	c.AddRound(RoundStats{Pending: 4, Victims: 1, Cause: VictimStarvedOldest, Fired: FiredLevel})
	c.AddRound(RoundStats{Pending: 4, Victims: 2, Cause: VictimStarvedCycle, Fired: FiredLevel})
	sum := c.Summarise()
	want := "cycle=3 starved-cycle=2 starved-oldest=2"
	if got := sum.CauseString(); got != want {
		t.Fatalf("CauseString = %q, want %q", got, want)
	}
	if sum.Aborted != 7 {
		t.Fatalf("Aborted = %d, want 7 (the causes' total)", sum.Aborted)
	}
	if line := c.Snapshot().String(); !strings.HasSuffix(line, " fired[level=5] victims["+want+"]") {
		t.Fatalf("STATS line %q does not end in fired[…] victims[…]", line)
	}
	if got := NewCollector().Snapshot().String(); strings.Contains(got, "victims[") {
		t.Fatalf("STATS line without victims carries a victims field: %q", got)
	}
}

// walkSummary is the reference for the collector's running totals: the
// summary computed by walking every round record.
func walkSummary(rounds []RoundStats) Summary {
	s := Summary{Rounds: len(rounds)}
	if len(rounds) == 0 {
		return s
	}
	var pend, qual int64
	var dur time.Duration
	for _, r := range rounds {
		s.Executed += int64(r.Qualified)
		s.Aborted += int64(r.Victims)
		pend += int64(r.Pending)
		qual += int64(r.Qualified)
		dur += r.Duration
		s.Cross += int64(r.Cross)
		count(&s.Strategies, r.Strategy, 1)
		count(&s.Fired, r.Fired, 1)
		count(&s.Causes, r.Cause, r.Victims)
	}
	n := len(rounds)
	s.MeanPending = float64(pend) / float64(n)
	s.MeanQualified = float64(qual) / float64(n)
	s.MeanRoundDuration = dur / time.Duration(n)
	s.TotalRoundTime = dur
	return s
}

// walkPartitions is the reference per-shard summary and the max/mean
// qualified imbalance, walked over each shard's round records.
func walkPartitions(c *Collector, parts int) ([]PartitionSummary, float64) {
	var out []PartitionSummary
	var total, max int64
	for p := 0; p < parts; p++ {
		rounds := c.PartitionRounds(p)
		if len(rounds) == 0 {
			continue
		}
		ps := PartitionSummary{Partition: p, Rounds: len(rounds)}
		var pend int64
		var dur time.Duration
		for _, r := range rounds {
			ps.Qualified += int64(r.Qualified)
			ps.Victims += int64(r.Victims)
			pend += int64(r.Pending)
			dur += r.Duration
		}
		ps.MeanPending = float64(pend) / float64(len(rounds))
		ps.MeanDuration = dur / time.Duration(len(rounds))
		out = append(out, ps)
		total += ps.Qualified
		if ps.Qualified > max {
			max = ps.Qualified
		}
	}
	if len(out) < 2 || total == 0 {
		return out, 0
	}
	return out, float64(max) / (float64(total) / float64(len(out)))
}

// randomRound draws a round record over the label sets the collector counts.
func randomRound(rnd *rand.Rand, partition int) RoundStats {
	pick := func(names ...string) string { return names[rnd.Intn(len(names))] }
	rs := RoundStats{
		Pending:   rnd.Intn(500),
		Qualified: rnd.Intn(100),
		Duration:  time.Duration(rnd.Intn(1e6)),
		Total:     time.Duration(rnd.Intn(2e6)),
		Strategy:  pick("", "cold", "recompute", "sql-ivm"),
		Fired:     pick("", FiredLevel, FiredEvery, FiredReturned),
		Partition: partition,
		Cross:     rnd.Intn(3),
	}
	if rnd.Intn(4) == 0 {
		rs.Victims = 1 + rnd.Intn(3)
		rs.Cause = pick(VictimCycle, VictimStarvedOldest, VictimWound)
	}
	return rs
}

// TestCollectorFoldsMatchWalk: after random merged and per-shard adds, the
// running totals behind Summarise, PartitionSummaries and Snapshot equal a
// walk over Rounds() and PartitionRounds(), and the records themselves are
// all still there.
func TestCollectorFoldsMatchWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		const parts = 4
		c := NewCollector()
		n := 1 + rnd.Intn(2000)
		for i := 0; i < n; i++ {
			c.AddRound(randomRound(rnd, MergedPartition))
			for p := 0; p < parts; p++ {
				if p != 3 || seed%2 == 0 { // odd seeds leave shard 3 idle
					c.AddPartitionRound(randomRound(rnd, p))
				}
			}
		}
		rounds := c.Rounds()
		if len(rounds) != n {
			t.Fatalf("seed %d: Rounds() kept %d of %d records", seed, len(rounds), n)
		}
		want := walkSummary(rounds)
		if got := c.Summarise(); !reflect.DeepEqual(got, want) ||
			got.Executed != c.Executed() || got.Aborted != c.Aborted() {
			t.Fatalf("seed %d: folded summary\n%+v\nwalked\n%+v", seed, got, want)
		}
		wantParts, wantImb := walkPartitions(c, parts)
		if got := c.PartitionSummaries(); !reflect.DeepEqual(got, wantParts) {
			t.Fatalf("seed %d: folded partition summaries\n%v\nwalked\n%v", seed, got, wantParts)
		}
		snap := c.Snapshot()
		if !reflect.DeepEqual(snap.Summary, want) || snap.QualifiedImbalance != wantImb {
			t.Fatalf("seed %d: snapshot summary %+v imbalance %g, walked %+v %g",
				seed, snap.Summary, snap.QualifiedImbalance, want, wantImb)
		}
	}
}

// TestCollectorSummaryIsACopy: a caller that edits a summary's maps does not
// edit the collector's running counts.
func TestCollectorSummaryIsACopy(t *testing.T) {
	c := NewCollector()
	c.AddRound(RoundStats{Strategy: "cold", Fired: FiredLevel, Victims: 1, Cause: VictimCycle})
	s := c.Summarise()
	s.Strategies["cold"] = 99
	s.Fired[FiredLevel] = 99
	s.Causes[VictimCycle] = 99
	if got := c.Summarise(); got.Strategies["cold"] != 1 || got.Fired[FiredLevel] != 1 || got.Causes[VictimCycle] != 1 {
		t.Fatalf("editing a returned summary changed the collector: %+v", got)
	}
}

// TestSnapshotCostIsFlat: a scrape allocates the same after 100 rounds as
// after 20,000 — it reads running totals and never walks the records.
func TestSnapshotCostIsFlat(t *testing.T) {
	allocs := func(rounds int) float64 {
		rnd := rand.New(rand.NewSource(3))
		c := NewCollector()
		for i := 0; i < rounds; i++ {
			c.AddRound(randomRound(rnd, MergedPartition))
			c.AddPartitionRound(randomRound(rnd, i%4))
			c.Latency.Observe(int64(rnd.Intn(1e6)))
		}
		c.PartitionSummaries()
		return testing.AllocsPerRun(20, func() {
			c.Snapshot()
			c.PartitionSummaries()
		})
	}
	if small, large := allocs(100), allocs(20000); large > small {
		t.Fatalf("a scrape allocates %v times after 20,000 rounds, %v after 100", large, small)
	}
}

// TestCollectorConcurrentScrapes races adds against every scrape (-race
// coverage of the running totals and the cloned maps): once the adders are
// done, the totals count every round exactly once.
func TestCollectorConcurrentScrapes(t *testing.T) {
	c := NewCollector()
	const adders, perAdder = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAdder; i++ {
				c.AddRound(RoundStats{Pending: 2, Qualified: 1, Strategy: "cold", Fired: FiredLevel})
				c.AddPartitionRound(RoundStats{Partition: g, Qualified: 1})
			}
		}(g)
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Snapshot()
				if m := s.Summary.Strategies; m != nil {
					m["cold"]++ // a caller's copy; must not race the adders
				}
				_ = c.Summarise().String()
				c.PartitionSummaries()
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	s := c.Summarise()
	if s.Rounds != adders*perAdder || s.Executed != adders*perAdder || s.Strategies["cold"] != adders*perAdder {
		t.Fatalf("after %d adds: %+v strategies %v", adders*perAdder, s, s.Strategies)
	}
	for _, ps := range c.PartitionSummaries() {
		if ps.Rounds != perAdder || ps.Qualified != perAdder {
			t.Fatalf("partition %d: %+v, want %d rounds", ps.Partition, ps, perAdder)
		}
	}
}
