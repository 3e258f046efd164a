package metrics

import (
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
	// Observations spread one per power-of-two bucket: value 1<<i lands in
	// bucket i+1 with upper bound 1<<(i+1)-1, so rank r maps to a unique,
	// predictable bound.
	bound := func(rank int) int64 {
		if rank <= 0 {
			rank = 1
		}
		return int64(1)<<rank - 1 // observation 1<<(rank-1) sits in bucket rank
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
		h.Observe(1) // bucket 1, bound 1
	}
	h.Observe(1 << 20) // bucket 21
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("P99 of 99x1+1x2^20: got %d, want 1", got)
	}
	if got := h.Quantile(0.999); got != int64(1)<<21-1 {
		t.Errorf("P999 of 99x1+1x2^20: got %d, want %d (must reach the tail)", got, int64(1)<<21-1)
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
