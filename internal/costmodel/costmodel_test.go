package costmodel

import "testing"

func TestObserveClampAndEWMA(t *testing.T) {
	var c EWMA
	c.Observe(1000, 0) // zero work: not an observation
	if c.Samples != 0 {
		t.Fatalf("zero-work round observed: %+v", c)
	}
	c.Observe(1000, 10) // seeds at 100 ns/unit
	if c.PerUnit != 100 || c.Samples != 1 {
		t.Fatalf("seed: %+v", c)
	}
	// A wild outlier is clamped to Clamp x the running estimate before the
	// EWMA folds it in.
	c.Observe(1e9, 1)
	max := 100 + (100*Clamp-100)*EWMAAlpha
	if c.PerUnit > max+1e-9 {
		t.Fatalf("outlier not clamped: %v > %v", c.PerUnit, max)
	}
	before := c.PerUnit
	c.DecayToward(before / 2)
	if c.PerUnit >= before {
		t.Fatalf("decay did not move the estimate: %v", c.PerUnit)
	}
	var fresh EWMA
	fresh.DecayToward(50)
	if fresh.Samples != 0 || fresh.PerUnit != 0 {
		t.Fatalf("decay moved an unobserved estimate: %+v", fresh)
	}
}

func TestPickMultiWay(t *testing.T) {
	var ivm, bulk, warm EWMA
	ivm.Observe(1000, 10)   // 100 ns/churned unit
	bulk.Observe(2000, 100) // 20 ns/standing unit
	warm.Observe(5000, 100) // 50 ns/standing unit

	// Small churn: per-tuple delta wins (100*5 < 20*100 < 50*100).
	got := Pick([]Candidate{
		{Cost: &ivm, Units: 5},
		{Cost: &bulk, Units: 100},
		{Cost: &warm, Units: 100},
	})
	if got != 0 {
		t.Fatalf("small churn picked %d, want 0 (ivm)", got)
	}

	// Large churn: bulk recompute wins (100*50 > 20*100).
	got = Pick([]Candidate{
		{Cost: &ivm, Units: 50},
		{Cost: &bulk, Units: 100},
		{Cost: &warm, Units: 100},
	})
	if got != 1 {
		t.Fatalf("large churn picked %d, want 1 (bulk)", got)
	}

	// Bias handicaps a candidate: bulk at 4x no longer beats warm's 50/unit.
	got = Pick([]Candidate{
		{Cost: &ivm, Units: 60},
		{Cost: &bulk, Units: 100, Bias: 4},
		{Cost: &warm, Units: 100},
	})
	if got != 2 {
		t.Fatalf("biased pick %d, want 2 (warm)", got)
	}

	// Unobserved candidates use FallbackPer; ties go to the earliest.
	var a, b EWMA
	got = Pick([]Candidate{
		{Cost: &a, Units: 10, FallbackPer: 7},
		{Cost: &b, Units: 10, FallbackPer: 7},
	})
	if got != 0 {
		t.Fatalf("tie picked %d, want 0", got)
	}
	got = Pick([]Candidate{
		{Cost: &a, Units: 10, FallbackPer: 9},
		{Cost: &b, Units: 10, FallbackPer: 7},
	})
	if got != 1 {
		t.Fatalf("fallback pick %d, want 1", got)
	}
}
