// Package costmodel holds the adaptive strategy cost model of the SQL
// executor's delta-maintenance-vs-full-re-evaluation choice: it
// predicts each strategy's round time as an observed per-work-unit cost
// (an exponentially weighted moving average) times the round's work, falling
// back to a static churn-factor rule until measurements exist.
package costmodel

// EWMAAlpha weights a new observation into a strategy's cost average: high
// enough to self-tune within a few rounds of a workload shift, low enough to
// ride out scheduler jitter. Clamp bounds a single observation's influence
// (a GC pause or scheduler stall during one round must not flip the model in
// one step), and DecayAlpha pulls the not-chosen strategy's estimate back
// toward the static-rule-consistent value each round — the re-exploration
// escape hatch: a once-inflated estimate decays until its strategy is chosen
// and re-measured for real.
const (
	EWMAAlpha  = 0.25
	Clamp      = 8.0
	DecayAlpha = 1.0 / 16
)

// EWMA is an exponentially weighted moving average of one strategy's
// observed cost per unit of work (churned tuples for the delta strategies,
// standing affected facts for the recompute strategies).
type EWMA struct {
	PerUnit float64
	Samples int
}

// Observe folds one measured round (ns over units of work) into the average,
// clamping outliers to Clamp times the running estimate. Zero-work rounds
// are not observations: dividing a round's fixed overhead by a floored unit
// count would seed the per-unit estimate orders of magnitude too high.
func (c *EWMA) Observe(ns float64, units int) {
	if units <= 0 {
		return
	}
	v := ns / float64(units)
	if c.Samples > 0 && c.PerUnit > 0 {
		if v > c.PerUnit*Clamp {
			v = c.PerUnit * Clamp
		} else if v < c.PerUnit/Clamp {
			v = c.PerUnit / Clamp
		}
	}
	if c.Samples == 0 {
		c.PerUnit = v
	} else {
		c.PerUnit += (v - c.PerUnit) * EWMAAlpha
	}
	c.Samples++
}

// DecayToward relaxes a stale estimate toward target (the value the static
// rule would imply from the other strategy's fresh measurement). Without
// this, one inflated sample could lock the model out of a strategy forever:
// the losing side is never re-run, so its estimate would never correct.
func (c *EWMA) DecayToward(target float64) {
	if c.Samples == 0 || target <= 0 {
		return
	}
	c.PerUnit += (target - c.PerUnit) * DecayAlpha
}

// Candidate is one strategy in a multi-way Pick: the strategy's cost
// average, the units of work it would process this round, the per-unit cost
// assumed while it has no observations (typically borrowed from a measured
// sibling and scaled by the static rule's factor), and a multiplicative bias
// on its predicted cost. Bias > 1 handicaps a candidate — the hysteresis
// hook: a strategy whose selection pays a fixed setup cost (e.g. dropping and
// later rebuilding a standing cache) is only chosen when it wins by that
// margin. Bias <= 0 means unbiased.
type Candidate struct {
	Cost        *EWMA
	Units       int
	FallbackPer float64
	Bias        float64
}

// Pick returns the index of the candidate with the lowest predicted round
// cost (bias x per-unit x units), using each candidate's observed average
// when it has samples and its fallback otherwise. Ties go to the earliest
// candidate, so callers list strategies in preference order (warm re-run vs
// per-tuple delta vs bulk recompute-of-affected).
func Pick(cands []Candidate) int {
	best, bestCost := 0, 0.0
	for i := range cands {
		c := &cands[i]
		per := c.FallbackPer
		if c.Cost != nil && c.Cost.Samples > 0 {
			per = c.Cost.PerUnit
		}
		bias := c.Bias
		if bias <= 0 {
			bias = 1
		}
		cost := bias * per * float64(c.Units)
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
