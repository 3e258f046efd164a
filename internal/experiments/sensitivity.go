package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// SensitivityPoint is one cell of the workload-sensitivity study: the
// paper's Section 5 says "different workloads with more complex statements
// have to be analyzed"; this harness varies access skew (hot rows), write
// share and transaction length and reports how the native scheduler's MU/SU
// ratio responds at a fixed client count.
type SensitivityPoint struct {
	Label    string
	Clients  int
	Result   sim.Result
	RatioPct float64
}

// hotSpotObjects maps a fraction of accesses onto a small hot set,
// approximating skew in the simulator (which draws objects uniformly): we
// shrink the effective object space so that the collision probability
// matches a workload where hotFrac of accesses hit hotCount rows.
func hotSpotObjects(objects int64, hotFrac float64, hotCount int64) int64 {
	if hotFrac <= 0 {
		return objects
	}
	// Collision probability of two accesses: p = hotFrac^2/hotCount +
	// (1-hotFrac)^2/objects. The uniform-equivalent object count is 1/p.
	p := hotFrac*hotFrac/float64(hotCount) + (1-hotFrac)*(1-hotFrac)/float64(objects)
	eq := int64(1 / p)
	if eq < 1 {
		eq = 1
	}
	if eq > objects {
		eq = objects
	}
	return eq
}

// Sensitivity runs the sweep at the given client count and budget scale.
func Sensitivity(clients int, scale float64) []SensitivityPoint {
	if scale <= 0 {
		scale = 1
	}
	base := sim.PaperSimConfig(clients)
	base.BudgetTicks = int64(float64(base.BudgetTicks) * scale)

	mk := func(label string, mut func(*sim.Config)) SensitivityPoint {
		cfg := base
		mut(&cfg)
		r := sim.Run(cfg)
		return SensitivityPoint{Label: label, Clients: clients, Result: r, RatioPct: r.RatioPct()}
	}
	return []SensitivityPoint{
		mk("paper (20r+20w, uniform)", func(*sim.Config) {}),
		mk("read-mostly (36r+4w)", func(c *sim.Config) { c.ReadsPerTxn, c.WritesPerTxn = 36, 4 }),
		mk("write-heavy (4r+36w)", func(c *sim.Config) { c.ReadsPerTxn, c.WritesPerTxn = 4, 36 }),
		mk("short txns (5r+5w)", func(c *sim.Config) { c.ReadsPerTxn, c.WritesPerTxn = 5, 5 }),
		mk("long txns (40r+40w)", func(c *sim.Config) { c.ReadsPerTxn, c.WritesPerTxn = 40, 40 }),
		mk("10% on 100 hot rows", func(c *sim.Config) { c.Objects = hotSpotObjects(c.Objects, 0.10, 100) }),
		mk("25% on 100 hot rows", func(c *sim.Config) { c.Objects = hotSpotObjects(c.Objects, 0.25, 100) }),
	}
}

// FormatSensitivity renders the sweep.
func FormatSensitivity(points []SensitivityPoint) string {
	var b strings.Builder
	if len(points) > 0 {
		fmt.Fprintf(&b, "Workload sensitivity of native scheduler overhead (%d clients)\n\n", points[0].Clients)
	}
	fmt.Fprintf(&b, "%-28s %12s %10s %10s %10s\n", "workload", "MU stmts", "ratio %", "deadlocks", "aborts")
	for _, p := range points {
		fmt.Fprintf(&b, "%-28s %12d %10.0f %10d %10d\n",
			p.Label, p.Result.CommittedStatements, p.RatioPct, p.Result.Deadlocks, p.Result.AbortedTxns)
	}
	b.WriteString("\nexpected shape: overhead grows with write share, transaction length and skew;\n")
	b.WriteString("read-mostly and short-transaction workloads stay near 100%\n")
	return b.String()
}
