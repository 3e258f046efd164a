package experiments

import (
	"strings"
	"testing"
)

func pointsByLabel(points []SensitivityPoint) map[string]SensitivityPoint {
	out := make(map[string]SensitivityPoint, len(points))
	for _, p := range points {
		out[p.Label] = p
	}
	return out
}

func TestSensitivityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	points := Sensitivity(300, 0.1)
	by := pointsByLabel(points)
	paper := by["paper (20r+20w, uniform)"]
	if paper.RatioPct <= 100 {
		t.Fatalf("paper workload ratio %.0f%%", paper.RatioPct)
	}
	if rm := by["read-mostly (36r+4w)"]; rm.RatioPct >= paper.RatioPct {
		t.Errorf("read-mostly should reduce overhead: %.0f%% vs %.0f%%", rm.RatioPct, paper.RatioPct)
	}
	if wh := by["write-heavy (4r+36w)"]; wh.RatioPct < paper.RatioPct {
		t.Errorf("write-heavy should not reduce overhead: %.0f%% vs %.0f%%", wh.RatioPct, paper.RatioPct)
	}
	if st := by["short txns (5r+5w)"]; st.RatioPct >= paper.RatioPct {
		t.Errorf("short txns should reduce overhead: %.0f%% vs %.0f%%", st.RatioPct, paper.RatioPct)
	}
	if hot := by["25% on 100 hot rows"]; hot.RatioPct <= by["10% on 100 hot rows"].RatioPct/2 {
		t.Errorf("more skew should not halve overhead: %.0f%% vs %.0f%%",
			hot.RatioPct, by["10% on 100 hot rows"].RatioPct)
	}
	if !strings.Contains(FormatSensitivity(points), "workload") {
		t.Error("format broken")
	}
}

func TestHotSpotObjects(t *testing.T) {
	// No skew: unchanged.
	if got := hotSpotObjects(100000, 0, 100); got != 100000 {
		t.Errorf("no skew: %d", got)
	}
	// Heavy skew shrinks the effective space drastically.
	got := hotSpotObjects(100000, 0.25, 100)
	if got >= 100000 || got < 100 {
		t.Errorf("25%% hot: %d", got)
	}
	more := hotSpotObjects(100000, 0.5, 100)
	if more >= got {
		t.Errorf("more skew must shrink more: %d vs %d", more, got)
	}
	// Degenerate: everything on one row.
	if got := hotSpotObjects(100000, 1.0, 1); got != 1 {
		t.Errorf("all-hot: %d", got)
	}
}
