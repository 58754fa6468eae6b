package experiments

import (
	"testing"

	"phasetune/internal/sim"
)

// windowConfig returns a small config for window-sweep assertions.
func windowConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Scale(6, 60, []uint64{5})
}

// TestWindowSweepShape covers the driver: one row per (window, policy) in
// grid order, each with real monitoring activity behind it.
func TestWindowSweepShape(t *testing.T) {
	cfg := windowConfig(t)
	windows := []uint64{4000, 16000}
	policies := []sim.Policy{sim.PolicyDynamicGreedy, sim.PolicyDynamicProbe}
	rows, err := WindowSweep(cfg, windows, policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(windows)*len(policies) {
		t.Fatalf("%d rows, want %d", len(rows), len(windows)*len(policies))
	}
	i := 0
	for _, w := range windows {
		for _, p := range policies {
			r := rows[i]
			i++
			if r.WindowInstrs != w || r.Policy != p {
				t.Fatalf("row %d = (%d,%s), want (%d,%s)", i-1, r.WindowInstrs, r.Policy, w, p)
			}
			if r.Windows <= 0 {
				t.Errorf("%d/%s: no detection windows accepted", w, p)
			}
			if r.MonitorPct <= 0 {
				t.Errorf("%d/%s: no monitoring overhead charged", w, p)
			}
		}
	}
}
