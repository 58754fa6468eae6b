package experiments

import (
	"bytes"
	"encoding/json"
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

// TestSweepShardsMatchesLocalPool is the experiments-layer determinism
// check: the same grid through the fabric (Shards) and through the local
// worker pool yields byte-identical results.
func TestSweepShardsMatchesLocalPool(t *testing.T) {
	cfg := windowConfig(t)
	grid := windowGrid(cfg, []uint64{8000}, []sim.Policy{sim.PolicyDynamicProbe})
	grid = append(grid, showdownGrid(cfg)[:2]...) // add none + static cells

	local := cfg
	want, err := local.sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	fabric := cfg
	fabric.Cache = nil // workers bring their own caches
	fabric.Shards = 2
	got, err := fabric.sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("cell %d: fabric result differs from local pool", i)
		}
	}
}
