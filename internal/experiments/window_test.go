package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"phasetune/internal/dist"
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
// check: the same grid through the local worker pool (Config.sweep) and
// sharded across in-process fabric workers yields byte-identical results.
func TestSweepShardsMatchesLocalPool(t *testing.T) {
	cfg := windowConfig(t)
	grid := windowGrid(cfg, []uint64{8000}, []sim.Policy{sim.PolicyDynamicProbe})
	grid = append(grid, showdownGrid(cfg)[:2]...) // add none + static cells
	requireFabricMatchesSweep(t, cfg, grid)
}

// requireFabricMatchesSweep runs grid through cfg.sweep and through a
// 2-worker dist.RunLocal fabric on the same campaign, and requires
// byte-identical results.
func requireFabricMatchesSweep(t *testing.T, cfg Config, grid []dist.Spec) {
	t.Helper()
	want, err := cfg.sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.RunLocal(context.Background(), dist.Campaign{Env: cfg.Env(), Specs: grid},
		dist.LocalOptions{Workers: 2})
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
