package experiments

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/sim"
)

// TestBreakdownShape covers the driver plumbing on a tiny grid: row order
// (machine-major, rate-major, window order), the repeated reference
// columns, per-machine static references, and one frontier row per
// (machine, rate).
func TestBreakdownShape(t *testing.T) {
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(4, 40, []uint64{5})
	machines := []*amp.Machine{amp.Quad2Fast2Slow(), amp.Hex2Big2Medium2Little()}
	alts := []int{8, 512}
	windows := []uint64{4000, 16000}
	res, err := Breakdown(cfg, machines, alts, windows)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(machines) * len(alts) * len(windows); len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	if want := len(machines) * len(alts); len(res.Frontier) != want {
		t.Fatalf("%d frontier rows, want %d", len(res.Frontier), want)
	}
	i := 0
	for _, m := range machines {
		wantStatic := sim.PolicyStatic
		if len(m.Types) > 2 {
			wantStatic = sim.PolicyStaticSpill
		}
		for _, a := range alts {
			for _, w := range windows {
				r := res.Rows[i]
				i++
				if r.Machine != m.Name || r.Alternations != a || r.WindowInstrs != w {
					t.Fatalf("row %d = (%s,%d,%d), want (%s,%d,%d)",
						i-1, r.Machine, r.Alternations, r.WindowInstrs, m.Name, a, w)
				}
				if r.StaticPolicy != wantStatic {
					t.Errorf("row %d static reference %s, want %s", i-1, r.StaticPolicy, wantStatic)
				}
				if r.Rate <= 0 {
					t.Errorf("row %d carries no alternation rate", i-1)
				}
				if r.DeltaPct != r.DynamicPct-r.StaticPct {
					t.Errorf("row %d delta %.3f != dynamic %.3f - static %.3f",
						i-1, r.DeltaPct, r.DynamicPct, r.StaticPct)
				}
			}
		}
	}
}

// TestBreakdownDynamicDegradesPastWindow pins the map's monotone segment —
// the paper's §V claim in one inequality: at a fixed window, the
// dynamic-vs-static delta at an alternation rate whose phase period has
// shrunk to the window's scale is strictly worse than at a rate the window
// tracks comfortably. (The delta is non-monotone at the axis extremes —
// past ~10^5 alternations/Binstr positional tracking pays switch storms
// and both schemes collapse toward the baseline — so the pin is on the
// tracked-vs-blended segment, not the whole axis.)
func TestBreakdownDynamicDegradesPastWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy workload sweep at the claim regime")
	}
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(18, 100, []uint64{5, 42})
	res, err := Breakdown(cfg, []*amp.Machine{amp.Quad2Fast2Slow()}, []int{4, 64}, []uint64{8000})
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := res.Rows[0], res.Rows[1]
	if slow.Alternations != 4 || fast.Alternations != 64 {
		t.Fatalf("unexpected row order: %+v", res.Rows)
	}
	if fast.DeltaPct >= slow.DeltaPct {
		t.Errorf("dynamic delta did not degrade past the window: alt.x64 %+.2fpp vs alt.x4 %+.2fpp",
			fast.DeltaPct, slow.DeltaPct)
	}
}

// TestShowdownDampedHybridTrade pins the drift-damping acceptance
// criterion on the quad: at the showdown operating point the ε-damped
// hybrid must suppress re-decisions (Damped > 0, Refreshes strictly
// lower), never switch more, and stay within half a percentage point of
// the undamped hybrid's throughput.
func TestShowdownDampedHybridTrade(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy workload sweep at the claim regime")
	}
	cfg := showdownConfig(t, 5)
	seed := cfg.Seeds[0]
	grid := []dist.Spec{
		showdownRunCfg(cfg, sim.PolicyNone, seed),
		showdownRunCfg(cfg, sim.PolicyHybrid, seed),
		showdownRunCfg(cfg, sim.PolicyHybridDamped, seed),
	}
	results, err := cfg.sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	base, hybrid, damped := results[0], results[1], results[2]
	if hybrid.Online == nil || damped.Online == nil {
		t.Fatal("hybrid runs carry no online stats")
	}
	if damped.Online.Damped == 0 {
		t.Error("damped hybrid suppressed no re-decisions at the showdown operating point")
	}
	if damped.Online.Refreshes >= hybrid.Online.Refreshes {
		t.Errorf("damped refreshes %d not below undamped %d",
			damped.Online.Refreshes, hybrid.Online.Refreshes)
	}
	if damped.Online.Switches > hybrid.Online.Switches {
		t.Errorf("damping raised switch volume: %d > %d",
			damped.Online.Switches, hybrid.Online.Switches)
	}
	bt := metrics.ThroughputOver(base.Samples, 0, cfg.DurationSec)
	ht := metrics.PercentIncrease(bt, metrics.ThroughputOver(hybrid.Samples, 0, cfg.DurationSec))
	dt := metrics.PercentIncrease(bt, metrics.ThroughputOver(damped.Samples, 0, cfg.DurationSec))
	if ht-dt > 0.5 {
		t.Errorf("damping cost %.2fpp throughput (hybrid %+.2f%%, damped %+.2f%%), budget 0.5pp",
			ht-dt, ht, dt)
	}
}
