package experiments

import (
	"testing"

	"phasetune/internal/osched"
	"phasetune/internal/transition"
)

// quickConfig shrinks everything so the whole experiment surface can be
// smoke-tested in CI time.
func quickConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Scale(6, 60, []uint64{5})
}

func TestTechniqueGridShape(t *testing.T) {
	grid := TechniqueGrid()
	if len(grid) != 18 {
		t.Fatalf("grid has %d variants, want 18 (paper Table 2)", len(grid))
	}
	names := map[string]bool{}
	for _, p := range grid {
		names[p.Name()] = true
	}
	for _, want := range []string{"BB[10,0]", "BB[15,2]", "BB[20,3]", "Int[45]", "Loop[45]", "Loop[60]"} {
		if !names[want] {
			t.Errorf("grid missing %s", want)
		}
	}
}

func TestFig3SpaceOverheadShape(t *testing.T) {
	cfg := quickConfig(t)
	rows, err := Fig3SpaceOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]SpaceRow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.Box.Min < 0 || r.Box.Max > 1 {
			t.Errorf("%s: overhead box out of range: %+v", r.Variant, r.Box)
		}
		if len(r.Overheads) != len(cfg.Suite) {
			t.Errorf("%s: %d overhead points", r.Variant, len(r.Overheads))
		}
	}
	// Paper's headline: the loop technique stays under 4%.
	if best := byName["Loop[45]"]; best.Box.Max >= 0.04 {
		t.Errorf("Loop[45] max overhead = %.3f, want < 0.04", best.Box.Max)
	}
	// Larger min size must not increase the median overhead (Fig. 3 trend).
	if byName["BB[20,0]"].Box.Median > byName["BB[10,0]"].Box.Median {
		t.Error("BB median overhead not decreasing with min size")
	}
}

func TestTable1SwitchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation runs")
	}
	cfg := quickConfig(t)
	rows, err := Table1Switches(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SwitchRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	// Zero-phase benchmarks never switch (paper: 459, 473).
	if byName["459.GemsFDTD"].Switches != 0 {
		t.Errorf("GemsFDTD switched %d times, want 0", byName["459.GemsFDTD"].Switches)
	}
	if byName["473.astar"].Switches != 0 {
		t.Errorf("astar switched %d times, want 0", byName["473.astar"].Switches)
	}
	// The heavy alternators dominate the switch counts (paper: equake,
	// bzip2, swim, mgrid at the top).
	if byName["183.equake"].Switches < 10*byName["181.mcf"].Switches {
		t.Errorf("equake (%d) not clearly above mcf (%d)",
			byName["183.equake"].Switches, byName["181.mcf"].Switches)
	}
	// Every switching benchmark amortizes: cycles per switch far above the
	// configured switch cost (Fig. 5's conclusion).
	for _, r := range rows {
		if r.Switches == 0 {
			continue
		}
		if r.CyclesPerSwitch < 5*osched.CoreSwitchCycles {
			t.Errorf("%s: %.0f cycles/switch does not amortize cost %d",
				r.Benchmark, r.CyclesPerSwitch, osched.CoreSwitchCycles)
		}
	}
}

func TestFig4OverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	cfg := quickConfig(t)
	rows, err := Fig4TimeOverhead(cfg, []transition.Params{BestParams()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Loop-technique time overhead must be small (paper < 0.2%; allow a few
	// percent at this tiny scale where noise dominates).
	if rows[0].OverheadPct > 3 {
		t.Errorf("Loop[45] time overhead = %.2f%%, want small", rows[0].OverheadPct)
	}
	if rows[0].MarksExecuted == 0 {
		t.Error("no marks executed in overhead mode")
	}
}

func TestSwitchCostMeasurement(t *testing.T) {
	cfg := quickConfig(t)
	r, err := SwitchCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Switches == 0 {
		t.Fatal("probe never switched")
	}
	// The measured cost must be within a small factor of the configured
	// cost (the probe methodology is approximate, like the paper's).
	configured := float64(osched.CoreSwitchCycles + osched.ContextSwitchCycles)
	if r.CyclesPerSwitch < 0.3*configured || r.CyclesPerSwitch > 10*configured {
		t.Errorf("measured %.0f cycles/switch vs configured %.0f", r.CyclesPerSwitch, configured)
	}
	if r.DescaledCycles < r.CyclesPerSwitch {
		t.Error("descaled cost not larger than scaled")
	}
}

func TestTypingAccuracy(t *testing.T) {
	cfg := quickConfig(t)
	r, err := TypingAccuracy(cfg, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks == 0 {
		t.Fatal("no blocks compared")
	}
	// Paper: ~15% misclassified; require clearly-better-than-chance.
	if r.Agreement < 0.7 {
		t.Errorf("typing agreement = %.2f, want >= 0.7", r.Agreement)
	}
}

func TestFig6And7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweeps")
	}
	cfg := quickConfig(t)
	rows, err := Fig6Thresholds(cfg, []float64{0.06})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("fig6 rows = %d", len(rows))
	}
	erows, err := Fig7ClusteringError(cfg, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(erows) != 2 {
		t.Fatalf("fig7 rows = %d", len(erows))
	}
	if erows[0].ErrorPct != 0 || erows[1].ErrorPct != 30 {
		t.Errorf("error percentages = %v, %v", erows[0].ErrorPct, erows[1].ErrorPct)
	}
}

func TestIsolationTimesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation runs")
	}
	cfg := quickConfig(t)
	iso, err := IsolationTimes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cfg.Suite {
		if iso[b.Name()] <= 0 {
			t.Errorf("%s: no isolation time", b.Name())
		}
	}
}

func TestScale(t *testing.T) {
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Scale(4, 100, []uint64{1, 2})
	if s.Slots != 4 || s.DurationSec != 100 || len(s.Seeds) != 2 {
		t.Errorf("Scale produced %+v", s)
	}
	// Original unchanged (value semantics).
	if cfg.Slots == 4 {
		t.Error("Scale mutated the receiver")
	}
}

func TestBestParamsIsLoop45(t *testing.T) {
	p := BestParams()
	if p.Name() != "Loop[45]" {
		t.Errorf("BestParams = %s, want Loop[45]", p.Name())
	}
}
