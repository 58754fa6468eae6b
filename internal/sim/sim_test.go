package sim

import (
	"context"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/metrics"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

func suite(t *testing.T) []*workload.Benchmark {
	t.Helper()
	s, err := workload.Suite(exec.DefaultCostModel(), amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}
	return s
}

// instrumentFor runs the whole static pipeline on one program, Analyze then
// Instrument, with the typing options these tests share.
func instrumentFor(t testing.TB, p *prog.Program, params transition.Params, cm exec.CostModel) *Artifact {
	t.Helper()
	a, err := Analyze(p, phase.Options{K: 2, MinBlockInstrs: 5}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := a.Instrument(params, cm)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func loopParams() transition.Params {
	return transition.Params{
		Technique:               transition.Loop,
		MinSize:                 45,
		PropagateThroughUntyped: true,
	}
}

func runPair(t *testing.T, slots int, durationSec float64) (base, tuned *Result) {
	t.Helper()
	s := suite(t)
	w := workload.BuildWorkload(s, slots, 64, 99)
	var err error
	base, err = Run(RunConfig{Workload: w, DurationSec: durationSec, Mode: Baseline, Seed: 7})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	tuned, err = Run(RunConfig{
		Workload:    w,
		DurationSec: durationSec,
		Mode:        Tuned,
		Params:      loopParams(),
		Tuning:      tuning.DefaultConfig(),
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("tuned run: %v", err)
	}
	return base, tuned
}

func TestTunedImprovesAvgProcessTime(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	base, tuned := runPair(t, 12, 120)
	bAvg := metrics.AvgProcessTime(base.Tasks)
	tAvg := metrics.AvgProcessTime(tuned.Tasks)
	if metrics.CompletedCount(base.Tasks) == 0 || metrics.CompletedCount(tuned.Tasks) == 0 {
		t.Fatalf("no completions: base %d tuned %d",
			metrics.CompletedCount(base.Tasks), metrics.CompletedCount(tuned.Tasks))
	}
	t.Logf("avg process time: baseline %.2fs tuned %.2fs (%.1f%% decrease), completions %d/%d",
		bAvg, tAvg, metrics.PercentDecrease(bAvg, tAvg),
		metrics.CompletedCount(base.Tasks), metrics.CompletedCount(tuned.Tasks))
	if tAvg >= bAvg {
		t.Errorf("tuned avg process time %.2f not better than baseline %.2f", tAvg, bAvg)
	}
}

func TestTunedSwitchesOccur(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	_, tuned := runPair(t, 8, 60)
	totalMigrations, totalMarks := 0, uint64(0)
	for _, task := range tuned.Tasks {
		totalMigrations += task.Migrations
		totalMarks += task.MarksExecuted
	}
	if totalMarks == 0 {
		t.Error("no phase marks executed in tuned run")
	}
	if totalMigrations == 0 {
		t.Error("no core switches in tuned run")
	}
}

func TestBaselineAndTunedShareWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	base, tuned := runPair(t, 6, 40)
	// The first len(slots) tasks must be the same benchmarks in the same
	// slots (same queues, same seeds — the paper's comparison protocol).
	for i := 0; i < 6; i++ {
		if base.Tasks[i].Name != tuned.Tasks[i].Name || base.Tasks[i].Slot != tuned.Tasks[i].Slot {
			t.Errorf("slot %d: baseline ran %s, tuned ran %s", i, base.Tasks[i].Name, tuned.Tasks[i].Name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	s := suite(t)
	w := workload.BuildWorkload(s, 4, 16, 5)
	cfg := RunConfig{Workload: w, DurationSec: 30, Mode: Tuned, Params: loopParams(),
		Tuning: tuning.DefaultConfig(), Seed: 11}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalInstructions != b.TotalInstructions {
		t.Errorf("identical configs: %d vs %d instructions", a.TotalInstructions, b.TotalInstructions)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs between identical runs", i)
		}
	}
}

func TestOverheadModeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	s := suite(t)
	w := workload.BuildWorkload(s, 6, 32, 21)
	base, err := Run(RunConfig{Workload: w, DurationSec: 60, Mode: Baseline, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(RunConfig{Workload: w, DurationSec: 60, Mode: Overhead,
		Params: loopParams(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bTput := float64(base.TotalInstructions)
	oTput := float64(over.TotalInstructions)
	// Marks execute but all-cores affinity never forces migrations: the
	// instrumented run must be within a few percent of baseline (paper
	// <0.2% for the loop technique at scale; allow slack at this tiny size).
	rel := (bTput - oTput) / bTput
	t.Logf("overhead mode throughput delta: %.3f%%", rel*100)
	if rel > 0.05 {
		t.Errorf("overhead run lost %.1f%% throughput, want < 5%%", rel*100)
	}
	marks := uint64(0)
	for _, task := range over.Tasks {
		marks += task.MarksExecuted
	}
	if marks == 0 {
		t.Error("overhead mode executed no marks")
	}
}

func TestIsolationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation simulation")
	}
	s := suite(t)
	cfg := RunConfig{Machine: amp.Quad2Fast2Slow(), Mode: Baseline, Seed: 1}
	iso, err := IsolationContext(context.Background(), cfg, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Isolation runs only the two modes its callers use; the rest must fail
	// loudly instead of running as a silent baseline.
	for _, mode := range []Mode{Overhead, Dynamic, Hybrid, Oracle, Mode(99)} {
		bad := cfg
		bad.Mode = mode
		if _, err := IsolationContext(context.Background(), bad, s, 0); err == nil {
			t.Errorf("isolation accepted mode %v", mode)
		}
	}
	if len(iso) != len(s) {
		t.Fatalf("isolation results for %d benchmarks, want %d", len(iso), len(s))
	}
	// Runtimes should roughly match the designed targets (within 40%: the
	// generator's analytic estimate ignores queueing and rounding).
	flow := map[string]float64{}
	for i, b := range s {
		r := iso[i]
		if r.Name != b.Name() || !r.Completed() || r.FlowSec() <= 0 {
			t.Errorf("%s: no isolation runtime (record %+v)", b.Name(), r)
			continue
		}
		flow[r.Name] = r.FlowSec()
		ratio := r.FlowSec() / b.Spec.TargetSec
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%s: isolation runtime %.1fs vs target %.1fs (ratio %.2f)",
				b.Name(), r.FlowSec(), b.Spec.TargetSec, ratio)
		}
	}
	// Relative ordering of the longest vs shortest benchmarks must hold.
	if flow["410.bwaves"] < flow["164.gzip"] {
		t.Error("bwaves not longer than gzip")
	}
}

func TestPrepareImageStats(t *testing.T) {
	s := suite(t)
	var gems *workload.Benchmark
	for _, b := range s {
		if b.Name() == "459.GemsFDTD" {
			gems = b
		}
	}
	if gems == nil {
		t.Fatal("suite missing 459.GemsFDTD")
	}
	art := instrumentFor(t, gems.Prog, loopParams(), exec.DefaultCostModel())
	img, stats := art.Image, art.Stats
	// A single-behavior benchmark must collapse to one phase type and carry
	// no marks (Table 1 shows zero switches for GemsFDTD).
	if stats.EffectiveK != 1 {
		t.Errorf("GemsFDTD effective K = %d, want 1", stats.EffectiveK)
	}
	if stats.Marks != 0 {
		t.Errorf("GemsFDTD has %d marks, want 0", stats.Marks)
	}
	if img.NumMarks() != 0 {
		t.Errorf("image mark table not empty")
	}
}

func TestRunRejectsEmptyWorkload(t *testing.T) {
	if _, err := Run(RunConfig{Workload: &workload.Workload{}, DurationSec: 1}); err == nil {
		t.Error("empty workload accepted")
	}
}
