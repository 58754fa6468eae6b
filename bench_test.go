// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact), plus ablations and micro-benchmarks of the
// core components. Results are reported through b.ReportMetric so
// `go test -bench=. -benchmem` prints the reproduced quantities alongside
// timing. The workload dimensions are scaled down (8 slots, 200 simulated
// seconds, one seed) so a full -bench pass stays in the minutes range;
// cmd/experiments runs the full-size versions.
package phasetune_test

import (
	"testing"

	"phasetune"
	"phasetune/internal/amp"
	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/experiments"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/rng"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// benchConfig returns the scaled experiment configuration: the paper's
// smallest workload size (18 slots) over a halved window and a single seed.
// Smaller slot counts change the queueing regime qualitatively (pinning
// needs statistical multiplexing to pay off), so the slot count is not
// scaled down.
func benchConfig(b *testing.B) experiments.Config {
	b.Helper()
	cfg, err := experiments.Default()
	if err != nil {
		b.Fatal(err)
	}
	return cfg.Scale(18, 400, []uint64{5})
}

// BenchmarkFig3SpaceOverhead regenerates the space-overhead boxes (paper
// Fig. 3: best technique < 4%).
func BenchmarkFig3SpaceOverhead(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3SpaceOverhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "Loop[45]" {
				b.ReportMetric(100*r.Box.Max, "loop45-max-overhead-%")
				b.ReportMetric(r.MeanMarks, "loop45-marks/bench")
			}
		}
	}
}

// BenchmarkFig4TimeOverhead regenerates the all-cores time overhead (paper
// Fig. 4: as low as 0.14%).
func BenchmarkFig4TimeOverhead(b *testing.B) {
	cfg := benchConfig(b)
	best := []transition.Params{experiments.BestParams()}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4TimeOverhead(cfg, best)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].OverheadPct, "loop45-overhead-%")
	}
}

// BenchmarkTable1Switches regenerates per-benchmark switch counts (paper
// Table 1).
func BenchmarkTable1Switches(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1Switches(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Benchmark {
			case "183.equake":
				b.ReportMetric(float64(r.Switches), "equake-switches")
			case "459.GemsFDTD":
				b.ReportMetric(float64(r.Switches), "gems-switches")
			}
		}
	}
}

// BenchmarkFig5CyclesPerSwitch regenerates the amortization figure (paper
// Fig. 5: every switching benchmark amortizes its ~1000-cycle switches).
func BenchmarkFig5CyclesPerSwitch(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1Switches(cfg)
		if err != nil {
			b.Fatal(err)
		}
		min := 0.0
		for _, r := range rows {
			if r.CyclesPerSwitch > 0 && (min == 0 || r.CyclesPerSwitch < min) {
				min = r.CyclesPerSwitch
			}
		}
		b.ReportMetric(min, "min-cycles/switch")
		b.ReportMetric(osched.CoreSwitchCycles, "switch-cost-cycles")
	}
}

// BenchmarkFig6ThresholdSweep regenerates the δ sweep (paper Fig. 6:
// extremes degrade, optimum in between).
func BenchmarkFig6ThresholdSweep(b *testing.B) {
	cfg := benchConfig(b)
	deltas := []float64{0, 0.06, 0.4}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Thresholds(cfg, deltas)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ImprovementPct, "tput-at-delta0-%")
		b.ReportMetric(rows[1].ImprovementPct, "tput-at-mid-%")
		b.ReportMetric(rows[2].ImprovementPct, "tput-at-high-%")
	}
}

// BenchmarkFig7ClusteringError regenerates the error-robustness sweep
// (paper Fig. 7: little loss at 10%, some gain left at 20%).
func BenchmarkFig7ClusteringError(b *testing.B) {
	cfg := benchConfig(b)
	errs := []float64{0, 0.2}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7ClusteringError(cfg, errs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ImprovementPct, "tput-err0-%")
		b.ReportMetric(rows[1].ImprovementPct, "tput-err20-%")
	}
}

// BenchmarkTable2Fairness regenerates the fairness comparison for the best
// variant (paper Table 2 best row: 12.04 / 20.41 / 35.95).
func BenchmarkTable2Fairness(b *testing.B) {
	cfg := benchConfig(b)
	best := []transition.Params{experiments.BestParams()}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Fairness(cfg, best)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgTimePct, "avg-time-decrease-%")
		b.ReportMetric(rows[0].MaxFlowPct, "max-flow-decrease-%")
		b.ReportMetric(rows[0].MaxStretchPct, "max-stretch-decrease-%")
	}
}

// BenchmarkFig8Tradeoff regenerates the speedup-vs-fairness scatter for a
// small variant subset (paper Fig. 8, drawn from the Table 2 rows).
func BenchmarkFig8Tradeoff(b *testing.B) {
	cfg := benchConfig(b)
	variants := []transition.Params{
		{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
		experiments.BestParams(),
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Fairness(cfg, variants)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].AvgTimePct, "loop45-avg-time-%")
	}
}

// BenchmarkCoreSwitchCost regenerates the §IV-B3 micro-measurement.
func BenchmarkCoreSwitchCost(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.SwitchCost(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DescaledCycles, "descaled-cycles/switch")
	}
}

// BenchmarkTypingAccuracy regenerates the §II-A3 typing-accuracy check
// (paper: ~15% misclassified).
func BenchmarkTypingAccuracy(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.TypingAccuracy(cfg, 0.06)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-r.Agreement), "misclassified-%")
	}
}

// BenchmarkThreeCoreSetup regenerates the §VII future-work configuration.
func BenchmarkThreeCoreSetup(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.ThreeCore(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgTimePct, "avg-time-decrease-%")
	}
}

// Ablations (DESIGN.md §5, "Experiment drivers").

func BenchmarkAblationPinMode(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationPinMode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgTimePct, "pin-type-avg-%")
		b.ReportMetric(rows[1].AvgTimePct, "pin-core-avg-%")
	}
}

func BenchmarkAblationMonitorBound(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMonitorBound(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgTimePct, "bounded-avg-%")
		b.ReportMetric(rows[1].AvgTimePct, "mark-only-avg-%")
	}
}

func BenchmarkAblationLookahead(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		for _, la := range []int{0, 2} {
			params := transition.Params{
				Technique: transition.BasicBlock, MinSize: 15, Lookahead: la,
				PropagateThroughUntyped: true,
			}
			marks := 0
			for _, bench := range cfg.Suite {
				a, err := sim.Analyze(bench.Prog, cfg.Typing, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				art, err := a.Instrument(params, cfg.Cost)
				if err != nil {
					b.Fatal(err)
				}
				marks += art.Stats.Marks
			}
			if la == 0 {
				b.ReportMetric(float64(marks), "marks-lookahead0")
			} else {
				b.ReportMetric(float64(marks), "marks-lookahead2")
			}
		}
	}
}

func BenchmarkAblationTemporal(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationTemporal(cfg, 50000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgTimePct, "positional-avg-%")
		b.ReportMetric(rows[1].AvgTimePct, "temporal-avg-%")
	}
}

// Micro-benchmarks of the core components.

func BenchmarkCFGConstruction(b *testing.B) {
	suite, err := phasetune.Suite()
	if err != nil {
		b.Fatal(err)
	}
	p := suite[0].Prog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.BuildAll(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseTyping(b *testing.B) {
	suite, err := phasetune.Suite()
	if err != nil {
		b.Fatal(err)
	}
	p := suite[0].Prog
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phase.ClusterBlocks(p, graphs, phase.Options{K: 2, MinBlockInstrs: 5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstrumentPipeline(b *testing.B) {
	suite, err := phasetune.Suite()
	if err != nil {
		b.Fatal(err)
	}
	p := suite[0].Prog
	cost := exec.DefaultCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sim.Analyze(p, phase.Options{K: 2, MinBlockInstrs: 5}, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Instrument(experiments.BestParams(), cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterSteps times the kernel's step loop, RunLane, over
// every suite image on the quad machine's fast core: each op runs one
// 100,000-cycle burst of each image's process, restarting a process that
// exits. It reports ns per simulated thousand instructions.
func BenchmarkInterpreterSteps(b *testing.B) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	suite, err := workload.Suite(cost, machine)
	if err != nil {
		b.Fatal(err)
	}
	par := &exec.ParamsFor(cost, machine)[0]
	r := rng.New(1)
	procs := make([]*exec.Process, len(suite))
	for i, bm := range suite {
		img, err := exec.NewImage(bm.Prog, nil, cost)
		if err != nil {
			b.Fatal(err)
		}
		procs[i] = exec.NewProcess(1, img, &cost, r.Uint64(), nil)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range procs {
			if p.Exited() {
				instrs += p.Counters.Instructions
				p = exec.NewProcess(1, p.Img, &cost, r.Uint64(), nil)
				procs[j] = p
			}
			p.RunLane(p.Lane(par, 4096, par.PsPerCycle), 0, 100_000)
		}
	}
	for _, p := range procs {
		instrs += p.Counters.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(instrs)/1000), "ns/kinstr")
}

func BenchmarkWorkloadSecond(b *testing.B) {
	// Cost of simulating one loaded second (8 slots, baseline).
	suite, err := phasetune.Suite()
	if err != nil {
		b.Fatal(err)
	}
	w := workload.BuildWorkload(suite, 8, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunConfig{Workload: w, DurationSec: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
