// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV), plus the ablations called out in DESIGN.md.
// Each driver is a pure function of its Config and returns typed rows; the
// cmd/experiments binary renders them as paper-style tables and the root
// bench harness replays them under testing.B.
//
// Every driver runs on the sim.Sweep engine: run grids fan out across a
// bounded worker pool (Config.Workers) and all static-pipeline products are
// served by one shared artifact cache (Config.Cache), so an experiment
// campaign instruments each distinct (benchmark, technique) pair exactly
// once no matter how many runs, seeds, or drivers consume it. Results are
// independent of the worker count: each run is a pure function of its
// configuration.
package experiments

import (
	"context"
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/metrics"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// Config holds the shared experiment environment.
type Config struct {
	// Machine is the platform (defaults to the paper's quad AMP).
	Machine *amp.Machine
	// Cost is the timing model.
	Cost exec.CostModel
	// Sched is the scheduler's counter pool (CounterContention varies it).
	Sched osched.Config
	// Suite is the benchmark suite.
	Suite []*workload.Benchmark
	// Slots is the workload size (paper: 18-84).
	Slots int
	// QueueLen is the per-slot queue length.
	QueueLen int
	// DurationSec is the workload horizon (Table 2: 800 s; Figs. 6-7
	// measure the first 400 s).
	DurationSec float64
	// Seeds are the workload seeds; results aggregate over them.
	Seeds []uint64
	// Typing configures static block typing.
	Typing phase.Options
	// Tuning is the runtime configuration (δ etc.).
	Tuning tuning.Config
	// Workers bounds concurrent runs in sweeps (<=0 uses GOMAXPROCS).
	Workers int
	// Cache is the shared artifact cache; every driver's image
	// preparations go through it. Fabric workers keep their own.
	Cache *sim.ImageCache
	// Memo is ignored: the segment memo is gone.
	//
	// Deprecated: kept until bench/ drops it.
	Memo *exec.SegmentMemo
	// Ledger enables conserved cycle accounting on every run of every
	// driver (sim.RunConfig.Ledger via the environment wire form). The
	// showdown and serving drivers then fill their attribution columns.
	Ledger bool
}

// Default returns the configuration used throughout EXPERIMENTS.md.
func Default() (Config, error) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	suite, err := workload.Suite(cost, machine)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Machine:     machine,
		Cost:        cost,
		Suite:       suite,
		Slots:       18,
		QueueLen:    256,
		DurationSec: 800,
		Seeds:       []uint64{5, 42, 99},
		Typing:      phase.Options{}.Normalized(),
		Tuning:      tuning.DefaultConfig(),
		Cache:       sim.NewImageCache(),
	}, nil
}

// cache returns the campaign cache, building one on first use so
// zero-value Configs still share artifacts within a driver call.
func (c *Config) cache() *sim.ImageCache {
	if c.Cache == nil {
		c.Cache = sim.NewImageCache()
	}
	return c.Cache
}

// artifact fetches one benchmark's prepared image through the shared cache.
func (c *Config) artifact(b *workload.Benchmark, params transition.Params) (*sim.Artifact, error) {
	return c.cache().Get(b.Prog, sim.ImageSpec{Params: params, Typing: c.Typing}, c.Cost)
}

// Env is the wire form of the config environment — what fabric workers
// rebuild their stack (suite included) from. Config.Suite must be the
// canonical suite for (Cost, Machine), which Default and the machine-
// iterating drivers guarantee.
func (c *Config) Env() dist.EnvSpec {
	return dist.EnvSpec{Version: dist.SpecVersion, Machine: *c.Machine, Cost: c.Cost,
		Sched: c.Sched, Typing: c.Typing, Ledger: c.Ledger}
}

// on specializes the config to one machine, with the machine's canonical
// suite.
func (c Config) on(machine *amp.Machine) (Config, error) {
	c.Machine = machine
	suite, err := workload.Suite(c.Cost, machine)
	c.Suite = suite
	return c, err
}

// campaign packages a grid cut on one machine as a distributable campaign.
func (c Config) campaign(machine *amp.Machine, grid func(Config) []dist.Spec) dist.Campaign {
	c.Machine = machine
	return dist.Campaign{Env: c.Env(), Specs: grid(c)}
}

// runCfg assembles one sweep cell in the fabric's wire form: the workload
// travels as its construction parameters, so the same cell runs locally or
// on a remote worker with bit-identical results. The policy lowers onto
// the cell through sim.Policy.Lower; detector policies start from the
// online detector's defaults and decide at the run's δ (tcfg.Delta).
func (c *Config) runCfg(p sim.Policy, params transition.Params, tcfg tuning.Config,
	errFrac float64, seed uint64, durationSec float64) dist.Spec {

	sp := dist.Spec{
		Queues:      workload.Spec{Slots: c.Slots, QueueLen: c.QueueLen, Seed: seed},
		DurationSec: durationSec, Params: params, Tuning: tcfg, Online: online.DefaultConfig(),
		TypingError: errFrac, Seed: seed,
	}
	sp.Mode = p.Lower(&sp.Params, &sp.Tuning, &sp.Online)
	return sp
}

// sweep executes the grid across the local worker pool with the shared
// artifact cache. Results come back in input order, byte-identical to the
// same campaign served to fabric workers.
func (c *Config) sweep(grid []dist.Spec) ([]*sim.Result, error) {
	env := c.Env()
	cfgs := make([]sim.RunConfig, len(grid))
	for i := range grid {
		cfg, err := env.RunConfig(grid[i], c.Suite, nil)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return sim.Sweep(context.Background(), cfgs, sim.SweepOptions{
		Workers: c.Workers,
		Cache:   c.cache(),
	})
}

// baselines runs the stock-scheduler cell, one run per seed (concurrently).
// Baseline runs depend only on (workload seed, duration), so every driver
// that needs them builds the same grid.
func (c *Config) baselines(durationSec float64) (cell, error) {
	cells, err := c.sweepCells(seedGrid(c.Seeds, []sim.Policy{sim.PolicyNone}, func(p sim.Policy, seed uint64) dist.Spec {
		return c.runCfg(p, transition.Params{}, tuning.Config{}, 0, seed, durationSec)
	}))
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// Scale shrinks the workload dimensions for quick runs (benchmarks use it
// so `go test -bench` stays fast). factor 1 keeps defaults.
func (c Config) Scale(slots int, durationSec float64, seeds []uint64) Config {
	c.Slots = slots
	c.DurationSec = durationSec
	c.Seeds = seeds
	return c
}

// TechniqueGrid returns the paper's 18 technique variants (Table 2, Figs.
// 3-4): BB[10/15/20 x lookahead 0-3], Int[30/45/60], Loop[30/45/60].
func TechniqueGrid() []transition.Params {
	var grid []transition.Params
	for _, min := range []int{10, 15, 20} {
		for la := 0; la <= 3; la++ {
			grid = append(grid, transition.Params{
				Technique: transition.BasicBlock, MinSize: min, Lookahead: la,
				PropagateThroughUntyped: true,
			})
		}
	}
	for _, min := range []int{30, 45, 60} {
		grid = append(grid, transition.Params{
			Technique: transition.Interval, MinSize: min, PropagateThroughUntyped: true,
		})
	}
	for _, min := range []int{30, 45, 60} {
		grid = append(grid, transition.Params{
			Technique: transition.Loop, MinSize: min, PropagateThroughUntyped: true,
		})
	}
	return grid
}

// BestParams is the paper's best variant: Loop[45].
func BestParams() transition.Params { return sim.BestParams() }

// ---------------------------------------------------------------------------
// Fig. 3 — space overhead box plots per technique variant.

// SpaceRow is one box in Fig. 3.
type SpaceRow struct {
	// Variant is the paper-style name (BB[10,0], Loop[45], ...).
	Variant string
	// Overheads holds the per-benchmark fractional size increases.
	Overheads []float64
	// Box summarizes them.
	Box metrics.Box
	// MeanMarks is the mean static mark count per benchmark (paper: 20.24
	// for Loop[45]).
	MeanMarks float64
}

// Fig3SpaceOverhead measures instrumented-binary growth for every variant.
// The (variant x benchmark) grid is purely static, so it fans the artifact
// preparations straight across the worker pool.
func Fig3SpaceOverhead(cfg Config) ([]SpaceRow, error) {
	grid := TechniqueGrid()
	nb := len(cfg.Suite)
	stats := make([]sim.ImageStats, len(grid)*nb)
	err := sim.ForEach(context.Background(), len(stats), cfg.Workers, func(i int) error {
		params, b := grid[i/nb], cfg.Suite[i%nb]
		art, err := cfg.artifact(b, params)
		if err != nil {
			return fmt.Errorf("fig3 %s %s: %w", params.Name(), b.Name(), err)
		}
		stats[i] = art.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]SpaceRow, len(grid))
	for vi, params := range grid {
		row := SpaceRow{Variant: params.Name()}
		marks := 0
		for bi := 0; bi < nb; bi++ {
			s := stats[vi*nb+bi]
			row.Overheads = append(row.Overheads, s.SpaceOverhead)
			marks += s.Marks
		}
		row.Box = metrics.BoxStats(row.Overheads)
		row.MeanMarks = float64(marks) / float64(nb)
		rows[vi] = row
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 4 — time overhead (all-cores mode) per technique variant.

// TimeOverheadRow is one bar of Fig. 4.
type TimeOverheadRow struct {
	Variant string
	// OverheadPct is the throughput loss of the instrumented all-cores run
	// versus the unmodified baseline, in percent (paper: as low as 0.14%).
	OverheadPct float64
	// MarksExecuted counts dynamic mark executions across the run.
	MarksExecuted uint64
}

// Fig4TimeOverhead compares baseline and all-cores instrumented runs on the
// same workload (paper: workload size 84). The per-seed baselines run once
// and are shared by every variant; the (variant x seed) overhead grid then
// sweeps concurrently.
func Fig4TimeOverhead(cfg Config, variants []transition.Params) ([]TimeOverheadRow, error) {
	if variants == nil {
		variants = TechniqueGrid()
	}
	base, err := cfg.baselines(cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	cells, err := cfg.sweepCells(seedGrid(cfg.Seeds, variants, func(params transition.Params, seed uint64) dist.Spec {
		return cfg.runCfg(sim.PolicyOverhead, params, tuning.Config{}, 0, seed, cfg.DurationSec)
	}))
	if err != nil {
		return nil, err
	}
	loss := func(b, r *sim.Result) float64 { return -instrPct(b, r) }
	rows := make([]TimeOverheadRow, len(variants))
	for vi, params := range variants {
		rows[vi] = TimeOverheadRow{
			Variant:       params.Name(),
			OverheadPct:   cells[vi].vs(base, loss),
			MarksExecuted: uint64(cells[vi].sum(marks)),
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 1 + Fig. 5 — switches per benchmark and cycles per switch.

// SwitchRow is one row of Table 1 / one bar of Fig. 5.
type SwitchRow struct {
	// Benchmark is the suite member name.
	Benchmark string
	// Switches is the measured core-switch count in a tuned isolation run.
	Switches int
	// RuntimeSec is the isolation runtime.
	RuntimeSec float64
	// PaperSwitches and PaperRuntimeSec echo the paper's Table 1 (switch
	// counts scale with workload.ScaleDivisor).
	PaperSwitches   int
	PaperRuntimeSec float64
	// CyclesPerSwitch is total cycles over switches (Fig. 5, log scale);
	// 0 when the benchmark never switches.
	CyclesPerSwitch float64
}

// Table1Switches runs every benchmark alone under the best technique,
// fanning the suite across the worker pool.
func Table1Switches(cfg Config) ([]SwitchRow, error) {
	iso, err := cfg.isolation(sim.Tuned, BestParams())
	if err != nil {
		return nil, err
	}
	var rows []SwitchRow
	for i, b := range cfg.Suite {
		r := iso[i]
		row := SwitchRow{
			Benchmark:       b.Name(),
			Switches:        r.Migrations,
			RuntimeSec:      r.FlowSec(),
			PaperSwitches:   b.Spec.PaperSwitches,
			PaperRuntimeSec: b.Spec.PaperRuntimeSec,
		}
		if r.Migrations > 0 {
			row.CyclesPerSwitch = float64(r.Cycles) / float64(r.Migrations)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 — throughput vs. IPC threshold δ.

// ThresholdRow is one point of Fig. 6.
type ThresholdRow struct {
	// Delta is the IPC threshold.
	Delta float64
	// ImprovementPct is throughput improvement over baseline in the first
	// 400 s, in percent.
	ImprovementPct float64
}

// Fig6Thresholds sweeps δ with the basic-block strategy (paper: BB, min
// block size 15, lookahead 0). All (δ x seed) tuned runs sweep concurrently
// against per-seed baselines that run once.
func Fig6Thresholds(cfg Config, deltas []float64) ([]ThresholdRow, error) {
	if deltas == nil {
		deltas = []float64{0, 0.02, 0.04, 0.06, 0.1, 0.2, 0.4}
	}
	params := transition.Params{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true}
	specs := make([]tunedSpec, len(deltas))
	for i, d := range deltas {
		tcfg := cfg.Tuning
		tcfg.Delta = d
		specs[i] = tunedSpec{params: params, tuning: tcfg}
	}
	imps, err := throughputImprovements(cfg, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ThresholdRow, len(deltas))
	for i, d := range deltas {
		rows[i] = ThresholdRow{Delta: d, ImprovementPct: imps[i]}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 7 — throughput vs. injected clustering error.

// ErrorRow is one point of Fig. 7.
type ErrorRow struct {
	// ErrorPct is the injected clustering error percentage.
	ErrorPct float64
	// ImprovementPct is throughput improvement over baseline.
	ImprovementPct float64
}

// Fig7ClusteringError sweeps injected typing error (paper: 0-30%, BB[15,0]).
func Fig7ClusteringError(cfg Config, errors []float64) ([]ErrorRow, error) {
	if errors == nil {
		errors = []float64{0, 0.1, 0.2, 0.3}
	}
	params := transition.Params{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true}
	specs := make([]tunedSpec, len(errors))
	for i, e := range errors {
		specs[i] = tunedSpec{params: params, tuning: cfg.Tuning, errFrac: e}
	}
	imps, err := throughputImprovements(cfg, specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ErrorRow, len(errors))
	for i, e := range errors {
		rows[i] = ErrorRow{ErrorPct: e * 100, ImprovementPct: imps[i]}
	}
	return rows, nil
}

// tunedSpec is one tuned-run configuration in a throughput comparison grid.
type tunedSpec struct {
	params  transition.Params
	tuning  tuning.Config
	errFrac float64
}

// throughputImprovements measures tuned-vs-baseline committed-instruction
// throughput over the first min(400, duration) seconds for every spec,
// averaged over seeds. Baselines run once per seed; the (spec x seed) tuned
// grid sweeps concurrently.
func throughputImprovements(cfg Config, specs []tunedSpec) ([]float64, error) {
	window := cfg.DurationSec
	if window > 400 {
		window = 400
	}
	base, err := cfg.baselines(window)
	if err != nil {
		return nil, err
	}
	cells, err := cfg.sweepCells(seedGrid(cfg.Seeds, specs, func(s tunedSpec, seed uint64) dist.Spec {
		return cfg.runCfg(sim.PolicyStatic, s.params, s.tuning, s.errFrac, seed, window)
	}))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(specs))
	for si, c := range cells {
		out[si] = c.vs(base, tputPct(window))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 2 + Fig. 8 — fairness and the speedup/fairness trade-off.

// FairnessRow is one row of Table 2 (and one point of Fig. 8).
type FairnessRow struct {
	// Variant is the technique name.
	Variant string
	// MaxFlowPct, MaxStretchPct, AvgTimePct are percent decreases versus
	// the stock scheduler (positive = improvement), averaged over seeds.
	MaxFlowPct, MaxStretchPct, AvgTimePct float64
	// MatchedAvgPct is the instance-matched average-time decrease: the two
	// runs share workload queues, so a job is identified by (slot, queue
	// position); the mean flow over jobs completed in *both* runs is
	// compared. This removes the completion-composition bias that the raw
	// average carries under finite windows (a run that additionally
	// finishes long or late-arriving jobs is penalized by the raw metric).
	MatchedAvgPct float64
	// ThroughputPct is the throughput improvement (auxiliary).
	ThroughputPct float64
}

// matchedAvgImprovement compares mean flow times over the job instances
// completed in both runs. Compared runs share workload queues, so (slot,
// per-slot spawn ordinal) identifies the same job in both.
func matchedAvgImprovement(base, tuned []metrics.TaskStat) float64 {
	type key struct{ slot, ordinal int }
	collect := func(stats []metrics.TaskStat) map[key]float64 {
		next := map[int]int{}
		out := map[key]float64{}
		for _, t := range stats {
			k := key{t.Slot, next[t.Slot]}
			next[t.Slot]++
			if t.Completed() {
				out[k] = t.FlowSec()
			}
		}
		return out
	}
	b, tn := collect(base), collect(tuned)
	var bSum, tSum float64
	n := 0
	for k, bf := range b {
		tf, ok := tn[k]
		if !ok {
			continue
		}
		bSum += bf
		tSum += tf
		n++
	}
	if n == 0 || bSum == 0 {
		return 0
	}
	return (bSum - tSum) / bSum * 100
}

// Table2Fairness measures the full variant grid against baseline over the
// configured duration (paper: 800 s interval). Per-seed baselines run once;
// the full (variant x seed) tuned grid then sweeps concurrently over the
// shared artifact cache.
func Table2Fairness(cfg Config, variants []transition.Params) ([]FairnessRow, error) {
	if variants == nil {
		variants = TechniqueGrid()
	}
	isoSec, err := IsolationTimes(cfg)
	if err != nil {
		return nil, err
	}
	base, err := cfg.baselines(cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	cells, err := cfg.sweepCells(techniqueGrid(cfg, variants))
	if err != nil {
		return nil, err
	}
	rows := make([]FairnessRow, len(variants))
	for vi, params := range variants {
		if rows[vi], err = fairness(isoSec, base, cells[vi]); err != nil {
			return nil, err
		}
		rows[vi].Variant = params.Name()
	}
	return rows, nil
}

// fairness reduces a cell against the baseline cell to the Table 2
// comparisons, seed-matched and averaged (Variant is left to the caller).
// isoSec holds the isolation runtimes max-stretch divides by.
func fairness(isoSec map[string]float64, base, c cell) (FairnessRow, error) {
	var err error
	stretch := func(r *sim.Result) float64 {
		ms, e := metrics.MaxStretch(r.Tasks, isoSec)
		if err == nil {
			err = e
		}
		return ms
	}
	row := FairnessRow{
		MaxFlowPct:    c.vs(base, decrease(func(r *sim.Result) float64 { return metrics.MaxFlow(r.Tasks) })),
		MaxStretchPct: c.vs(base, decrease(stretch)),
		AvgTimePct:    c.vs(base, avgTimePct),
		MatchedAvgPct: c.vs(base, matchedPct),
		ThroughputPct: c.vs(base, instrPct),
	}
	return row, err
}

// techniqueGrid builds the tuned (variant x seed) grid over the configured
// duration in wire form.
func techniqueGrid(cfg Config, variants []transition.Params) []dist.Spec {
	return seedGrid(cfg.Seeds, variants, func(params transition.Params, seed uint64) dist.Spec {
		return cfg.runCfg(sim.PolicyStatic, params, cfg.Tuning, 0, seed, cfg.DurationSec)
	})
}

// TechniqueCampaign packages the Table 2 tuned grid (every technique
// variant x seed) on one machine as a distributable campaign (cmd/sweepd
// -campaign grid).
func TechniqueCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, func(c Config) []dist.Spec { return techniqueGrid(c, TechniqueGrid()) })
}

// gridTables runs Table 2 and reduces it to one table.
func gridTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := Table2Fairness(cfg, nil)
	if err != nil {
		return nil, err
	}
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""),
		col("max-flow%", "%", "%+.2f"), col("max-stretch%", "%", "%+.2f"), col("avg-time%", "%", "%+.2f"),
		col("matched-avg%", "%", "%+.2f"), col("tput%", "%", "%+.2f")}}
	for _, r := range rows {
		t.AddRow(r.Variant, r.MaxFlowPct, r.MaxStretchPct, r.AvgTimePct, r.MatchedAvgPct, r.ThroughputPct)
	}
	return []benchhist.Table{t}, nil
}

// IsolationTimes returns per-benchmark baseline isolation runtimes (the t_j
// of max-stretch).
func IsolationTimes(cfg Config) (map[string]float64, error) {
	iso, err := cfg.isolation(sim.Baseline, transition.Params{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(iso))
	for _, r := range iso {
		out[r.Name] = r.FlowSec()
	}
	return out, nil
}

// isolation runs every suite benchmark alone under mode (Baseline or
// Tuned) with run seed 1, fanning the suite across the worker pool.
func (c *Config) isolation(mode sim.Mode, params transition.Params) ([]metrics.TaskStat, error) {
	return sim.IsolationContext(context.Background(), sim.RunConfig{
		Machine: c.Machine, Cost: &c.Cost, Sched: &c.Sched, Mode: mode, Params: params,
		Tuning: c.Tuning, TypingOpts: c.Typing, Seed: 1, Cache: c.cache(),
	}, c.Suite, c.Workers)
}
