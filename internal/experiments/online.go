package experiments

import (
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
)

// ---------------------------------------------------------------------------
// §V showdown — static marks vs dynamic online detection vs oracle.
//
// The paper's central claim is comparative: static phase marks beat purely
// dynamic detection because they avoid runtime monitoring and misprediction,
// and both beat the asymmetry-unaware scheduler. The paper asserts this
// against the literature; this driver measures it, running the same
// workloads under every placement policy on both AMP machines.

// showdownPolicies is the showdown's column set in display order: every
// placement policy except Fig. 4's overhead methodology.
var showdownPolicies = []sim.Policy{
	sim.PolicyNone, sim.PolicyStatic, sim.PolicyStaticSpill,
	sim.PolicyDynamicGreedy, sim.PolicyDynamicProbe,
	sim.PolicyHybrid, sim.PolicyHybridDamped, sim.PolicyOracle,
}

// ShowdownRow is one (machine, policy) cell of the showdown table, averaged
// over the configured seeds.
type ShowdownRow struct {
	// Machine is the machine name (quad-2f2s, tri-2f1s).
	Machine string
	// Policy is the placement policy.
	Policy sim.Policy
	// Throughput is mean committed instructions per second.
	Throughput float64
	// ThroughputPct is the throughput improvement over sim.PolicyNone on the
	// same machine, in percent.
	ThroughputPct float64
	// AvgTimePct and MatchedAvgPct are average-process-time decreases versus
	// sim.PolicyNone (raw and instance-matched).
	AvgTimePct, MatchedAvgPct float64
	// Switches is the mean core-switch count across the run.
	Switches float64
	// MarksExecuted is the mean dynamic phase-mark count (instrumented
	// policies only).
	MarksExecuted float64
	// MonitorWindows, MonitorCycles and MonitorPct report the dynamic
	// detector's sampling volume and charged overhead (MonitorPct is charged
	// cycles relative to total committed cycles); zero for mark-based rows.
	MonitorWindows float64
	MonitorCycles  float64
	MonitorPct     float64
	// OnlineSwitches is the mean number of detector-requested reassignments.
	OnlineSwitches float64
	// Refreshes and Damped report the hybrid's re-decision traffic: mean
	// post-fix Algorithm 2 re-entries, and mean re-entries suppressed by the
	// drift threshold (hybrid/damped column only).
	Refreshes float64
	Damped    float64
	// CounterDefers is the mean number of monitoring requests that found no
	// free counter event set.
	CounterDefers float64
	// HasLedger reports whether the campaign ran with cycle accounting
	// (Config.Ledger); the attribution columns below are zero without it.
	HasLedger bool
	// UsefulPct, AsymmetryPct, SpillPct, OverheadPct, and IdlePct decompose
	// the machine's total core time (cores × horizon) in percent, averaged
	// over seeds: work at the fastest clock, loss to mispredicted slow-core
	// placement, loss to knowing capacity spills, the sum of the
	// instrumentation taxes (marks, monitoring, migration, context switch,
	// overcommit slicing), and unclaimed core time. The five columns sum to
	// 100 up to rounding — the where-did-the-cycles-go answer per policy.
	UsefulPct, AsymmetryPct, SpillPct, OverheadPct, IdlePct float64
}

// showdownRunCfg builds one wire spec for a policy on a machine-specific
// config (cfg.Machine and cfg.Suite must already match): the policy
// lowered onto the configured tuning, default technique, and horizon.
func showdownRunCfg(cfg Config, p sim.Policy, seed uint64) dist.Spec {
	return cfg.runCfg(p, transition.Params{}, cfg.Tuning, 0, seed, cfg.DurationSec)
}

// ShowdownMachines returns the default showdown machine set: the paper's
// quad AMP, the §VII tri-core, and the three-type big/medium/little hex —
// the §VI-C generalization that makes the campaign genuinely large.
func ShowdownMachines() []*amp.Machine {
	return []*amp.Machine{amp.Quad2Fast2Slow(), amp.ThreeCore2Fast1Slow(), amp.Hex2Big2Medium2Little()}
}

// showdownGrid builds one machine's full (policy x seed) grid in wire form
// (cfg.Machine must already be set to that machine).
func showdownGrid(cfg Config) []dist.Spec {
	policies := showdownPolicies
	grid := make([]dist.Spec, 0, len(policies)*len(cfg.Seeds))
	for _, p := range policies {
		for _, seed := range cfg.Seeds {
			grid = append(grid, showdownRunCfg(cfg, p, seed))
		}
	}
	return grid
}

// ShowdownCampaign packages one machine's showdown grid as a distributable
// campaign (cmd/sweepd serves it to workers).
func ShowdownCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, showdownGrid)
}

// Showdown runs the full static-vs-dynamic-vs-oracle comparison on the
// given machines (default: ShowdownMachines — the paper's quad AMP, the
// §VII tri-core, and the three-type hex). Rows come back machine-major in
// showdownPolicies order; every improvement column is relative to the same
// machine's sim.PolicyNone row. All runs of a machine share workload queues
// per seed (the paper's comparison protocol) and sweep concurrently over
// the shared artifact cache.
func Showdown(cfg Config, machines []*amp.Machine) ([]ShowdownRow, error) {
	if machines == nil {
		machines = ShowdownMachines()
	}
	policies := showdownPolicies
	var rows []ShowdownRow
	for _, machine := range machines {
		mcfg, err := cfg.on(machine)
		if err != nil {
			return nil, err
		}
		results, err := mcfg.sweep(showdownGrid(mcfg))
		if err != nil {
			return nil, err
		}
		cell := func(pi, si int) *sim.Result { return results[pi*len(mcfg.Seeds)+si] }

		for pi, p := range policies {
			row := ShowdownRow{Machine: machine.Name, Policy: p}
			var tputs, tputPcts, avgPcts, matchedPcts []float64
			for si := range mcfg.Seeds {
				base, res := cell(0, si), cell(pi, si)
				bt := metrics.ThroughputOver(base.Samples, 0, mcfg.DurationSec)
				rt := metrics.ThroughputOver(res.Samples, 0, mcfg.DurationSec)
				tputs = append(tputs, rt)
				tputPcts = append(tputPcts, metrics.PercentIncrease(bt, rt))
				avgPcts = append(avgPcts, metrics.PercentDecrease(
					metrics.AvgProcessTime(base.Tasks), metrics.AvgProcessTime(res.Tasks)))
				matchedPcts = append(matchedPcts, matchedAvgImprovement(base.Tasks, res.Tasks))

				var switches int
				var marks, cycles uint64
				for _, t := range res.Tasks {
					switches += t.Migrations
					marks += t.MarksExecuted
					cycles += t.Cycles
				}
				row.Switches += float64(switches)
				row.MarksExecuted += float64(marks)
				row.CounterDefers += float64(res.CounterDefers)
				if res.Online != nil {
					row.MonitorWindows += float64(res.Online.Windows)
					row.MonitorCycles += float64(res.Online.ChargedCycles)
					row.OnlineSwitches += float64(res.Online.Switches)
					row.Refreshes += float64(res.Online.Refreshes)
					row.Damped += float64(res.Online.Damped)
					if cycles > 0 {
						row.MonitorPct += 100 * float64(res.Online.ChargedCycles) / float64(cycles)
					}
				}
				if l := res.Ledger; l != nil && l.HorizonPs > 0 {
					row.HasLedger = true
					total := float64(l.Cores) * float64(l.HorizonPs)
					overheadPs := l.Total.MarksPs + l.Total.MonitorPs +
						l.Total.MigrationPs + l.Total.CtxSwitchPs + l.Total.SlicingPs
					row.UsefulPct += 100 * float64(l.Total.UsefulPs) / total
					row.AsymmetryPct += 100 * float64(l.Total.AsymmetryPs) / total
					row.SpillPct += 100 * float64(l.Total.SpillPs) / total
					row.OverheadPct += 100 * float64(overheadPs) / total
					row.IdlePct += 100 * float64(l.Total.IdlePs) / total
				}
			}
			n := float64(len(mcfg.Seeds))
			row.Throughput = metrics.Mean(tputs)
			row.ThroughputPct = metrics.Mean(tputPcts)
			row.AvgTimePct = metrics.Mean(avgPcts)
			row.MatchedAvgPct = metrics.Mean(matchedPcts)
			row.Switches /= n
			row.MarksExecuted /= n
			row.MonitorWindows /= n
			row.MonitorCycles /= n
			row.MonitorPct /= n
			row.OnlineSwitches /= n
			row.Refreshes /= n
			row.Damped /= n
			row.CounterDefers /= n
			row.UsefulPct /= n
			row.AsymmetryPct /= n
			row.SpillPct /= n
			row.OverheadPct /= n
			row.IdlePct /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// LedgerCell runs one showdown cell — one (machine, policy, seed) — with
// cycle accounting forced on and returns the full result, ledger included.
// cmd/runcmp uses it to rebuild the two sides of a policy diff without
// sweeping the whole grid; cfg.Machine selects the machine and cfg.Suite
// may be nil (it is regenerated here).
func LedgerCell(cfg Config, p sim.Policy, seed uint64) (*sim.Result, error) {
	mcfg, err := cfg.on(cfg.Machine)
	if err != nil {
		return nil, err
	}
	mcfg.Ledger = true
	results, err := mcfg.sweep([]dist.Spec{showdownRunCfg(mcfg, p, seed)})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ShowdownContention reruns the probe showdown cell with a small bounded
// counter pool, reporting how the dynamic detector degrades when event sets
// are scarce (the perfcnt deferral path under periodic sampling).
type ShowdownContentionResult struct {
	// Slots is the bounded pool size.
	Slots int
	// Defers counts monitoring requests that found no free event set.
	Defers uint64
	// Windows counts detection windows still accepted.
	Windows uint64
	// ThroughputPct is the throughput improvement over baseline.
	ThroughputPct float64
}

// ShowdownCounterContention measures the dynamic detector under counter
// scarcity on the config machine.
func ShowdownCounterContention(cfg Config, slots int) (ShowdownContentionResult, error) {
	sched := cfg.Sched
	sched.CounterSlots = slots
	c := cfg
	c.Sched = sched
	seed := c.Seeds[0]
	grid := []dist.Spec{
		showdownRunCfg(c, sim.PolicyNone, seed),
		showdownRunCfg(c, sim.PolicyDynamicProbe, seed),
	}
	results, err := c.sweep(grid)
	if err != nil {
		return ShowdownContentionResult{}, err
	}
	base, dyn := results[0], results[1]
	out := ShowdownContentionResult{
		Slots:  slots,
		Defers: dyn.CounterDefers,
		ThroughputPct: metrics.PercentIncrease(
			metrics.ThroughputOver(base.Samples, 0, c.DurationSec),
			metrics.ThroughputOver(dyn.Samples, 0, c.DurationSec)),
	}
	if dyn.Online != nil {
		out.Windows = dyn.Online.Windows
	}
	return out, nil
}

// showdownTables runs the showdown and reduces it: the policy table, with
// -ledger the cycle attribution table and one stacked bar chart per
// machine, and the bounded-counter note.
func showdownTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := Showdown(cfg, nil)
	if err != nil {
		return nil, err
	}
	cc, err := ShowdownCounterContention(cfg, 4)
	if err != nil {
		return nil, err
	}
	main := benchhist.Table{Columns: []benchhist.Column{
		col("machine", "", ""), col("policy", "", ""),
		col("tput", "instr/s", "%.4g"), col("tput%", "%", "%+.2f"),
		col("avg-time%", "%", "%+.2f"), col("matched%", "%", "%+.2f"),
		col("switches", "count", "%.0f"), col("marks", "count", "%.0f"),
		col("windows", "count", "%.0f"), col("monitor%", "%", "%.3f"),
		col("refresh", "count", "%.0f"), col("damped", "count", "%.0f"),
		col("defers", "count", "%.0f"),
	}}
	for _, r := range rows {
		main.AddRow(r.Machine, r.Policy.String(), r.Throughput, r.ThroughputPct,
			r.AvgTimePct, r.MatchedAvgPct, r.Switches, r.MarksExecuted,
			r.MonitorWindows, r.MonitorPct, r.Refreshes, r.Damped, r.CounterDefers)
	}
	tables := []benchhist.Table{main}

	if len(rows) > 0 && rows[0].HasLedger {
		ledger := benchhist.Table{
			Title: "cycle attribution — % of machine time (cores × horizon), conserved to 100%",
			Columns: []benchhist.Column{col("machine", "", ""), col("policy", "", ""),
				col("useful%", "%", "%.2f"), col("asym%", "%", "%.2f"), col("spill%", "%", "%.2f"),
				col("ovh%", "%", "%.2f"), col("idle%", "%", "%.2f")},
		}
		for _, r := range rows {
			ledger.AddRow(r.Machine, r.Policy.String(),
				r.UsefulPct, r.AsymmetryPct, r.SpillPct, r.OverheadPct, r.IdlePct)
		}
		tables = append(tables, ledger)
		for _, mrows := range runs(rows, func(r ShowdownRow) string { return r.Machine }) {
			bars := benchhist.Table{
				Title: mrows[0].Machine,
				Columns: []benchhist.Column{col("policy", "", ""),
					col("useful", "%", "%.2f"), col("asymmetry", "%", "%.2f"), col("spill", "%", "%.2f"),
					col("overhead", "%", "%.2f"), col("idle", "%", "%.2f")},
				Chart: &benchhist.Chart{Kind: benchhist.ChartStackedBars},
			}
			for _, r := range mrows {
				bars.AddRow(r.Policy.String(), r.UsefulPct, r.AsymmetryPct, r.SpillPct, r.OverheadPct, r.IdlePct)
			}
			tables = append(tables, bars)
		}
	}
	return append(tables, benchhist.Table{Title: fmt.Sprintf(
		"dynamic/probe with %d bounded event sets: %d deferrals, %d windows, tput %+.2f%%",
		cc.Slots, cc.Defers, cc.Windows, cc.ThroughputPct)}), nil
}
