package experiments

import (
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/ledger"
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
func showdownGrid(cfg Config) []dist.Spec { return policyGrid(cfg, showdownPolicies) }

// policyGrid builds the (policy x seed) grid of showdown cells.
func policyGrid(cfg Config, policies []sim.Policy) []dist.Spec {
	return seedGrid(cfg.Seeds, policies, func(p sim.Policy, seed uint64) dist.Spec {
		return showdownRunCfg(cfg, p, seed)
	})
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
	var rows []ShowdownRow
	for _, machine := range machines {
		mcfg, err := cfg.on(machine)
		if err != nil {
			return nil, err
		}
		cells, err := mcfg.sweepCells(showdownGrid(mcfg))
		if err != nil {
			return nil, err
		}
		d, base := mcfg.DurationSec, cells[0]
		for pi, p := range showdownPolicies {
			c := cells[pi]
			rows = append(rows, ShowdownRow{
				Machine:        machine.Name,
				Policy:         p,
				Throughput:     c.mean(tput(d)),
				ThroughputPct:  c.vs(base, tputPct(d)),
				AvgTimePct:     c.vs(base, avgTimePct),
				MatchedAvgPct:  c.vs(base, matchedPct),
				Switches:       c.mean(migrations),
				MarksExecuted:  c.mean(marks),
				MonitorWindows: c.mean(onlineWindows),
				MonitorCycles:  c.mean(chargedCycles),
				MonitorPct:     c.mean(monitorPct),
				OnlineSwitches: c.mean(onlineSwitches),
				Refreshes:      c.mean(refreshes),
				Damped:         c.mean(damped),
				CounterDefers:  c.mean(counterDefers),
				HasLedger:      c.hasLedger(),
				UsefulPct:      c.mean(share(func(b ledger.Breakdown) int64 { return b.UsefulPs })),
				AsymmetryPct:   c.mean(share(func(b ledger.Breakdown) int64 { return b.AsymmetryPs })),
				SpillPct:       c.mean(share(func(b ledger.Breakdown) int64 { return b.SpillPs })),
				OverheadPct: c.mean(share(func(b ledger.Breakdown) int64 {
					return b.MarksPs + b.MonitorPs + b.MigrationPs + b.CtxSwitchPs + b.SlicingPs
				})),
				IdlePct: c.mean(share(func(b ledger.Breakdown) int64 { return b.IdlePs })),
			})
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

// CounterContentionResult reports one policy under a bounded counter pool
// (the paper's "processes seldom have to wait" claim, §III).
type CounterContentionResult struct {
	// Slots is the bounded pool size.
	Slots int
	// Defers counts monitoring requests that found no free event set.
	Defers uint64
	// Windows counts detection windows still accepted (detector policies).
	Windows uint64
	// Marks counts dynamic phase-mark executions (mark-based policies).
	Marks uint64
	// ThroughputPct is the throughput improvement over the stock scheduler
	// under the same pool.
	ThroughputPct float64
}

// CounterContention reruns the first seed's showdown cell of policy p, and
// its stock-scheduler baseline, with a pool of slots counter event sets on
// the config machine: how monitoring degrades when event sets are scarce
// (the perfcnt deferral path).
func CounterContention(cfg Config, p sim.Policy, slots int) (CounterContentionResult, error) {
	cfg.Sched.CounterSlots = slots
	cfg.Seeds = cfg.Seeds[:1]
	cells, err := cfg.sweepCells(policyGrid(cfg, []sim.Policy{sim.PolicyNone, p}))
	if err != nil {
		return CounterContentionResult{}, err
	}
	base, c := cells[0], cells[1]
	return CounterContentionResult{
		Slots:         slots,
		Defers:        uint64(c.sum(counterDefers)),
		Windows:       uint64(c.sum(onlineWindows)),
		Marks:         uint64(c.sum(marks)),
		ThroughputPct: c.vs(base, tputPct(cfg.DurationSec)),
	}, nil
}

// showdownTables runs the showdown and reduces it: the policy table, with
// -ledger the cycle attribution table and one stacked bar chart per
// machine, and the bounded-counter note.
func showdownTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := Showdown(cfg, nil)
	if err != nil {
		return nil, err
	}
	cc, err := CounterContention(cfg, sim.PolicyDynamicProbe, 4)
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
