package experiments

import (
	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/sim"
)

// ---------------------------------------------------------------------------
// Window-size sweep — the dynamic analogue of Fig. 6's δ sweep.
//
// The online detector's WindowInstrs is its central latency-vs-evidence
// knob: small windows classify on thin evidence (fast reaction, more
// misprediction and monitoring overhead per retired instruction), large
// windows smear short phases into blended signatures (183.equake's failure
// mode) but settle long ones cheaply. The paper sweeps δ for the static
// runtime; this driver sweeps the window for the dynamic one, per policy.

// DefaultWindowGrid is the swept window-size axis, log-spaced around the
// showdown operating point (8000).
func DefaultWindowGrid() []uint64 {
	return []uint64{2000, 4000, 8000, 16000, 32000}
}

// WindowRow is one (window, policy) cell, averaged over seeds.
type WindowRow struct {
	// WindowInstrs is the detection window size.
	WindowInstrs uint64
	// Policy is the detector policy (dynamic/greedy or dynamic/probe).
	Policy sim.Policy
	// ThroughputPct is throughput improvement over the stock-scheduler
	// baseline, in percent.
	ThroughputPct float64
	// OnlineSwitches is the mean detector-requested reassignment count.
	OnlineSwitches float64
	// Windows is the mean accepted detection-window count.
	Windows float64
	// MonitorPct is charged monitoring cycles relative to total committed
	// cycles, in percent.
	MonitorPct float64
}

// windowRows lists the sweep's (window x policy) cells, window-major, as
// rows with only their keys set.
func windowRows(windows []uint64, policies []sim.Policy) []WindowRow {
	rows := make([]WindowRow, 0, len(windows)*len(policies))
	for _, wsize := range windows {
		for _, p := range policies {
			rows = append(rows, WindowRow{WindowInstrs: wsize, Policy: p})
		}
	}
	return rows
}

// windowGrid builds the (window x policy x seed) dynamic grid in wire form.
func windowGrid(cfg Config, windows []uint64, policies []sim.Policy) []dist.Spec {
	return seedGrid(cfg.Seeds, windowRows(windows, policies), func(r WindowRow, seed uint64) dist.Spec {
		sp := showdownRunCfg(cfg, r.Policy, seed)
		sp.Online.WindowInstrs = r.WindowInstrs
		return sp
	})
}

// windowPolicies are the swept detector policies.
var windowPolicies = []sim.Policy{sim.PolicyDynamicGreedy, sim.PolicyDynamicProbe}

// WindowCampaign packages the window sweep's dynamic grid on one machine
// as a distributable campaign (cmd/sweepd -campaign window).
func WindowCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, func(c Config) []dist.Spec { return windowGrid(c, DefaultWindowGrid(), windowPolicies) })
}

// WindowSweep sweeps the online detector's window size per policy against
// per-seed baselines. The whole grid runs on the sweep engine.
func WindowSweep(cfg Config, windows []uint64, policies []sim.Policy) ([]WindowRow, error) {
	if windows == nil {
		windows = DefaultWindowGrid()
	}
	if policies == nil {
		policies = windowPolicies
	}
	base, err := cfg.baselines(cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	cells, err := cfg.sweepCells(windowGrid(cfg, windows, policies))
	if err != nil {
		return nil, err
	}
	rows := windowRows(windows, policies)
	for i, c := range cells {
		rows[i].ThroughputPct = c.vs(base, tputPct(cfg.DurationSec))
		rows[i].OnlineSwitches = c.mean(onlineSwitches)
		rows[i].Windows = c.mean(onlineWindows)
		rows[i].MonitorPct = c.mean(monitorPct)
	}
	return rows, nil
}

// windowTables runs the window sweep and reduces it to one table.
func windowTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := WindowSweep(cfg, nil, nil)
	return tabulate(rows, err, benchhist.Table{Columns: []benchhist.Column{
		col("window", "instr", "%.0f"), col("policy", "", ""), col("tput%", "%", "%+.2f"),
		col("online-switches", "count", "%.0f"), col("windows", "count", "%.0f"),
		col("monitor%", "%", "%.3f"),
	}}, func(r WindowRow) []any {
		return []any{r.WindowInstrs, r.Policy.String(), r.ThroughputPct, r.OnlineSwitches, r.Windows, r.MonitorPct}
	})
}
