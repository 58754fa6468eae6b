package experiments

import (
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
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

// windowGrid builds the (window x policy x seed) dynamic grid in wire form.
func windowGrid(cfg Config, windows []uint64, policies []sim.Policy) []dist.Spec {
	grid := make([]dist.Spec, 0, len(windows)*len(policies)*len(cfg.Seeds))
	for _, wsize := range windows {
		for _, p := range policies {
			for _, seed := range cfg.Seeds {
				sp := showdownRunCfg(cfg, p, seed)
				sp.Online.WindowInstrs = wsize
				grid = append(grid, sp)
			}
		}
	}
	return grid
}

// windowPolicies are the swept detector policies.
var windowPolicies = []sim.Policy{sim.PolicyDynamicGreedy, sim.PolicyDynamicProbe}

// WindowCampaign packages the window sweep's dynamic grid as a
// distributable campaign (cmd/sweepd -campaign window).
func WindowCampaign(cfg Config, windows []uint64, policies []sim.Policy) dist.Campaign {
	if windows == nil {
		windows = DefaultWindowGrid()
	}
	if policies == nil {
		policies = windowPolicies
	}
	return dist.Campaign{Env: cfg.Env(), Specs: windowGrid(cfg, windows, policies)}
}

// WindowSweep sweeps the online detector's window size per policy against
// per-seed baselines. The whole grid runs on the sweep engine, so
// cfg.Shards fans it across fabric workers unchanged.
func WindowSweep(cfg Config, windows []uint64, policies []sim.Policy) ([]WindowRow, error) {
	if windows == nil {
		windows = DefaultWindowGrid()
	}
	if policies == nil {
		policies = windowPolicies
	}
	bases, err := cfg.baselines(cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	results, err := cfg.sweep(windowGrid(cfg, windows, policies))
	if err != nil {
		return nil, err
	}

	rows := make([]WindowRow, 0, len(windows)*len(policies))
	i := 0
	for _, wsize := range windows {
		for _, p := range policies {
			row := WindowRow{WindowInstrs: wsize, Policy: p}
			var tputs []float64
			for _, seed := range cfg.Seeds {
				res := results[i]
				i++
				base := bases[seed]
				bt := metrics.ThroughputOver(base.Samples, 0, cfg.DurationSec)
				rt := metrics.ThroughputOver(res.Samples, 0, cfg.DurationSec)
				tputs = append(tputs, metrics.PercentIncrease(bt, rt))
				if res.Online == nil {
					continue
				}
				row.OnlineSwitches += float64(res.Online.Switches)
				row.Windows += float64(res.Online.Windows)
				var cycles uint64
				for _, t := range res.Tasks {
					cycles += t.Cycles
				}
				if cycles > 0 {
					row.MonitorPct += 100 * float64(res.Online.ChargedCycles) / float64(cycles)
				}
			}
			n := float64(len(cfg.Seeds))
			row.ThroughputPct = metrics.Mean(tputs)
			row.OnlineSwitches /= n
			row.Windows /= n
			row.MonitorPct /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TechniqueCampaign packages the Table 2 tuned grid (every technique
// variant x seed over the configured duration) as a distributable campaign
// (cmd/sweepd -campaign grid).
func TechniqueCampaign(cfg Config) dist.Campaign {
	variants := TechniqueGrid()
	grid := make([]dist.Spec, 0, len(variants)*len(cfg.Seeds))
	for _, params := range variants {
		for _, seed := range cfg.Seeds {
			grid = append(grid, cfg.runCfg(sim.PolicyStatic, params, cfg.Tuning, 0, seed, cfg.DurationSec))
		}
	}
	return dist.Campaign{Env: cfg.Env(), Specs: grid}
}
