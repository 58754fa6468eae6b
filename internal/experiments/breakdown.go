package experiments

import (
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/ledger"
	"phasetune/internal/metrics"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// ---------------------------------------------------------------------------
// Misprediction-cost breakdown map — the quantitative form of §V.
//
// The paper argues static marks beat reactive detection because fast
// phase alternation defeats any fixed monitoring window: a window longer
// than the phase period measures a blend of two behaviors and the detector
// fixes one compromise placement (183.equake's failure mode), while marks
// switch exactly at the boundary at any rate. The showdown shows the gap at
// one operating point; this driver maps it. It sweeps a synthetic
// constant-mix alternator (workload.AltSpec — the equake personality with
// only Alternations varying, so the instruction mix is held constant)
// against the detector's window size, and reports the dynamic-vs-static
// throughput delta over the full (rate × window) grid together with the
// break-even frontier — the largest window at which reactive detection
// still holds its own at each alternation rate. Window-independent policies
// (none, static, oracle) run once per rate; window-dependent ones
// (dynamic/probe, hybrid) run once per (rate, window). Everything flows
// through Config.sweep; BreakdownCampaign serves the same grid to fabric
// workers with byte-identical results.

// breakdownFixed returns the window-independent reference columns of the
// map for a machine. The static reference is the machine's best realizable
// static variant, mirroring the showdown's findings: the plain pin on
// two-type machines (the anchored fleet keeps demand near capacity, so
// spill arbitration only costs), spill arbitration where types > 2 (the
// plain pin leaves the middle type idle and herding would drown the
// misprediction signal the map is after).
func breakdownFixed(machine *amp.Machine) []sim.Policy {
	static := sim.PolicyStatic
	if len(machine.Types) > 2 {
		static = sim.PolicyStaticSpill
	}
	return []sim.Policy{sim.PolicyNone, static, sim.PolicyOracle}
}

// breakdownSwept are the window-dependent detection policies of the map.
var breakdownSwept = []sim.Policy{sim.PolicyDynamicProbe, sim.PolicyHybrid}

// BreakdownMachines returns the default machine set of the breakdown map:
// the paper's quad AMP and the three-type big/medium/little hex.
func BreakdownMachines() []*amp.Machine {
	return []*amp.Machine{amp.Quad2Fast2Slow(), amp.Hex2Big2Medium2Little()}
}

// BreakdownRow is one (machine, alternation rate, window) cell of the map,
// averaged over the configured seeds. The window-independent columns
// (static/spill, oracle) are repeated across a rate's rows for convenience.
type BreakdownRow struct {
	// Machine is the machine name.
	Machine string
	// Alternations is the alternator's outer-loop count (the swept knob).
	Alternations int
	// Rate is the alternation rate in alternations per billion estimated
	// dynamic instructions (workload.BenchSpec.AltRate) — the map's y axis
	// in the unit the benchgen suite table shares.
	Rate float64
	// WindowInstrs is the detection window size (the map's x axis).
	WindowInstrs uint64
	// StaticPolicy names the machine's static reference variant (plain pin
	// on two-type machines, spill arbitration beyond — see breakdownFixed).
	StaticPolicy sim.Policy
	// StaticPct, DynamicPct, HybridPct, OraclePct are throughput
	// improvements over the stock scheduler on the same (machine, rate)
	// workload, in percent.
	StaticPct, DynamicPct, HybridPct, OraclePct float64
	// DeltaPct is DynamicPct − StaticPct: negative means misprediction has
	// cost reactive detection more than monitoring-free marks gain.
	DeltaPct float64
	// DynSwitches is the dynamic detector's mean reassignment count —
	// rising switch volume as windows blend is the misprediction mechanism.
	DynSwitches float64
	// HasLedger reports whether the campaign carried cycle ledgers
	// (Config.Ledger); the attribution columns below are zero without it.
	HasLedger bool
	// StaticAsymmetryPct and DynAsymmetryPct are the percent of total core
	// time lost to slow-core placement (asymmetry plus capacity spill) under
	// the static reference and the dynamic detector, and DynMonitorPct is
	// the detector's charged sampling overhead on the same scale. They turn
	// the map's throughput delta into its mechanism: rising DynAsymmetryPct
	// at a fixed window is misprediction cost measured directly rather than
	// inferred.
	StaticAsymmetryPct, DynAsymmetryPct, DynMonitorPct float64
}

// BreakdownTolerancePct is the break-even tolerance of the frontier, in
// throughput percentage points: dynamic "holds" a (rate, window) cell
// when its delta against the static reference is within this budget —
// the same half-point budget the hybrid damping trade is held to.
const BreakdownTolerancePct = 0.5

// BreakdownFrontierRow is one rate's break-even point on a machine: the
// largest swept window at which dynamic detection still holds its own
// against static marks (DeltaPct >= -BreakdownTolerancePct).
// BreakEvenWindow 0 means dynamic fell past the tolerance at every swept
// window — the rate is past the frontier entirely.
type BreakdownFrontierRow struct {
	Machine         string
	Alternations    int
	Rate            float64
	BreakEvenWindow uint64
}

// BreakdownResult is the full map plus its frontier.
type BreakdownResult struct {
	// Rows come back machine-major, then rate-major, in window order.
	Rows []BreakdownRow
	// Frontier holds one row per (machine, rate).
	Frontier []BreakdownFrontierRow
}

// breakdownRunCfg builds one wire spec: a policy cell (showdownRunCfg) re-pointed
// at the alternation-axis workload, with the detection window overridden
// for the window-swept policies.
func breakdownRunCfg(cfg Config, p sim.Policy, alternations int, window uint64, seed uint64) dist.Spec {
	sp := showdownRunCfg(cfg, p, seed)
	sp.Queues.Alternations = alternations
	if window > 0 {
		sp.Online.WindowInstrs = window
	}
	return sp
}

// breakdownKey names one cell of the map; window is 0 for the
// window-independent reference policies.
type breakdownKey struct {
	policy       sim.Policy
	alternations int
	window       uint64
}

// breakdownKeys lists one machine's cells in grid order: per rate, the
// window-independent reference cells, then the (window × swept-policy)
// detection cells.
func breakdownKeys(machine *amp.Machine, alts []int, windows []uint64) []breakdownKey {
	var keys []breakdownKey
	for _, a := range alts {
		for _, p := range breakdownFixed(machine) {
			keys = append(keys, breakdownKey{p, a, 0})
		}
		for _, w := range windows {
			for _, p := range breakdownSwept {
				keys = append(keys, breakdownKey{p, a, w})
			}
		}
	}
	return keys
}

// breakdownGrid builds one machine's full grid in wire form: every
// breakdownKeys cell over every seed.
func breakdownGrid(cfg Config, alts []int, windows []uint64) []dist.Spec {
	return seedGrid(cfg.Seeds, breakdownKeys(cfg.Machine, alts, windows), func(k breakdownKey, seed uint64) dist.Spec {
		return breakdownRunCfg(cfg, k.policy, k.alternations, k.window, seed)
	})
}

// BreakdownCampaign packages one machine's breakdown grid on the default
// axes as a distributable campaign (cmd/sweepd -campaign breakdown).
func BreakdownCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, func(c Config) []dist.Spec {
		return breakdownGrid(c, workload.DefaultAltAlternations(), DefaultWindowGrid())
	})
}

// Breakdown runs the misprediction-cost map on the given machines
// (default: BreakdownMachines — quad and three-type hex). Every
// improvement is relative to the stock scheduler on the same (machine,
// rate) workload; compared runs share the alternator workload exactly, per
// the paper's protocol.
func Breakdown(cfg Config, machines []*amp.Machine, alts []int, windows []uint64) (*BreakdownResult, error) {
	if machines == nil {
		machines = BreakdownMachines()
	}
	if alts == nil {
		alts = workload.DefaultAltAlternations()
	}
	if windows == nil {
		windows = DefaultWindowGrid()
	}
	out := &BreakdownResult{}
	for _, machine := range machines {
		mcfg := cfg
		mcfg.Machine = machine
		keys := breakdownKeys(machine, alts, windows)
		cells, err := mcfg.sweepCells(breakdownGrid(mcfg, alts, windows))
		if err != nil {
			return nil, err
		}
		at := make(map[breakdownKey]cell, len(keys))
		for i, k := range keys {
			at[k] = cells[i]
		}
		staticPolicy := breakdownFixed(machine)[1]
		tp := tput(mcfg.DurationSec)
		// Placement loss (asymmetry + spill) and monitoring overhead, as
		// percents of total core time.
		loss := share(func(b ledger.Breakdown) int64 { return b.AsymmetryPs + b.SpillPs })
		monitor := share(func(b ledger.Breakdown) int64 { return b.MonitorPs })

		for _, a := range alts {
			rate := workload.AltSpec(a).AltRate(mcfg.Cost, machine)
			base := at[breakdownKey{sim.PolicyNone, a, 0}].mean(tp)
			static := at[breakdownKey{staticPolicy, a, 0}]
			oracle := at[breakdownKey{sim.PolicyOracle, a, 0}]
			// pct compares cell means: the map's columns are improvements
			// of mean throughput over the mean baseline.
			pct := func(c cell) float64 { return metrics.PercentIncrease(base, c.mean(tp)) }

			frontier := BreakdownFrontierRow{Machine: machine.Name, Alternations: a, Rate: rate}
			for _, w := range windows {
				dynamic := at[breakdownKey{sim.PolicyDynamicProbe, a, w}]
				row := BreakdownRow{
					Machine:      machine.Name,
					Alternations: a,
					Rate:         rate,
					WindowInstrs: w,
					StaticPolicy: staticPolicy,
					StaticPct:    pct(static),
					DynamicPct:   pct(dynamic),
					HybridPct:    pct(at[breakdownKey{sim.PolicyHybrid, a, w}]),
					OraclePct:    pct(oracle),
					DeltaPct:     pct(dynamic) - pct(static),
					DynSwitches:  dynamic.mean(onlineSwitches),
				}
				if static.hasLedger() {
					row.HasLedger = true
					row.StaticAsymmetryPct = static.mean(loss)
					row.DynAsymmetryPct = dynamic.mean(loss)
					row.DynMonitorPct = dynamic.mean(monitor)
				}
				if row.DeltaPct >= -BreakdownTolerancePct && w > frontier.BreakEvenWindow {
					frontier.BreakEvenWindow = w
				}
				out.Rows = append(out.Rows, row)
			}
			out.Frontier = append(out.Frontier, frontier)
		}
	}
	return out, nil
}

// breakdownTables runs the map on the given axes and reduces it: the cell
// table, with -ledger the attribution table, then per machine the delta
// heatmap (one long-form row per cell) and its break-even frontier.
func breakdownTables(cfg Config, ax Axes) ([]benchhist.Table, error) {
	res, err := Breakdown(cfg, nil, ax.Alts, ax.Windows)
	if err != nil {
		return nil, err
	}
	main := benchhist.Table{Columns: []benchhist.Column{
		col("machine", "", ""), col("alt", "alternations", "%.0f"),
		col("rate/Binstr", "alternations/Binstr", "%.0f"), col("window", "instr", "%.0f"),
		col("static-ref", "", ""), col("static%", "%", "%+.2f"), col("dynamic%", "%", "%+.2f"),
		col("hybrid%", "%", "%+.2f"), col("oracle%", "%", "%+.2f"), col("delta", "pp", "%+.2f"),
		col("dyn-switches", "count", "%.0f"),
	}}
	for _, r := range res.Rows {
		main.AddRow(r.Machine, r.Alternations, r.Rate, r.WindowInstrs, r.StaticPolicy.String(),
			r.StaticPct, r.DynamicPct, r.HybridPct, r.OraclePct, r.DeltaPct, r.DynSwitches)
	}
	tables := []benchhist.Table{main}

	if len(res.Rows) > 0 && res.Rows[0].HasLedger {
		ledger := benchhist.Table{
			Title: "misprediction attribution — % of machine time lost to slow-core placement (asym+spill)",
			Columns: []benchhist.Column{col("machine", "", ""), col("alt", "alternations", "%.0f"),
				col("window", "instr", "%.0f"), col("static-asym%", "%", "%.2f"),
				col("dyn-asym%", "%", "%.2f"), col("dyn-monitor%", "%", "%.3f")},
		}
		for _, r := range res.Rows {
			ledger.AddRow(r.Machine, r.Alternations, r.WindowInstrs,
				r.StaticAsymmetryPct, r.DynAsymmetryPct, r.DynMonitorPct)
		}
		tables = append(tables, ledger)
	}

	frontiers := runs(res.Frontier, func(f BreakdownFrontierRow) string { return f.Machine })
	for i, mrows := range runs(res.Rows, func(r BreakdownRow) string { return r.Machine }) {
		heat := benchhist.Table{
			Title: fmt.Sprintf("%s — dynamic−static tput delta (pp) by (alternation rate × window)", mrows[0].Machine),
			Columns: []benchhist.Column{col("rate", "alternations", "alt.x%.0f"),
				col("win", "instr", "%.0f"), col("delta", "pp", "%+.2f")},
			Chart: &benchhist.Chart{Kind: benchhist.ChartHeatmap, Tolerance: BreakdownTolerancePct},
		}
		for _, r := range mrows {
			heat.AddRow(r.Alternations, r.WindowInstrs, r.DeltaPct)
		}
		frontier := benchhist.Table{Columns: []benchhist.Column{col("rate", "alternations/Binstr", "%.0f"),
			col("alternations", "alternations", "%.0f"), col("break-even window", "instr", "%.0f")}}
		for _, f := range frontiers[i] {
			var be any = f.BreakEvenWindow
			if f.BreakEvenWindow == 0 {
				be = "none (dynamic loses at every window)"
			}
			frontier.AddRow(f.Rate, f.Alternations, be)
		}
		tables = append(tables, heat, frontier)
	}
	return tables, nil
}
