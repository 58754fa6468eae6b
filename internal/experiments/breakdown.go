package experiments

import (
	"phasetune/internal/amp"
	"phasetune/internal/dist"
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
// through Config.sweep, so cfg.Shards routes the grid across the fabric
// with byte-identical results.

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
	// Windows echoes the swept window axis.
	Windows []uint64
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

// breakdownGrid builds one machine's full grid in wire form: per rate, the
// window-independent reference cells, then the (window × swept-policy)
// detection cells — each over every seed.
func breakdownGrid(cfg Config, alts []int, windows []uint64) []dist.Spec {
	fixed := breakdownFixed(cfg.Machine)
	perRate := (len(fixed) + len(windows)*len(breakdownSwept)) * len(cfg.Seeds)
	grid := make([]dist.Spec, 0, len(alts)*perRate)
	for _, a := range alts {
		for _, p := range fixed {
			for _, seed := range cfg.Seeds {
				grid = append(grid, breakdownRunCfg(cfg, p, a, 0, seed))
			}
		}
		for _, w := range windows {
			for _, p := range breakdownSwept {
				for _, seed := range cfg.Seeds {
					grid = append(grid, breakdownRunCfg(cfg, p, a, w, seed))
				}
			}
		}
	}
	return grid
}

// BreakdownCampaign packages one machine's breakdown grid as a
// distributable campaign (cmd/sweepd -campaign breakdown).
func BreakdownCampaign(cfg Config, machine *amp.Machine, alts []int, windows []uint64) dist.Campaign {
	if alts == nil {
		alts = workload.DefaultAltAlternations()
	}
	if windows == nil {
		windows = DefaultWindowGrid()
	}
	mcfg := cfg
	mcfg.Machine = machine
	return dist.Campaign{Env: mcfg.Env(), Specs: breakdownGrid(mcfg, alts, windows)}
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
	out := &BreakdownResult{Windows: windows}
	for _, machine := range machines {
		mcfg := cfg
		mcfg.Machine = machine
		results, err := mcfg.sweep(breakdownGrid(mcfg, alts, windows))
		if err != nil {
			return nil, err
		}

		// tput averages one policy's cells over seeds; i walks the grid in
		// build order.
		i := 0
		tput := func() float64 {
			var v float64
			for range mcfg.Seeds {
				v += metrics.ThroughputOver(results[i].Samples, 0, mcfg.DurationSec)
				i++
			}
			return v / float64(len(mcfg.Seeds))
		}
		onlineSwitches := func(at int) float64 {
			var v float64
			for k := 0; k < len(mcfg.Seeds); k++ {
				if res := results[at+k]; res.Online != nil {
					v += float64(res.Online.Switches)
				}
			}
			return v / float64(len(mcfg.Seeds))
		}
		// ledgerPcts averages one policy's placement loss (asymmetry + spill)
		// and monitoring overhead over seeds, as percents of total core time.
		ledgerPcts := func(at int) (asym, mon float64, has bool) {
			for k := 0; k < len(mcfg.Seeds); k++ {
				if l := results[at+k].Ledger; l != nil && l.HorizonPs > 0 {
					has = true
					total := float64(l.Cores) * float64(l.HorizonPs)
					asym += 100 * float64(l.Total.AsymmetryPs+l.Total.SpillPs) / total
					mon += 100 * float64(l.Total.MonitorPs) / total
				}
			}
			n := float64(len(mcfg.Seeds))
			return asym / n, mon / n, has
		}

		for _, a := range alts {
			rate := workload.AltSpec(a).AltRate(mcfg.Cost, machine)
			base := tput()
			staticAt := i
			static := tput()
			oracle := tput()
			staticAsym, _, hasLedger := ledgerPcts(staticAt)
			pct := func(v float64) float64 { return metrics.PercentIncrease(base, v) }

			frontier := BreakdownFrontierRow{Machine: machine.Name, Alternations: a, Rate: rate}
			for _, w := range windows {
				dynAt := i
				dynamic := tput()
				hybrid := tput()
				row := BreakdownRow{
					Machine:      machine.Name,
					Alternations: a,
					Rate:         rate,
					WindowInstrs: w,
					StaticPolicy: breakdownFixed(machine)[1],
					StaticPct:    pct(static),
					DynamicPct:   pct(dynamic),
					HybridPct:    pct(hybrid),
					OraclePct:    pct(oracle),
					DeltaPct:     pct(dynamic) - pct(static),
					DynSwitches:  onlineSwitches(dynAt),
				}
				if hasLedger {
					dynAsym, dynMon, _ := ledgerPcts(dynAt)
					row.HasLedger = true
					row.StaticAsymmetryPct = staticAsym
					row.DynAsymmetryPct = dynAsym
					row.DynMonitorPct = dynMon
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
