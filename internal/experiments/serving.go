package experiments

import (
	"fmt"
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/serve"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// ---------------------------------------------------------------------------
// Open-system serving — offered load × placement policy × machine.
//
// Every other experiment is a closed batch; this one is the open system the
// paper's production pitch implies: jobs arrive under a Poisson process,
// demand can exceed core supply (the overcommit dispatcher time-multiplexes
// the excess), and the reported metric is the sojourn-time tail. The axis
// crossing closed-batch intuition: static marks place a job correctly from
// its first mark — admission costs nothing — while the dynamic detector
// pays a warm-up window per admitted job before it can place it, a per-job
// cost that recurs at the arrival rate instead of amortizing over a long
// batch. All percentile math goes through metrics.Quantiles (exact
// nearest-rank), the shared quantile helper.

// ServingPolicies returns the serving policy columns: the stock scheduler,
// the paper's static marks, the online detector (probe placement), the
// marks+windows hybrid, and the perfect-knowledge oracle.
func ServingPolicies() []sim.Policy {
	return []sim.Policy{
		sim.PolicyNone, sim.PolicyStatic, sim.PolicyDynamicProbe,
		sim.PolicyHybrid, sim.PolicyOracle,
	}
}

// ServingLoads returns the offered-load axis in multiples of machine
// capacity: under-provisioned through 1.5× overload.
func ServingLoads() []float64 { return []float64{0.5, 0.75, 1.0, 1.25, 1.5} }

// ServingMachines returns the serving machine set: the paper's quad AMP
// and the three-type big/medium/little hex.
func ServingMachines() []*amp.Machine {
	return []*amp.Machine{amp.Quad2Fast2Slow(), amp.Hex2Big2Medium2Little()}
}

// ServingHorizonSec is the admission horizon for a run duration: arrivals
// stop at 75% of the duration so the admitted tail can drain before the
// run ends (completed-job quantiles otherwise censor the slowest jobs).
func ServingHorizonSec(durationSec float64) float64 { return 0.75 * durationSec }

// ServingRow is one (machine, load, policy) cell. Sojourn quantiles pool
// completed jobs across the configured seeds — tail percentiles need the
// sample mass, and the seeds share the same arrival-process family.
type ServingRow struct {
	// Machine is the machine name.
	Machine string
	// Load is the offered load in multiples of machine capacity.
	Load float64
	// RatePerSec is the realized arrival rate.
	RatePerSec float64
	// Policy is the placement policy column.
	Policy sim.Policy
	// Admitted and Completed are mean per-seed job counts.
	Admitted, Completed float64
	// P50, P95, P99, P999 are exact sojourn-time quantiles in seconds,
	// pooled across seeds. NaN when no seed completed a job at this cell.
	P50, P95, P99, P999 float64
	// MeanSojournSec is the pooled mean sojourn time, NaN when no job
	// completed — matching the quantiles, a starved cell must not read as
	// a zero-latency one.
	MeanSojournSec float64
	// PeakRunnable is the maximum simultaneously live task count across
	// seeds — above the core count, the cell exercised overcommit.
	PeakRunnable int
	// OvercommitSlices is the mean count of proportional-share-shortened
	// dispatch slices.
	OvercommitSlices float64
	// HasLedger reports whether the campaign carried cycle ledgers
	// (Config.Ledger); the sojourn decomposition below is zero without it.
	HasLedger bool
	// QueueingSec, ServiceSec, and SlicingSec decompose where admitted jobs'
	// time went (mean per seed, simulated seconds, summed across jobs):
	// waiting in run queues, occupying a core, and paying the overcommit
	// slicing tax. A cell whose queueing dwarfs its service lost to convoys,
	// not to slow execution — the oracle-convoy signature at overload.
	QueueingSec, ServiceSec, SlicingSec float64
}

// servingRunCfg builds one wire spec: the policy cell (showdownRunCfg) with
// the workload swapped for the open-system arrival form.
func servingRunCfg(cfg Config, p sim.Policy, load float64, seed uint64) dist.Spec {
	rc := showdownRunCfg(cfg, p, seed)
	arr := serve.Arrivals(cfg.Machine, workload.Poisson, load, ServingHorizonSec(cfg.DurationSec))
	rc.Queues = workload.Spec{Seed: seed, Arrivals: &arr}
	return rc
}

// servingRows lists one machine's (load × policy) cells, load-major, as
// rows with only their keys set.
func servingRows(machine *amp.Machine) []ServingRow {
	var rows []ServingRow
	for _, load := range ServingLoads() {
		for _, p := range ServingPolicies() {
			rows = append(rows, ServingRow{Machine: machine.Name, Load: load,
				RatePerSec: serve.OfferedRate(machine, load), Policy: p})
		}
	}
	return rows
}

// servingGrid builds one machine's (load × policy × seed) grid, load-major
// (cfg.Machine must be the serving machine).
func servingGrid(cfg Config) []dist.Spec {
	return seedGrid(cfg.Seeds, servingRows(cfg.Machine), func(r ServingRow, seed uint64) dist.Spec {
		return servingRunCfg(cfg, r.Policy, r.Load, seed)
	})
}

// ServingCampaign packages one machine's serving grid as a distributable
// campaign (cmd/sweepd serves it to workers). Every spec carries its
// arrival process, and every open run uses the overcommit dispatcher, so
// workers reproduce the open-system semantics from the wire form alone.
func ServingCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, servingGrid)
}

// Serving runs the offered-load × policy latency sweep on the given
// machines (default: ServingMachines — quad and hex). Rows come back
// machine-major, then load-major in ServingLoads order, then policy in
// ServingPolicies order.
func Serving(cfg Config, machines []*amp.Machine) ([]ServingRow, error) {
	if machines == nil {
		machines = ServingMachines()
	}
	var rows []ServingRow
	for _, machine := range machines {
		mcfg := cfg
		mcfg.Machine = machine
		cells, err := mcfg.sweepCells(servingGrid(mcfg))
		if err != nil {
			return nil, err
		}
		// Each seed reads through serve.Summarize; counts average over
		// seeds, sojourn quantiles and mean pool across them.
		mrows := servingRows(machine)
		for i, c := range cells {
			row := &mrows[i]
			sts := make([]serve.Stats, len(c))
			var pooled []float64
			for si, r := range c {
				sts[si] = serve.Summarize(r)
				pooled = append(pooled, metrics.SojournTimes(r.Tasks)...)
				row.PeakRunnable = max(row.PeakRunnable, sts[si].PeakRunnable)
				row.HasLedger = row.HasLedger || sts[si].HasLedger
			}
			row.Admitted = meanOf(sts, func(s serve.Stats) float64 { return float64(s.Admitted) })
			row.Completed = meanOf(sts, func(s serve.Stats) float64 { return float64(s.Completed) })
			row.OvercommitSlices = meanOf(sts, func(s serve.Stats) float64 { return float64(s.OvercommitSlices) })
			row.QueueingSec = meanOf(sts, func(s serve.Stats) float64 { return s.QueueingSec })
			row.ServiceSec = meanOf(sts, func(s serve.Stats) float64 { return s.ServiceSec })
			row.SlicingSec = meanOf(sts, func(s serve.Stats) float64 { return s.SlicingSec })
			qs := metrics.Quantiles(pooled, 0.50, 0.95, 0.99, 0.999)
			row.P50, row.P95, row.P99, row.P999 = qs[0], qs[1], qs[2], qs[3]
			row.MeanSojournSec = math.NaN()
			if len(pooled) > 0 {
				row.MeanSojournSec = metrics.Mean(pooled)
			}
		}
		rows = append(rows, mrows...)
	}
	return rows, nil
}

// servingTables runs the serving sweep and reduces it: the cell table, with
// -ledger the sojourn decomposition, then one quantile strip per (machine,
// load) — the policies' latency tails on a shared axis, where the
// separation at load >= 1x is visible.
func servingTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := Serving(cfg, nil)
	if err != nil {
		return nil, err
	}
	main := benchhist.Table{Columns: []benchhist.Column{
		col("machine", "", ""), col("load", "x capacity", "%.2f"), col("rate/s", "jobs/s", "%.2f"),
		col("policy", "", ""), col("admitted", "jobs", "%.0f"), col("done", "jobs", "%.0f"),
		col("p50", "s", "%.2f"), col("p95", "s", "%.2f"), col("p99", "s", "%.2f"), col("p999", "s", "%.2f"),
		col("mean", "s", "%.2f"), col("peak-run", "tasks", "%.0f"), col("oc-slices", "count", "%.0f"),
	}}
	for _, r := range rows {
		main.AddRow(r.Machine, r.Load, r.RatePerSec, r.Policy.String(), r.Admitted, r.Completed,
			r.P50, r.P95, r.P99, r.P999, r.MeanSojournSec, r.PeakRunnable, r.OvercommitSlices)
	}
	tables := []benchhist.Table{main}

	if len(rows) > 0 && rows[0].HasLedger {
		ledger := benchhist.Table{
			Title: "sojourn decomposition — summed task-seconds per seed: queueing vs service vs slicing",
			Columns: []benchhist.Column{col("machine", "", ""), col("load", "x capacity", "%.2f"),
				col("policy", "", ""), col("queueing(s)", "s", "%.1f"), col("service(s)", "s", "%.1f"),
				col("slicing(s)", "s", "%.2f"), col("queue/service", "ratio", "%.2f")},
		}
		for _, r := range rows {
			var ratio any = "-"
			if r.ServiceSec > 0 {
				ratio = r.QueueingSec / r.ServiceSec
			}
			ledger.AddRow(r.Machine, r.Load, r.Policy.String(), r.QueueingSec, r.ServiceSec, r.SlicingSec, ratio)
		}
		tables = append(tables, ledger)
	}

	for _, cell := range runs(rows, func(r ServingRow) string { return fmt.Sprintf("%s/%g", r.Machine, r.Load) }) {
		peak := 0
		for _, r := range cell {
			peak = max(peak, r.PeakRunnable)
		}
		strip := benchhist.Table{
			Title: fmt.Sprintf("%s @ load %.2fx — sojourn quantiles (s), peak runnable %d", cell[0].Machine, cell[0].Load, peak),
			Columns: []benchhist.Column{col("policy", "", ""),
				col("p50", "s", "%.2f"), col("p95", "s", "%.2f"), col("p99", "s", "%.2f"), col("p999", "s", "%.2f")},
			Chart: &benchhist.Chart{Kind: benchhist.ChartQuantileStrip},
		}
		for _, r := range cell {
			strip.AddRow(r.Policy.String(), r.P50, r.P95, r.P99, r.P999)
		}
		tables = append(tables, strip)
	}
	return tables, nil
}
