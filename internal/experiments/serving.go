package experiments

import (
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/osched"
	"phasetune/internal/serve"
	"phasetune/internal/sim"
	"phasetune/internal/trace"
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

// servingConfig specializes the shared config to one serving machine:
// overcommit on (open systems run oversubscribed by design) and the
// machine swapped in.
func servingConfig(cfg Config, machine *amp.Machine) Config {
	mcfg := cfg
	mcfg.Machine = machine
	mcfg.Sched.Overcommit.Enabled = true
	return mcfg
}

// servingRunCfg builds one wire spec: the policy cell (showdownRunCfg) with
// the workload swapped for the open-system arrival form.
func servingRunCfg(cfg Config, p sim.Policy, load float64, seed uint64) dist.Spec {
	rc := showdownRunCfg(cfg, p, seed)
	arr := serve.Arrivals(cfg.Machine, workload.Poisson, load, ServingHorizonSec(cfg.DurationSec))
	rc.Queues = workload.Spec{Seed: seed, Arrivals: &arr}
	return rc
}

// servingGrid builds one machine's (load × policy × seed) grid, load-major
// (cfg must already be specialized via servingConfig).
func servingGrid(cfg Config) []dist.Spec {
	loads, policies := ServingLoads(), ServingPolicies()
	grid := make([]dist.Spec, 0, len(loads)*len(policies)*len(cfg.Seeds))
	for _, load := range loads {
		for _, p := range policies {
			for _, seed := range cfg.Seeds {
				grid = append(grid, servingRunCfg(cfg, p, load, seed))
			}
		}
	}
	return grid
}

// ServingCampaign packages one machine's serving grid as a distributable
// campaign (cmd/sweepd serves it to workers). The environment carries the
// overcommit-enabled scheduler, so workers reproduce the open-system
// semantics from the wire form alone.
func ServingCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	mcfg := servingConfig(cfg, machine)
	return dist.Campaign{Env: mcfg.Env(), Specs: servingGrid(mcfg)}
}

// ServingTraceRun re-runs one representative serving cell — the first
// serving machine, the hybrid policy, offered load 1.0× — with the given
// tracer attached. It runs outside the sweep because a tracer serves one
// run: concurrent sweep cells would interleave their events
// nondeterministically. The cell itself is deterministic (same wire spec
// as the sweep's), so the returned summary matches the sweep's seed-0
// cell and the trace is byte-stable across invocations.
func ServingTraceRun(cfg Config, tr *trace.Tracer) (serve.Stats, error) {
	machine := ServingMachines()[0]
	mcfg := servingConfig(cfg, machine)
	spec := servingRunCfg(mcfg, sim.PolicyHybrid, 1.0, mcfg.Seeds[0])
	rc, err := mcfg.Env().RunConfig(spec, mcfg.Suite, nil)
	if err != nil {
		return serve.Stats{}, err
	}
	rc.Trace = tr
	res, err := sim.Run(rc)
	if err != nil {
		return serve.Stats{}, err
	}
	return serve.Summarize(res), nil
}

// Serving runs the offered-load × policy latency sweep on the given
// machines (default: ServingMachines — quad and hex). Rows come back
// machine-major, then load-major in ServingLoads order, then policy in
// ServingPolicies order.
func Serving(cfg Config, machines []*amp.Machine) ([]ServingRow, error) {
	if machines == nil {
		machines = ServingMachines()
	}
	loads, policies := ServingLoads(), ServingPolicies()
	var rows []ServingRow
	for _, machine := range machines {
		mcfg := servingConfig(cfg, machine)
		results, err := mcfg.sweep(servingGrid(mcfg))
		if err != nil {
			return nil, err
		}
		nSeeds := len(mcfg.Seeds)
		cell := func(li, pi, si int) int { return (li*len(policies)+pi)*nSeeds + si }
		for li, load := range loads {
			for pi, p := range policies {
				row := ServingRow{
					Machine:    machine.Name,
					Load:       load,
					RatePerSec: serve.OfferedRate(machine, load),
					Policy:     p,
				}
				var pooled []float64
				for si := 0; si < nSeeds; si++ {
					res := results[cell(li, pi, si)]
					row.Admitted += float64(len(res.Tasks))
					soj := metrics.SojournTimes(res.Tasks)
					row.Completed += float64(len(soj))
					pooled = append(pooled, soj...)
					if res.PeakRunnable > row.PeakRunnable {
						row.PeakRunnable = res.PeakRunnable
					}
					row.OvercommitSlices += float64(res.OvercommitSlices)
					if l := res.Ledger; l != nil {
						row.HasLedger = true
						var queuePs, busyPs, slicePs int64
						for _, t := range l.PerTask {
							queuePs += t.QueuePs
							busyPs += t.BusyPs()
							slicePs += t.SlicingPs
						}
						row.QueueingSec += osched.PsToSec(queuePs)
						row.ServiceSec += osched.PsToSec(busyPs - slicePs)
						row.SlicingSec += osched.PsToSec(slicePs)
					}
				}
				n := float64(nSeeds)
				row.Admitted /= n
				row.Completed /= n
				row.OvercommitSlices /= n
				row.QueueingSec /= n
				row.ServiceSec /= n
				row.SlicingSec /= n
				qs := metrics.Quantiles(pooled, 0.50, 0.95, 0.99, 0.999)
				row.P50, row.P95, row.P99, row.P999 = qs[0], qs[1], qs[2], qs[3]
				row.MeanSojournSec = math.NaN()
				if len(pooled) > 0 {
					row.MeanSojournSec = metrics.Mean(pooled)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
