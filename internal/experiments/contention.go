package experiments

import (
	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/place"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// ---------------------------------------------------------------------------
// Contention pricing — the shared-cache herding experiment.
//
// Every closed-batch experiment draws from the suite, whose members are
// modest L2 citizens; placement there is an IPC problem. This campaign runs
// the memory-antagonist fleet (workload.FleetAntagonist): half the slots
// stream DRAM with working sets sized to a whole L2 group, half anchor
// compute demand. IPC-only arbitration herds the antagonists — they all
// prefer the same core type, so they pile onto one cache group and thrash
// it while an equal group sits cold. The contention-priced engine sees the
// marginal cost of each co-location (place.ContentionConfig) and spreads
// them. The observable is the kernel's per-cache-group residency map
// (sim.Result.CacheStats): the fraction of memory-bound core time on the
// hottest group, which herding drives toward 1 and pricing pulls toward
// 1/groups. Every cell collects it — CacheStats is a pure observer, so
// unpriced cells measure the herding they demonstrate.

// ContentionPolicies returns the policy columns of the contention campaign:
// the stock scheduler for scale, then the engine-backed policies — the ones
// whose placements flow through place.Engine.Arbitrate and can therefore be
// contention-priced: static marks with spill arbitration, the online
// detector (probe placement), the marks+windows hybrid, and the
// perfect-knowledge oracle.
func ContentionPolicies() []sim.Policy {
	return []sim.Policy{
		sim.PolicyNone, sim.PolicyStaticSpill, sim.PolicyDynamicProbe,
		sim.PolicyHybrid, sim.PolicyOracle,
	}
}

// ContentionMachines returns the campaign machine set: the three-type hex is
// the headline platform (two same-size 4096 KB groups plus a small little
// group — herding has somewhere visible to go), the paper's quad AMP the
// sanity column (two groups, little slack).
func ContentionMachines() []*amp.Machine {
	return []*amp.Machine{amp.Hex2Big2Medium2Little(), amp.Quad2Fast2Slow()}
}

// ContentionCell is one (policy, priced) column of the campaign grid.
type ContentionCell struct {
	// Policy is the placement policy.
	Policy sim.Policy
	// Priced reports whether the cell ran with contention pricing
	// (place.Config.Contention at defaults).
	Priced bool
}

// ContentionCells returns the campaign's cell axis: every policy unpriced
// (the herding measurement), then every engine-backed policy priced (the
// intervention).
func ContentionCells() []ContentionCell {
	var cells []ContentionCell
	for _, p := range ContentionPolicies() {
		cells = append(cells, ContentionCell{Policy: p})
	}
	for _, p := range ContentionPolicies() {
		if p.EngineBacked() {
			cells = append(cells, ContentionCell{Policy: p, Priced: true})
		}
	}
	return cells
}

// ContentionRow is one (machine, policy, priced) cell aggregated over seeds.
type ContentionRow struct {
	// Machine is the machine name.
	Machine string
	// Policy is the placement policy.
	Policy sim.Policy
	// Priced reports whether the engine ran contention-priced.
	Priced bool
	// Throughput is mean committed instructions per second.
	Throughput float64
	// ThroughputPct is the improvement over the same machine's unpriced
	// sim.PolicyNone row, in percent.
	ThroughputPct float64
	// MemShare is the per-cache-group share of memory-bound core time
	// (Σ = 1 when any antagonist ran), averaged over seeds, in machine
	// group order. The herding signature reads directly off it.
	MemShare []float64
	// MaxMemShare is the hottest group's share — 1.0 means every
	// memory-bound cycle ran on one cache group (fully herded); 1/groups
	// is a perfect spread.
	MaxMemShare float64
	// GroupsUsed is the mean number of cache groups that hosted any
	// memory-bound time.
	GroupsUsed float64
	// MemTasks is the mean number of tasks classified memory-bound.
	MemTasks float64
	// Switches is the mean core-switch count across the run.
	Switches float64
}

// contentionRunCfg builds one wire spec: the policy cell (showdownRunCfg) with
// the workload swapped for the antagonist fleet, the kernel's cache-group
// residency map enabled, and — for priced cells — the contention config at
// defaults.
func contentionRunCfg(cfg Config, cell ContentionCell, seed uint64) dist.Spec {
	sp := showdownRunCfg(cfg, cell.Policy, seed)
	sp.Queues.Fleet = workload.FleetAntagonist
	sp.CacheStats = true
	if cell.Priced {
		sp.Placement.Contention = &place.ContentionConfig{}
	}
	return sp
}

// contentionGrid builds one machine's (cell × seed) grid, cell-major
// (cfg.Machine must already be set).
func contentionGrid(cfg Config) []dist.Spec {
	cells := ContentionCells()
	grid := make([]dist.Spec, 0, len(cells)*len(cfg.Seeds))
	for _, cell := range cells {
		for _, seed := range cfg.Seeds {
			grid = append(grid, contentionRunCfg(cfg, cell, seed))
		}
	}
	return grid
}

// ContentionCampaign packages one machine's contention grid as a
// distributable campaign (cmd/sweepd serves it to workers).
func ContentionCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	mcfg := cfg
	mcfg.Machine = machine
	return dist.Campaign{Env: mcfg.Env(), Specs: contentionGrid(mcfg)}
}

// Contention runs the herding campaign on the given machines (default:
// ContentionMachines — hex then quad). Rows come back machine-major in
// ContentionCells order: every policy unpriced, then the engine-backed
// policies priced. The improvement column is relative to the same machine's
// unpriced sim.PolicyNone row.
func Contention(cfg Config, machines []*amp.Machine) ([]ContentionRow, error) {
	if machines == nil {
		machines = ContentionMachines()
	}
	cells := ContentionCells()
	var rows []ContentionRow
	for _, machine := range machines {
		mcfg := cfg
		mcfg.Machine = machine
		// The antagonist fleet regenerates from (cost, machine); the suite
		// still rides along in the environment for worker validation.
		suite, err := workload.Suite(mcfg.Cost, machine)
		if err != nil {
			return nil, err
		}
		mcfg.Suite = suite

		results, err := mcfg.sweep(contentionGrid(mcfg))
		if err != nil {
			return nil, err
		}
		nSeeds := len(mcfg.Seeds)

		for ci, cell := range cells {
			row := ContentionRow{Machine: machine.Name, Policy: cell.Policy, Priced: cell.Priced}
			var tputs, tputPcts []float64
			for si := 0; si < nSeeds; si++ {
				base, res := results[si], results[ci*nSeeds+si]
				bt := metrics.ThroughputOver(base.Samples, 0, mcfg.DurationSec)
				rt := metrics.ThroughputOver(res.Samples, 0, mcfg.DurationSec)
				tputs = append(tputs, rt)
				tputPcts = append(tputPcts, metrics.PercentIncrease(bt, rt))
				for _, t := range res.Tasks {
					row.Switches += float64(t.Migrations)
				}
				if cs := res.CacheStats; cs != nil {
					var totalMem int64
					for _, ps := range cs.GroupMemPs {
						totalMem += ps
					}
					if row.MemShare == nil {
						row.MemShare = make([]float64, len(cs.GroupMemPs))
					}
					if totalMem > 0 {
						for g, ps := range cs.GroupMemPs {
							row.MemShare[g] += float64(ps) / float64(totalMem)
						}
					}
					for _, ps := range cs.GroupMemPs {
						if ps > 0 {
							row.GroupsUsed++
						}
					}
					row.MemTasks += float64(cs.MemTasks)
				}
			}
			n := float64(nSeeds)
			row.Throughput = metrics.Mean(tputs)
			row.ThroughputPct = metrics.Mean(tputPcts)
			row.Switches /= n
			row.GroupsUsed /= n
			row.MemTasks /= n
			for g := range row.MemShare {
				row.MemShare[g] /= n
				if row.MemShare[g] > row.MaxMemShare {
					row.MaxMemShare = row.MemShare[g]
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
