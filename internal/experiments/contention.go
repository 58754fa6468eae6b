package experiments

import (
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/osched"
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

// HerdingRow is one (machine, policy, priced) cell of the contention
// campaign aggregated over seeds.
type HerdingRow struct {
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
	return seedGrid(cfg.Seeds, ContentionCells(), func(cell ContentionCell, seed uint64) dist.Spec {
		return contentionRunCfg(cfg, cell, seed)
	})
}

// ContentionCampaign packages one machine's contention grid as a
// distributable campaign (cmd/sweepd serves it to workers).
func ContentionCampaign(cfg Config, machine *amp.Machine) dist.Campaign {
	return cfg.campaign(machine, contentionGrid)
}

// Contention runs the herding campaign on the given machines (default:
// ContentionMachines — hex then quad). Rows come back machine-major in
// ContentionCells order: every policy unpriced, then the engine-backed
// policies priced. The improvement column is relative to the same machine's
// unpriced sim.PolicyNone row.
func Contention(cfg Config, machines []*amp.Machine) ([]HerdingRow, error) {
	if machines == nil {
		machines = ContentionMachines()
	}
	var rows []HerdingRow
	for _, machine := range machines {
		// The antagonist fleet regenerates from (cost, machine); the suite
		// still rides along in the environment for worker validation.
		mcfg, err := cfg.on(machine)
		if err != nil {
			return nil, err
		}
		cells, err := mcfg.sweepCells(contentionGrid(mcfg))
		if err != nil {
			return nil, err
		}
		d, base := mcfg.DurationSec, cells[0]
		for ci, key := range ContentionCells() {
			c := cells[ci]
			row := HerdingRow{
				Machine:       machine.Name,
				Policy:        key.Policy,
				Priced:        key.Priced,
				Throughput:    c.mean(tput(d)),
				ThroughputPct: c.vs(base, tputPct(d)),
				GroupsUsed:    c.mean(residency(groupsUsed)),
				MemTasks:      c.mean(residency(func(cs *osched.CacheStats) float64 { return float64(cs.MemTasks) })),
				Switches:      c.mean(migrations),
			}
			if cs := c[0].CacheStats; cs != nil {
				row.MemShare = make([]float64, len(cs.GroupMemPs))
			}
			for g := range row.MemShare {
				row.MemShare[g] = c.mean(residency(memShare(g)))
				row.MaxMemShare = max(row.MaxMemShare, row.MemShare[g])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// residency reads the run's cache-group residency map; 0 for runs without
// one.
func residency(f func(*osched.CacheStats) float64) metric {
	return func(r *sim.Result) float64 {
		if r.CacheStats == nil {
			return 0
		}
		return f(r.CacheStats)
	}
}

// memShare is group g's share of the run's memory-bound core time; 0 when
// no memory-bound time was recorded.
func memShare(g int) func(*osched.CacheStats) float64 {
	return func(cs *osched.CacheStats) float64 {
		var total int64
		for _, ps := range cs.GroupMemPs {
			total += ps
		}
		if total <= 0 {
			return 0
		}
		return float64(cs.GroupMemPs[g]) / float64(total)
	}
}

// groupsUsed counts the cache groups that hosted any memory-bound time.
func groupsUsed(cs *osched.CacheStats) float64 {
	n := 0
	for _, ps := range cs.GroupMemPs {
		if ps > 0 {
			n++
		}
	}
	return float64(n)
}

// contentionTables runs the herding campaign and reduces it: the cell
// table, then one bar chart per machine — the herding signature by policy,
// unpriced vs priced side by side.
func contentionTables(cfg Config, _ Axes) ([]benchhist.Table, error) {
	rows, err := Contention(cfg, nil)
	if err != nil {
		return nil, err
	}
	main := benchhist.Table{Columns: []benchhist.Column{
		col("machine", "", ""), col("policy", "", ""), col("priced", "", ""),
		col("tput", "instr/s", "%.4g"), col("tput%", "%", "%+.2f"), col("max-share", "share", "%.3f"),
		col("groups", "groups", "%.1f"), col("mem-tasks", "tasks", "%.1f"),
		col("switches", "count", "%.0f"), col("shares", "share", "%.2f"),
	}}
	for _, r := range rows {
		priced := "-"
		if r.Priced {
			priced = "yes"
		}
		main.AddRow(r.Machine, r.Policy.String(), priced, r.Throughput, r.ThroughputPct,
			r.MaxMemShare, r.GroupsUsed, r.MemTasks, r.Switches, r.MemShare)
	}
	tables := []benchhist.Table{main}

	for _, mrows := range runs(rows, func(r HerdingRow) string { return r.Machine }) {
		bars := benchhist.Table{
			Title:   fmt.Sprintf("%s — hottest cache group's share of memory-bound time (1.0 = herded)", mrows[0].Machine),
			Columns: []benchhist.Column{col("policy", "", ""), col("max-share", "share", "%.3f")},
			Chart:   &benchhist.Chart{Kind: benchhist.ChartBars},
		}
		for _, r := range mrows {
			label := r.Policy.String()
			if r.Priced {
				label += "+price"
			}
			bars.AddRow(label, r.MaxMemShare)
		}
		tables = append(tables, bars)
	}
	return tables, nil
}
