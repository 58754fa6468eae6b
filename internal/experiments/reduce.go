package experiments

import (
	"phasetune/internal/dist"
	"phasetune/internal/ledger"
	"phasetune/internal/metrics"
	"phasetune/internal/online"
	"phasetune/internal/sim"
)

// ---------------------------------------------------------------------------
// The one reduction every driver shares. A swept grid is always cell-major
// and seed-minor (seedGrid builds it); sweepCells splits its results into
// cells, one run per seed in Config.Seeds order. A row field is then the
// mean of a per-run metric over its cell, or the mean of a seed-matched
// comparison against the baseline cell: the paper's protocol (§IV-A2)
// compares each technique with the stock scheduler on the same workload
// queues, then averages over workloads.

// cell is one grid cell's runs, one per seed in Config.Seeds order.
type cell []*sim.Result

// metric is a per-run quantity.
type metric func(*sim.Result) float64

// comparison is a quantity of run r against its seed-matched baseline b.
type comparison func(b, r *sim.Result) float64

// seedGrid expands each key into one run per seed, cell-major and
// seed-minor — the layout sweepCells splits.
func seedGrid[K any](seeds []uint64, keys []K, spec func(K, uint64) dist.Spec) []dist.Spec {
	grid := make([]dist.Spec, 0, len(keys)*len(seeds))
	for _, k := range keys {
		for _, seed := range seeds {
			grid = append(grid, spec(k, seed))
		}
	}
	return grid
}

// sweepCells sweeps a seedGrid and returns its cells in key order.
func (c *Config) sweepCells(grid []dist.Spec) ([]cell, error) {
	results, err := c.sweep(grid)
	if err != nil {
		return nil, err
	}
	n := len(c.Seeds)
	var cells []cell
	for len(results) > 0 {
		cells = append(cells, results[:n:n])
		results = results[n:]
	}
	return cells, nil
}

// sumOf adds f over xs in order.
func sumOf[T any](xs []T, f func(T) float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += f(x)
	}
	return s
}

// meanOf is the sum in order divided by len(xs): metrics.Mean's arithmetic,
// so a reduced row is bit-identical to averaging a per-seed slice.
func meanOf[T any](xs []T, f func(T) float64) float64 {
	return sumOf(xs, f) / float64(len(xs))
}

// sum adds m over the cell's seeds.
func (c cell) sum(m metric) float64 { return sumOf(c, m) }

// mean averages m over the cell's seeds.
func (c cell) mean(m metric) float64 { return meanOf(c, m) }

// vs averages cmp over the cell's seeds, each run against the base cell's
// run of the same seed.
func (c cell) vs(base cell, cmp comparison) float64 {
	s := 0.0
	for i, r := range c {
		s += cmp(base[i], r)
	}
	return s / float64(len(c))
}

// hasLedger reports whether any run of the cell carried a cycle ledger.
func (c cell) hasLedger() bool {
	for _, r := range c {
		if l := r.Ledger; l != nil && l.HorizonPs > 0 {
			return true
		}
	}
	return false
}

// Per-run metrics.

// tput is mean committed-instruction throughput over [0, d] seconds.
func tput(d float64) metric {
	return func(r *sim.Result) float64 { return metrics.ThroughputOver(r.Samples, 0, d) }
}

// migrations is the run's total core-switch count.
func migrations(r *sim.Result) float64 {
	n := 0
	for _, t := range r.Tasks {
		n += t.Migrations
	}
	return float64(n)
}

// marks is the run's total dynamic phase-mark count.
func marks(r *sim.Result) float64 {
	var n uint64
	for _, t := range r.Tasks {
		n += t.MarksExecuted
	}
	return float64(n)
}

// counterDefers counts monitoring requests that found no free event set.
func counterDefers(r *sim.Result) float64 { return float64(r.CounterDefers) }

// onlineStat reads one detector counter; 0 for runs without a detector.
func onlineStat(f func(*online.Stats) float64) metric {
	return func(r *sim.Result) float64 {
		if r.Online == nil {
			return 0
		}
		return f(r.Online)
	}
}

var (
	onlineWindows  = onlineStat(func(s *online.Stats) float64 { return float64(s.Windows) })
	chargedCycles  = onlineStat(func(s *online.Stats) float64 { return float64(s.ChargedCycles) })
	onlineSwitches = onlineStat(func(s *online.Stats) float64 { return float64(s.Switches) })
	refreshes      = onlineStat(func(s *online.Stats) float64 { return float64(s.Refreshes) })
	damped         = onlineStat(func(s *online.Stats) float64 { return float64(s.Damped) })
)

// monitorPct is the detector's charged cycles in percent of the run's
// committed cycles; 0 without a detector.
func monitorPct(r *sim.Result) float64 {
	var cycles uint64
	for _, t := range r.Tasks {
		cycles += t.Cycles
	}
	if r.Online == nil || cycles == 0 {
		return 0
	}
	return 100 * float64(r.Online.ChargedCycles) / float64(cycles)
}

// share is the ledger time ps selects in percent of the machine's total
// core time (cores × horizon); 0 without a ledger.
func share(ps func(ledger.Breakdown) int64) metric {
	return func(r *sim.Result) float64 {
		l := r.Ledger
		if l == nil || l.HorizonPs <= 0 {
			return 0
		}
		return 100 * float64(ps(l.Total)) / (float64(l.Cores) * float64(l.HorizonPs))
	}
}

// Comparisons against the seed-matched baseline.

// tputPct is the throughput improvement over [0, d] seconds, in percent.
func tputPct(d float64) comparison {
	m := tput(d)
	return func(b, r *sim.Result) float64 { return metrics.PercentIncrease(m(b), m(r)) }
}

// decrease is the percent decrease of m from the baseline run.
func decrease(m metric) comparison {
	return func(b, r *sim.Result) float64 { return metrics.PercentDecrease(m(b), m(r)) }
}

// avgTimePct is the raw average-process-time decrease, in percent.
var avgTimePct = decrease(func(r *sim.Result) float64 { return metrics.AvgProcessTime(r.Tasks) })

// matchedPct is the instance-matched average-time decrease
// (matchedAvgImprovement), in percent.
func matchedPct(b, r *sim.Result) float64 { return matchedAvgImprovement(b.Tasks, r.Tasks) }

// instrPct is the committed-instruction increase over the whole run, in
// percent.
func instrPct(b, r *sim.Result) float64 {
	return metrics.PercentIncrease(float64(b.TotalInstructions), float64(r.TotalInstructions))
}
