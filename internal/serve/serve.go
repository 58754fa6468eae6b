// Package serve is the open-system serving layer's front door: it relates
// offered load to machine capacity and summarizes serving runs into
// latency statistics.
//
// The pieces of the open-system model live where they belong — arrival
// processes in internal/workload (ArrivalSpec, Spec.MaterializeOpen), the
// proportional-share overcommit dispatcher in internal/osched
// (Kernel.Overcommit, Kernel.OvercommitScale), per-job sojourn accounting
// in internal/sim and internal/metrics — and this package ties them
// together with the two calculations every serving experiment needs:
//
//   - Capacity: a machine's processing rate in fast-core equivalents, so
//     "offered load 1.0×" means "arrival work equals what the whole
//     asymmetric machine can retire";
//   - offered rate: the arrival rate (jobs/sec) that realizes a target
//     load multiple against the serving fleet's mean service time.
//
// Load is the experiment's x-axis: below 1× every admitted job should
// complete (the overcommit invariant tests pin this); at and above 1×
// queues grow, runnable tasks exceed cores, and the policies separate on
// the sojourn-time tail rather than on throughput.
package serve

import (
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/metrics"
	"phasetune/internal/osched"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// Capacity returns the machine's processing rate in fast-core
// equivalents: each core contributes its scaled clock relative to the
// fast (first) type. The paper's quad (2×2.4 GHz + 2×1.6 GHz) has
// capacity 2 + 2×(1.6/2.4) ≈ 3.33 — less than its four cores, which is
// exactly the asymmetry serving policies exploit.
func Capacity(m *amp.Machine) float64 {
	fast := m.Types[0].CyclesPerSec
	total := 0.0
	for _, c := range m.Cores {
		total += m.Types[c.Type].CyclesPerSec / fast
	}
	return total
}

// OfferedRate returns the arrival rate (jobs per simulated second) that
// realizes the given load multiple of machine capacity: load × capacity
// fast-core equivalents divided by the serving fleet's mean fast-core
// service time. At load 1.0 the arriving work per second equals what the
// machine can retire per second.
func OfferedRate(m *amp.Machine, load float64) float64 {
	return load * Capacity(m) / workload.ServingMeanServiceSec()
}

// Arrivals builds the arrival spec realizing a load multiple on the
// machine over the given admission horizon. Runs should use a duration
// comfortably past the horizon so admitted jobs can drain.
func Arrivals(m *amp.Machine, kind workload.ArrivalKind, load, horizonSec float64) workload.ArrivalSpec {
	return workload.ArrivalSpec{
		Kind:       kind,
		RatePerSec: OfferedRate(m, load),
		HorizonSec: horizonSec,
	}
}

// Stats summarizes one serving run: admission and completion counts,
// exact sojourn-time quantiles over completed jobs, and the overcommit
// evidence (peak runnable, shortened slices).
type Stats struct {
	// Admitted and Completed count jobs; Admitted - Completed were still
	// in the system at the run horizon.
	Admitted, Completed int
	// MeanSojournSec and MaxSojournSec summarize completed-job latency.
	// NaN when no job completed — an overloaded run with an empty
	// completed set must not masquerade as one with zero latency (the hex
	// 1.5× oracle run finishes 86 of 301 jobs; a run finishing zero would
	// otherwise look perfect). Use Empty to branch before formatting.
	MeanSojournSec, MaxSojournSec float64
	// P50, P95, P99, P999 are exact nearest-rank sojourn quantiles in
	// seconds (NaN when no job completed).
	P50, P95, P99, P999 float64
	// PeakRunnable is the maximum simultaneously live task count; above
	// the core count, the run exercised overcommit.
	PeakRunnable int
	// OvercommitSlices counts dispatch slices the proportional-share
	// dispatcher shortened.
	OvercommitSlices uint64
	// HasLedger reports whether the run carried a cycle ledger, making the
	// sojourn decomposition below meaningful (all three are zero without
	// one).
	HasLedger bool
	// QueueingSec, ServiceSec, and SlicingSec decompose where admitted
	// jobs' time went, summed across tasks in simulated seconds: waiting in
	// run queues, occupying a core (useful work plus asymmetry/spill loss
	// plus monitoring/migration/switch overheads), and paying the
	// overcommit dispatcher's slicing tax. A queueing-dominated run is one
	// the machine lost to convoys, not to slow execution.
	QueueingSec, ServiceSec, SlicingSec float64
}

// Empty reports whether the summary has no completed jobs, i.e. every
// latency field is NaN.
func (s Stats) Empty() bool { return s.Completed == 0 }

// Summarize condenses a serving run result. With no completed jobs the
// latency fields (mean, max, and every quantile) are NaN, matching
// metrics.Quantile's empty-set convention — never silent zeros.
func Summarize(res *sim.Result) Stats {
	soj := metrics.SojournTimes(res.Tasks)
	qs := metrics.Quantiles(soj, 0.50, 0.95, 0.99, 0.999)
	st := Stats{
		Admitted:         len(res.Tasks),
		Completed:        len(soj),
		MeanSojournSec:   math.NaN(),
		MaxSojournSec:    math.NaN(),
		P50:              qs[0],
		P95:              qs[1],
		P99:              qs[2],
		P999:             qs[3],
		PeakRunnable:     res.PeakRunnable,
		OvercommitSlices: res.OvercommitSlices,
	}
	if len(soj) > 0 {
		st.MeanSojournSec = metrics.Mean(soj)
		max := soj[0]
		for _, v := range soj {
			if v > max {
				max = v
			}
		}
		st.MaxSojournSec = max
	}
	if res.Ledger != nil {
		st.HasLedger = true
		var queuePs, busyPs, slicePs int64
		for _, t := range res.Ledger.PerTask {
			queuePs += t.QueuePs
			busyPs += t.BusyPs()
			slicePs += t.SlicingPs
		}
		st.QueueingSec = osched.PsToSec(queuePs)
		st.ServiceSec = osched.PsToSec(busyPs - slicePs)
		st.SlicingSec = osched.PsToSec(slicePs)
	}
	return st
}
