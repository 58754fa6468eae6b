// Package metrics computes the evaluation metrics of the paper's §IV:
// throughput (instructions committed over an interval), the fairness
// metrics max-flow and max-stretch of Bender et al. ("Flow and stretch
// metrics for scheduling continuous job streams"), average process time,
// and box-plot statistics for the overhead figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// TaskStat is the per-process record the metrics are computed from.
type TaskStat struct {
	// Name is the benchmark name.
	Name string
	// Slot is the workload slot the job ran in.
	Slot int
	// ArrivalSec and CompletionSec are in simulated seconds; CompletionSec
	// is negative for jobs still running when the experiment ended.
	ArrivalSec, CompletionSec float64
	// Migrations counts core switches.
	Migrations int
	// Instructions and Cycles are final counter values.
	Instructions, Cycles uint64
	// MarksExecuted counts dynamic phase-mark executions.
	MarksExecuted uint64
	// FinalAffinity is the task's affinity mask when the run ended — the
	// placement the tuning or online runtime left it with (0 when the
	// kernel predates affinity assignment; all-cores masks are recorded
	// explicitly).
	FinalAffinity uint64
}

// Completed reports whether the job finished.
func (t TaskStat) Completed() bool { return t.CompletionSec >= 0 }

// FlowSec returns the flow time F = C - a (Bender et al.).
func (t TaskStat) FlowSec() float64 { return t.CompletionSec - t.ArrivalSec }

// MaxFlow returns max_j F_j over completed jobs — "basically the longest
// measured execution time. If even one process is starving, this number will
// increase significantly" (§IV-D).
func MaxFlow(stats []TaskStat) float64 {
	max := 0.0
	for _, t := range stats {
		if t.Completed() && t.FlowSec() > max {
			max = t.FlowSec()
		}
	}
	return max
}

// MaxStretch returns max_j F_j / t_j, the largest slowdown of any completed
// job relative to its isolation processing time. isolationSec maps benchmark
// name to t_j.
func MaxStretch(stats []TaskStat, isolationSec map[string]float64) (float64, error) {
	max := 0.0
	for _, t := range stats {
		if !t.Completed() {
			continue
		}
		iso, ok := isolationSec[t.Name]
		if !ok || iso <= 0 {
			return 0, fmt.Errorf("metrics: no isolation time for %q", t.Name)
		}
		if s := t.FlowSec() / iso; s > max {
			max = s
		}
	}
	return max, nil
}

// AvgProcessTime returns the mean flow time of completed jobs, the paper's
// "average process time".
func AvgProcessTime(stats []TaskStat) float64 {
	sum, n := 0.0, 0
	for _, t := range stats {
		if t.Completed() {
			sum += t.FlowSec()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CompletedCount returns the number of finished jobs.
func CompletedCount(stats []TaskStat) int {
	n := 0
	for _, t := range stats {
		if t.Completed() {
			n++
		}
	}
	return n
}

// PercentDecrease returns how much v improved (decreased) relative to base,
// in percent: positive is better, matching the paper's Table 2 ("% decrease
// over standard Linux").
func PercentDecrease(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - v) / base * 100
}

// PercentIncrease returns the relative increase of v over base in percent,
// used for throughput improvement (Figs. 6-7).
func PercentIncrease(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// ThroughputSample mirrors osched.Sample without importing it (cumulative
// committed instructions at a timestamp).
type ThroughputSample struct {
	AtSec        float64
	Instructions uint64
}

// ThroughputOver returns committed instructions per second over the window
// [fromSec, toSec], interpolating between the nearest samples.
func ThroughputOver(samples []ThroughputSample, fromSec, toSec float64) float64 {
	if toSec <= fromSec || len(samples) < 2 {
		return 0
	}
	at := func(sec float64) float64 {
		// Clamp to sample range, then linear interpolation.
		if sec <= samples[0].AtSec {
			return float64(samples[0].Instructions)
		}
		last := samples[len(samples)-1]
		if sec >= last.AtSec {
			return float64(last.Instructions)
		}
		i := sort.Search(len(samples), func(i int) bool { return samples[i].AtSec >= sec })
		a, b := samples[i-1], samples[i]
		f := (sec - a.AtSec) / (b.AtSec - a.AtSec)
		return float64(a.Instructions) + f*(float64(b.Instructions)-float64(a.Instructions))
	}
	return (at(toSec) - at(fromSec)) / (toSec - fromSec)
}

// Box is a five-number summary for box plots (paper Fig. 3: "the box
// represents the two inner quartiles and the line extends to the minimum and
// maximum points").
type Box struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// BoxStats computes the summary of a sample. An empty sample yields zeros.
func BoxStats(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Box{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// quantile returns the q-quantile of sorted data via linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[hi]*f
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
