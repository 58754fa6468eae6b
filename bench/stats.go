package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric describes one reported metric. Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts
// as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of a campaign sees, from untraced reps.
// README.md gives the measured spreads behind each bound.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"sim_ginstr_per_s", "Ginstr/s", "higher", 0.25},
	{"allocs_m", "M", "lower", 0.03},
	{"alloc_mb", "MB", "lower", 0.03},
	{"heap_retained_mb", "MB", "lower", 0.10},
}

// floors are absolute tolerances, in the metric's unit, below which a
// change never counts: set-up takes 10-200 ms, where a share alone would
// flag a few milliseconds of process-start jitter.
var floors = map[string]float64{"setup_s": 0.020}

// perLayer are the metrics of single layers, from a traced rep plus the
// probes. README.md maps each to the end-to-end metric and workload it
// should move.
var perLayer = []metric{
	{Name: "workload.suite_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.images", Unit: "count", Better: "lower"},
	{Name: "pipeline.ms", Unit: "ms", Better: "lower"},
	{Name: "cfg.build_ms", Unit: "ms", Better: "lower"},
	{Name: "phase.typing_ms", Unit: "ms", Better: "lower"},
	{Name: "summarize.loops_ms", Unit: "ms", Better: "lower"},
	{Name: "transition.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "instrument.rewrite_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.image_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.cells", Unit: "count", Better: "higher"},
	{Name: "sim.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.cell_ms_max", Unit: "ms", Better: "lower"},
	{Name: "sim.minstr", Unit: "Minstr", Better: "higher"},
	{Name: "exec.memo_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "exec.memo_fill", Unit: "ratio", Better: "lower"},
	{Name: "exec.memo_replayed_msteps", Unit: "Msteps", Better: "higher"},
	{Name: "exec.memo_recorded_msteps", Unit: "Msteps", Better: "lower"},
	{Name: "exec.step_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.record_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "exec.replay_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "exec.step_allocs", Unit: "allocs", Better: "lower"},
	{Name: "osched.bursts", Unit: "count", Better: "lower"},
	{Name: "osched.ns_per_burst", Unit: "ns", Better: "lower"},
	{Name: "osched.overcommit_slices", Unit: "count", Better: "lower"},
	{Name: "osched.peak_runnable", Unit: "count", Better: "lower"},
	{Name: "place.decides", Unit: "count", Better: "lower"},
	{Name: "place.arbitrates", Unit: "count", Better: "lower"},
	{Name: "place.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "place.arbitrate_ns", Unit: "ns", Better: "lower"},
	{Name: "place.arbitrate_priced_ns", Unit: "ns", Better: "lower"},
	{Name: "place.arbitrate_allocs", Unit: "allocs", Better: "lower"},
	{Name: "online.windows", Unit: "count", Better: "lower"},
	{Name: "online.decisions", Unit: "count", Better: "lower"},
	{Name: "ledger.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "cache.stats_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "dist.register_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.lease_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.empty_leases", Unit: "count", Better: "lower"},
	{Name: "dist.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.result_mb", Unit: "MB", Better: "lower"},
	{Name: "dist.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "selftime.workload_pct", Unit: "%", Better: "lower"},
	{Name: "selftime.pipeline_pct", Unit: "%", Better: "lower"},
	{Name: "selftime.sim_pct", Unit: "%", Better: "lower"},
	{Name: "selftime.dist_pct", Unit: "%", Better: "lower"},
	{Name: "harness.span_overhead_pct", Unit: "%", Better: "lower"},
}

// endToEndValues derives a rep's end-to-end metrics.
func endToEndValues(r *repReport) map[string]float64 {
	return map[string]float64{
		"wall_s":           r.WallSec,
		"setup_s":          r.SetupSec,
		"cpu_s":            r.CPUSec,
		"sim_ginstr_per_s": float64(r.Instructions) / r.WallSec / 1e9,
		"allocs_m":         float64(r.Mallocs) / 1e6,
		"alloc_mb":         float64(r.AllocBytes) / 1e6,
		"heap_retained_mb": float64(r.HeapBytes) / 1e6,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4): linear interpolation at
// positions (n+1)/4 and 3(n+1)/4, clamped to the data.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is one metric over a workload's reps.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newSummary(m metric, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: values,
		Median: median(values), Q1: q1, Q3: q3}
}

// workloadResult is one workload's outcome over a pass.
type workloadResult struct {
	Name      string             `json:"name"`
	Cells     int                `json:"cells"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Golden    string             `json:"golden"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Digests   []string           `json:"digests"`
	Problems  []string           `json:"problems,omitempty"`
}

// passReport is what -json writes and -compare reads.
type passReport struct {
	Revision   string           `json:"revision,omitempty"`
	Go         string           `json:"go"`
	CPUs       int              `json:"cpus"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seeds      []uint64         `json:"seeds"`
	RunSeed    uint64           `json:"run_seed"`
	Workloads  []workloadResult `json:"workloads"`
}

func readPass(path string) (passReport, error) {
	var p passReport
	blob, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(blob, &p); err != nil {
		return p, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// verdict compares head with base on one metric. The tolerance is the
// bound's share of the base median, or the metric's floor if that is
// larger. The verdict is "unresolved" when either side's quartile distance
// exceeds the tolerance, unless every head rep beats, or loses to, every
// base rep; otherwise "worse" or "better" when the medians differ by more
// than the tolerance, and "same" within it.
func verdict(m metric, base, head summary) string {
	sign := 1.0
	allBetter := maxOf(head.Values) < minOf(base.Values)
	allWorse := minOf(head.Values) > maxOf(base.Values)
	if m.Better == "higher" {
		sign = -1
		allBetter, allWorse = allWorse, allBetter
	}
	tol := math.Max(m.Bound*math.Abs(base.Median), floors[m.Name])
	if base.Q3-base.Q1 > tol || head.Q3-head.Q1 > tol {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	change := sign * (head.Median - base.Median)
	switch {
	case change > tol:
		return "worse"
	case change < -tol:
		return "better"
	}
	return "same"
}

// failFrac is the share of attempted cells that failed.
func (r workloadResult) failFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// failVerdict compares fail fractions with a bound of 0: any rise is worse.
func failVerdict(base, head workloadResult) string {
	switch b, h := base.failFrac(), head.failFrac(); {
	case h > b:
		return "worse"
	case h < b:
		return "better"
	}
	return "same"
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// compare prints one row per workload and end-to-end metric, one for the
// fail fraction, and whether each workload's digests are equal. It reports
// whether any row is worse.
func compare(w io.Writer, base, head passReport) bool {
	worse := false
	fmt.Fprintf(w, "%-11s %-17s %-32s %-32s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "verdict")
	for _, hw := range head.Workloads {
		var bw *workloadResult
		for i := range base.Workloads {
			if base.Workloads[i].Name == hw.Name {
				bw = &base.Workloads[i]
			}
		}
		if bw == nil {
			fmt.Fprintf(w, "%-11s not in base\n", hw.Name)
			continue
		}
		for _, m := range endToEnd {
			b, h := bw.Metrics[m.Name], hw.Metrics[m.Name]
			v := verdict(m, b, h)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-11s %-17s %-32s %-32s %s\n", hw.Name, m.Name, fmtSummary(b), fmtSummary(h), v)
		}
		v := failVerdict(*bw, hw)
		worse = worse || v == "worse"
		fmt.Fprintf(w, "%-11s %-17s %-32s %-32s %s\n", hw.Name, "fail_frac", fmtFails(*bw), fmtFails(hw), v)
		same := len(bw.Digests) == len(hw.Digests)
		for i := 0; same && i < len(hw.Digests); i++ {
			same = bw.Digests[i] == hw.Digests[i]
		}
		fmt.Fprintf(w, "%-11s digests equal: %v\n", hw.Name, same)
	}
	return worse
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", s.Median, s.Q1, s.Q3, s.Unit)
}

func fmtFails(r workloadResult) string {
	return fmt.Sprintf("%.4g (%d of %d cells)", r.failFrac(), r.Failed, r.Attempted)
}
