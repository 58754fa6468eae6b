// Command benchjson runs the repository's headline performance benchmarks
// and appends them to a machine-readable history (default BENCH_sweep.json),
// so the performance trajectory accumulates PR-over-PR instead of living
// only in transient `go test -bench` output.
//
// Usage:
//
//	benchjson [-out BENCH_sweep.json] [-reps 3]
//	benchjson -history [-out BENCH_sweep.json] [-regression 10]
//
// -history renders the recorded trajectory instead of running benchmarks:
// one ASCII series per benchmark name (ns/op over entries) plus a
// last-vs-previous comparison table. The history is shared with other
// producers (internal/benchhist): the newest `table` entry of each
// campaign, appended by `cmd/experiments -run <campaign> -benchout`, is
// redrawn with benchhist.Render — the function the campaign printed it
// with — and entries of kinds this build does not know are called out by
// kind and count rather than silently skipped. The regression gate
// compares the last two *timing* entries, so appending campaign tables
// never masks (or fakes) a benchmark regression. It exits
// non-zero when any benchmark regressed by more than -regression percent —
// CI wires it as a soft-fail step so the performance trajectory is
// inspected on every push without blocking unrelated work.
//
// Timings recorded, mirroring the root bench harness:
//
//   - grid_sequential: the legacy one-shot Run loop over the technique
//     grid (no artifact sharing);
//   - grid_sweep: the identical grid through Session.Sweep (bounded worker
//     pool + shared image cache);
//   - workload_second_baseline / workload_second_dynamic: the cost of
//     simulating one loaded second under the stock scheduler and under the
//     online phase detector (the dynamic subsystem's overhead on the
//     simulator hot path).
//
// Each benchmark runs -reps times (at least once; a smaller -reps is
// rejected before anything runs) and reports the minimum (the standard
// noise-rejection choice for wall-clock microbenchmarks). Every timing
// benchmark additionally records its heap allocation count for the fastest
// rep (metric allocs_per_op, the `-benchmem` analogue), and grid_sweep
// records the session's segment-memo counters (memo_hits plus the derived
// memo_hit_rate): with -reps >= 2 the later reps replay memoized segment
// outcomes, so a zero warm hit rate is a memo regression.
//
// The output file is a history (schema phasetune-bench-history/v1): each
// invocation appends one timestamped entry. A pre-history file holding a
// single phasetune-bench/v1 report is absorbed as the first entry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"phasetune"
	"phasetune/internal/benchhist"
	"phasetune/internal/textplot"
)

func main() {
	out := flag.String("out", "BENCH_sweep.json", "output path (history is appended)")
	reps := flag.Int("reps", 3, "repetitions per benchmark (minimum is reported)")
	history := flag.Bool("history", false, "render the recorded history and check for regressions instead of running")
	regression := flag.Float64("regression", 10, "history mode: fail when a benchmark slowed by more than this percent vs the previous entry")
	flag.Parse()
	var err error
	if *history {
		err = runHistory(*out, *regression)
	} else {
		err = run(*out, *reps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runHistory renders the recorded trajectory and gates on regressions:
// every benchmark's ns/op is plotted over the timing entries, the newest
// table entry of each campaign is redrawn, and the newest timing entry is
// compared against the one before it.
func runHistory(path string, regressionPct float64) error {
	hist := benchhist.Load(path)
	if len(hist.Entries) == 0 {
		return fmt.Errorf("%s holds no history entries", path)
	}

	// Partition by kind: timings chart as series, the newest table entry
	// per campaign is redrawn, anything newer than this build is surfaced.
	var timings []benchhist.Entry
	var campaigns []string
	latest := map[string]benchhist.Entry{}
	unknown := map[string]int{}
	for _, e := range hist.Entries {
		switch e.Kind {
		case benchhist.KindBench:
			timings = append(timings, e)
		case benchhist.KindTable:
			if _, ok := latest[e.Campaign]; !ok {
				campaigns = append(campaigns, e.Campaign)
			}
			latest[e.Campaign] = e
		default:
			unknown[e.Kind]++
		}
	}
	fmt.Printf("%s: %d entries (%d timing, oldest first)\n", path, len(hist.Entries), len(timings))
	for kind, n := range unknown {
		fmt.Printf("note: %d entries of kind %q recorded by a newer producer — not charted by this build\n", n, kind)
	}

	// Collect per-benchmark series in first-appearance order.
	var names []string
	series := map[string][]float64{} // parallel to timing indices; -1 marks absent
	for _, e := range timings {
		for _, b := range e.Benchmarks {
			if _, ok := series[b.Name]; !ok {
				series[b.Name] = nil
				names = append(names, b.Name)
			}
		}
	}
	for _, name := range names {
		for _, e := range timings {
			v := -1.0
			for _, b := range e.Benchmarks {
				if b.Name == name {
					v = float64(b.NsPerOp) / 1e6 // ms
				}
			}
			series[name] = append(series[name], v)
		}
	}
	for _, name := range names {
		var xs, ys []float64
		for i, v := range series[name] {
			if v >= 0 {
				xs = append(xs, float64(i))
				ys = append(ys, v)
			}
		}
		if len(xs) < 2 {
			continue
		}
		fmt.Printf("\n%s (ms/op over entries)\n", name)
		fmt.Print(textplot.Series("entry", "ms/op", xs, ys, 40))
	}

	for _, name := range campaigns {
		e := latest[name]
		fmt.Printf("\n=== %s (%s, recorded %s) ===\n\n", e.Title, e.Campaign, e.Timestamp)
		if err := benchhist.Render(os.Stdout, e.Tables); err != nil {
			return err
		}
	}

	if len(timings) < 2 {
		fmt.Println("\nfewer than two timing entries: nothing to compare")
		return nil
	}
	prev, last := timings[len(timings)-2], timings[len(timings)-1]
	prevNs := map[string]int64{}
	for _, b := range prev.Benchmarks {
		prevNs[b.Name] = b.NsPerOp
	}
	t := benchhist.Table{Columns: []benchhist.Column{benchhist.Col("benchmark", "", ""),
		benchhist.Col("prev ms", "ms", "%.1f"), benchhist.Col("last ms", "ms", "%.1f"), benchhist.Col("delta%", "%", "%+.1f")}}
	var regressed []string
	for _, b := range last.Benchmarks {
		p, ok := prevNs[b.Name]
		if !ok || p == 0 {
			continue
		}
		deltaPct := 100 * (float64(b.NsPerOp) - float64(p)) / float64(p)
		t.AddRow(b.Name, float64(p)/1e6, float64(b.NsPerOp)/1e6, deltaPct)
		if deltaPct > regressionPct {
			regressed = append(regressed, fmt.Sprintf("%s (%+.1f%%)", b.Name, deltaPct))
		}
	}
	fmt.Println()
	if err := benchhist.Render(os.Stdout, []benchhist.Table{t}); err != nil {
		return err
	}

	// Derived metrics and allocation counts of the newest entry: speedups,
	// the segment-memo hit rate, and allocs/op per benchmark.
	if len(last.Derived) > 0 {
		keys := make([]string, 0, len(last.Derived))
		for k := range last.Derived {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("\nlatest derived metrics:")
		for _, k := range keys {
			fmt.Printf("  %s = %.3f\n", k, last.Derived[k])
		}
	}
	for _, b := range last.Benchmarks {
		if a, ok := b.Metrics["allocs_per_op"]; ok {
			fmt.Printf("  %s allocs/op = %.0f\n", b.Name, a)
		}
	}

	if len(regressed) > 0 {
		return fmt.Errorf("regression over %.0f%% vs previous entry: %s",
			regressionPct, strings.Join(regressed, ", "))
	}
	fmt.Printf("\nno benchmark regressed more than %.0f%% vs the previous entry\n", regressionPct)
	return nil
}

// timeMin runs f reps times and returns the minimum wall-clock duration
// plus the heap allocation count of that fastest rep (the `-benchmem`
// analogue for this wall-clock harness).
func timeMin(reps int, f func() error) (time.Duration, uint64, error) {
	var best time.Duration
	var bestAllocs uint64
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if i == 0 || d < best {
			best = d
			bestAllocs = after.Mallocs - before.Mallocs
		}
	}
	return best, bestAllocs, nil
}

// gridSpecs mirrors the root sweep benchmark: 3 technique variants x 2
// seeds, 4-slot workloads, 10 simulated seconds, with workloads described
// as Queues.
func gridSpecs() []phasetune.RunSpec {
	variants := []phasetune.TechniqueParams{
		phasetune.BestParams(),
		{Technique: phasetune.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
		{Technique: phasetune.Interval, MinSize: 45, PropagateThroughUntyped: true},
	}
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		q := &phasetune.WorkloadSpec{Slots: 4, QueueLen: 8, Seed: seed}
		for _, params := range variants {
			specs = append(specs, phasetune.RunSpec{
				Queues: q, DurationSec: 10, Policy: phasetune.PolicyStatic,
				Params: params, Seed: seed,
			})
		}
	}
	return specs
}

func run(out string, reps int) error {
	if reps < 1 {
		// Zero reps would record an all-zero entry, and the next -history
		// gate skips every row whose previous time is zero.
		return fmt.Errorf("-reps %d: need at least one repetition", reps)
	}
	suite, err := phasetune.Suite()
	if err != nil {
		return err
	}
	specs := gridSpecs()
	entry := benchhist.Stamp(benchhist.KindBench)
	entry.Derived = map[string]float64{}

	seq, seqAllocs, err := timeMin(reps, func() error {
		for _, spec := range specs {
			// A fresh memo-less session per run shares nothing, so every run
			// re-executes the static pipeline: the pre-sweep architecture.
			spec.Workload = phasetune.NewWorkload(suite, spec.Queues.Slots, spec.Queues.QueueLen, spec.Queues.Seed)
			spec.Queues = nil
			if _, err := phasetune.NewSession(phasetune.WithoutSegmentMemo()).Run(spec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	entry.Benchmarks = append(entry.Benchmarks, benchhist.Benchmark{
		Name: "grid_sequential", NsPerOp: seq.Nanoseconds(), Reps: reps,
		Metrics: map[string]float64{"allocs_per_op": float64(seqAllocs)},
	})

	sess := phasetune.NewSession()
	swp, swpAllocs, err := timeMin(reps, func() error {
		_, err := sess.Sweep(context.Background(), specs)
		return err
	})
	if err != nil {
		return err
	}
	stats := sess.CacheStats()
	memo := sess.MemoStats()
	entry.Benchmarks = append(entry.Benchmarks, benchhist.Benchmark{
		Name: "grid_sweep", NsPerOp: swp.Nanoseconds(), Reps: reps,
		Metrics: map[string]float64{
			"pipeline_runs": float64(stats.Misses),
			"cache_hits":    float64(stats.Hits),
			"allocs_per_op": float64(swpAllocs),
			"memo_hits":     float64(memo.Hits),
		},
	})
	if swp > 0 {
		entry.Derived["sweep_speedup"] = float64(seq) / float64(swp)
	}
	entry.Derived["memo_hit_rate"] = memo.HitRate()

	w := phasetune.NewWorkload(suite, 8, 64, 1)
	for _, bench := range []struct {
		name   string
		policy phasetune.Policy
	}{
		{"workload_second_baseline", phasetune.PolicyNone},
		{"workload_second_dynamic", phasetune.PolicyDynamicProbe},
	} {
		sess := phasetune.NewSession()
		d, dAllocs, err := timeMin(reps, func() error {
			_, err := sess.Run(phasetune.RunSpec{
				Workload: w, DurationSec: 1, Seed: 1, Policy: bench.policy,
			})
			return err
		})
		if err != nil {
			return err
		}
		entry.Benchmarks = append(entry.Benchmarks, benchhist.Benchmark{
			Name: bench.name, NsPerOp: d.Nanoseconds(), Reps: reps,
			Metrics: map[string]float64{"allocs_per_op": float64(dAllocs)},
		})
	}

	hist := benchhist.Load(out)
	hist.Entries = append(hist.Entries, entry)
	if err := benchhist.Save(out, hist); err != nil {
		return err
	}
	fmt.Printf("wrote %s (entry %d, %d benchmarks, sweep speedup %.2fx)\n",
		out, len(hist.Entries), len(entry.Benchmarks), entry.Derived["sweep_speedup"])
	return nil
}
