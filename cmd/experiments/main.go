// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated platform.
//
// Usage:
//
//	experiments [-run all|fig3|fig4|table1|fig5|fig6|fig7|table2|fig8|
//	             switchcost|typing|threecore|showdown|window|breakdown|
//	             serving|contention|ablations]
//	            [-slots N] [-duration SEC] [-seeds a,b,c] [-quick]
//	            [-workers N] [-shards N] [-cachestats] [-ledger]
//	            [-alts a,b,c] [-windows a,b,c] [-benchout FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints a paper-style table plus the paper's reported
// numbers where applicable. -quick shrinks workload sizes for a fast pass.
// All drivers run on the concurrent sweep engine with one shared artifact
// cache for the whole invocation: -workers bounds the pool (0 = GOMAXPROCS)
// and -cachestats reports how often the static pipeline was actually run,
// and how full the segment memo got and how often it served a lookup.
// -shards N routes every sweep through the distributed fabric with N local
// workers instead of the in-process pool — results are byte-identical, and
// the same campaigns can be served to real worker processes with
// cmd/sweepd.
//
// -run breakdown maps the misprediction cost of reactive detection: the
// synthetic alternation-rate axis (-alts, alternation counts) against the
// detector window sizes (-windows), rendered as a dynamic-vs-static delta
// heatmap with the break-even frontier marked. -benchout appends the map
// as a `breakdown` entry to the measurement history (BENCH_sweep.json),
// where `benchjson -history` charts it alongside the timing trajectory.
//
// -run serving is the open-system experiment: Poisson arrivals at offered
// loads 0.5×–1.5× of machine capacity, overcommit scheduling, and the
// sojourn-time tail (p50/p95/p99/p999) per placement policy on the quad
// and hex machines. -benchout appends it as a `serving` entry. -trace
// additionally re-runs one representative cell (first machine, hybrid
// policy, load 1.0×) with the deterministic tracer attached and writes
// the Chrome trace-event JSON timeline to the given path — one traced
// run, outside the sweep, because concurrent cells would interleave
// events nondeterministically. The path is validated (created) up front.
//
// -run contention is the shared-cache herding experiment: the
// memory-antagonist fleet on the hex and quad machines, every placement
// policy unpriced (measuring how IPC-only arbitration herds the
// antagonists onto one cache group) and every engine-backed policy
// contention-priced (measuring the separation and recovered throughput).
// The table's max-share column is the hottest cache group's share of
// memory-bound core time: 1.0 is fully herded, 1/groups a perfect spread.
// -benchout appends the rows as a `contention` entry.
//
// -ledger enables conserved cycle accounting on every run: the showdown,
// serving, and breakdown tables grow attribution columns decomposing each
// cell's machine time (useful work, asymmetry loss, capacity spill,
// instrumentation overhead, idle), and `-run showdown -ledger -benchout`
// additionally appends the per-policy rollup as a `ledger` history entry
// that `benchjson -history` renders as stacked bars. Accounting never
// perturbs a run, so the timing columns are unchanged.
//
// -cpuprofile and -memprofile write pprof profiles of the whole invocation
// (the CPU profile spans every sweep; the heap profile is taken after a
// final GC at exit). Both paths are validated (created) up front, matching
// -trace, so a bad path fails in milliseconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"phasetune/internal/benchhist"
	"phasetune/internal/experiments"
	"phasetune/internal/textplot"
	"phasetune/internal/trace"
	"phasetune/internal/workload"
)

// breakdownOpts carries the breakdown map's flag-selected axes.
var breakdownOpts struct {
	alts    []int
	windows []uint64
	out     string
}

// servingOpts carries the serving experiment's trace destination.
var servingOpts struct {
	trace string
}

func main() {
	runFlag := flag.String("run", "all", "experiment to run")
	slots := flag.Int("slots", 0, "workload slots (0 = default 18)")
	duration := flag.Float64("duration", 0, "workload duration in simulated seconds (0 = default 800)")
	seedsFlag := flag.String("seeds", "", "comma-separated workload seeds (default 5,42,99)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "route sweeps through the distributed fabric with N local workers")
	cachestats := flag.Bool("cachestats", false, "print artifact cache and segment memo statistics at exit")
	altsFlag := flag.String("alts", "", "breakdown: comma-separated alternation counts (default 4,16,64,256,1024,4096)")
	windowsFlag := flag.String("windows", "", "breakdown: comma-separated window sizes in instructions (default 2000,4000,8000,16000,32000)")
	benchout := flag.String("benchout", "", "breakdown: append the map to this measurement history (e.g. BENCH_sweep.json)")
	traceFlag := flag.String("trace", "", "serving: write a Chrome trace-event JSON timeline of one representative serving run to this path")
	ledgerFlag := flag.Bool("ledger", false, "enable conserved cycle accounting and print attribution columns")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after final GC) to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Validate the path up front like -trace; the profile itself is
		// taken at exit, when the heap reflects the whole invocation.
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(fmt.Errorf("-memprofile: %w", err))
		}
		f.Close()
		defer writeMemProfile(*memprofile)
	}

	if *traceFlag != "" {
		if *runFlag != "serving" {
			fatal(fmt.Errorf("-trace only applies to -run serving (a tracer serves one run; sweeps run cells concurrently)"))
		}
		// Validate the trace path up front: create/truncate it now so a
		// bad path fails in milliseconds, not after the whole sweep.
		f, err := os.Create(*traceFlag)
		if err != nil {
			fatal(fmt.Errorf("-trace: %w", err))
		}
		f.Close()
		servingOpts.trace = *traceFlag
	}

	cfg, err := experiments.Default()
	if err != nil {
		fatal(err)
	}
	if *quick {
		cfg = cfg.Scale(8, 200, []uint64{5})
	}
	if *slots > 0 {
		cfg.Slots = *slots
	}
	if *duration > 0 {
		cfg.DurationSec = *duration
	}
	cfg.Workers = *workers
	cfg.Shards = *shards
	cfg.Ledger = *ledgerFlag
	if *seedsFlag != "" {
		var seeds []uint64
		for _, s := range strings.Split(*seedsFlag, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad seed %q: %w", s, err))
			}
			seeds = append(seeds, v)
		}
		cfg.Seeds = seeds
	}
	if *altsFlag != "" {
		for _, s := range strings.Split(*altsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad alternation count %q", s))
			}
			breakdownOpts.alts = append(breakdownOpts.alts, v)
		}
	}
	if *windowsFlag != "" {
		for _, s := range strings.Split(*windowsFlag, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil || v == 0 {
				fatal(fmt.Errorf("bad window size %q", s))
			}
			breakdownOpts.windows = append(breakdownOpts.windows, v)
		}
	}
	breakdownOpts.out = *benchout

	all := *runFlag == "all"
	ran := false
	for _, exp := range []struct {
		name string
		fn   func(experiments.Config) error
	}{
		{"fig3", fig3},
		{"fig4", fig4},
		{"table1", table1},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"table2", table2},
		{"fig8", fig8},
		{"switchcost", switchcost},
		{"typing", typing},
		{"threecore", threecore},
		{"showdown", showdown},
		{"window", window},
		{"breakdown", breakdown},
		{"serving", serving},
		{"contention", contention},
		{"ablations", ablations},
	} {
		if all || *runFlag == exp.name {
			ran = true
			if err := exp.fn(cfg); err != nil {
				fatal(fmt.Errorf("%s: %w", exp.name, err))
			}
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *runFlag))
	}
	if *cachestats {
		s := cfg.Cache.Stats()
		fmt.Printf("\nartifact cache: %d entries, %d pipeline runs, %d hits\n",
			s.Entries, s.Misses, s.Hits)
		m := cfg.Memo.Stats()
		fmt.Printf("segment memo: %d lanes, %d of %d chunks (fill %.2f), hit rate %.3f, %d steps replayed, %d recorded\n",
			m.Lanes, m.Chunks, m.Limit, m.Fill(), m.HitRate(), m.ReplayedSteps, m.RecordedSteps)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// writeMemProfile records the heap after a final GC, so the profile shows
// live retention rather than transient sweep garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func fig3(cfg experiments.Config) error {
	header("Fig. 3 — space overhead per technique (paper: best Loop[45] < 4%)")
	rows, err := experiments.Fig3SpaceOverhead(cfg)
	if err != nil {
		return err
	}
	var names []string
	var mins, q1s, meds, q3s, maxs []float64
	t := textplot.NewTable("variant", "min%", "q1%", "median%", "q3%", "max%", "marks/bench")
	for _, r := range rows {
		t.AddRow(r.Variant,
			fmt.Sprintf("%.2f", 100*r.Box.Min),
			fmt.Sprintf("%.2f", 100*r.Box.Q1),
			fmt.Sprintf("%.2f", 100*r.Box.Median),
			fmt.Sprintf("%.2f", 100*r.Box.Q3),
			fmt.Sprintf("%.2f", 100*r.Box.Max),
			fmt.Sprintf("%.2f", r.MeanMarks))
		names = append(names, r.Variant)
		mins = append(mins, 100*r.Box.Min)
		q1s = append(q1s, 100*r.Box.Q1)
		meds = append(meds, 100*r.Box.Median)
		q3s = append(q3s, 100*r.Box.Q3)
		maxs = append(maxs, 100*r.Box.Max)
	}
	fmt.Print(t.String())
	fmt.Println()
	fmt.Print(textplot.BoxPlot(names, mins, q1s, meds, q3s, maxs, 48))
	return nil
}

func fig4(cfg experiments.Config) error {
	header("Fig. 4 — time overhead, all-cores mode (paper: as low as 0.14%)")
	rows, err := experiments.Fig4TimeOverhead(cfg, nil)
	if err != nil {
		return err
	}
	t := textplot.NewTable("variant", "overhead%", "marks executed")
	for _, r := range rows {
		t.AddRow(r.Variant, fmt.Sprintf("%.3f", r.OverheadPct), fmt.Sprintf("%d", r.MarksExecuted))
	}
	fmt.Print(t.String())
	return nil
}

func table1(cfg experiments.Config) error {
	header(fmt.Sprintf("Table 1 — switches per benchmark, Loop[45] (paper values scaled by 1/%d)", workload.ScaleDivisor))
	rows, err := experiments.Table1Switches(cfg)
	if err != nil {
		return err
	}
	t := textplot.NewTable("benchmark", "switches", "paper/20", "runtime(s)", "paper(s)/20")
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.PaperSwitches/workload.ScaleDivisor),
			fmt.Sprintf("%.1f", r.RuntimeSec),
			fmt.Sprintf("%.1f", r.PaperRuntimeSec/workload.ScaleDivisor))
	}
	fmt.Print(t.String())
	return nil
}

func fig5(cfg experiments.Config) error {
	header("Fig. 5 — average cycles per core switch, log scale")
	rows, err := experiments.Table1Switches(cfg)
	if err != nil {
		return err
	}
	var names []string
	var vals []float64
	for _, r := range rows {
		names = append(names, r.Benchmark)
		vals = append(vals, r.CyclesPerSwitch)
	}
	fmt.Print(textplot.LogBars(names, vals, 48))
	return nil
}

func fig6(cfg experiments.Config) error {
	header("Fig. 6 — throughput vs IPC threshold, BB[15,0] (paper: optimum between extremes)")
	rows, err := experiments.Fig6Thresholds(cfg, nil)
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.Delta)
		ys = append(ys, r.ImprovementPct)
	}
	fmt.Print(textplot.Series("delta", "tput +%", xs, ys, 36))
	return nil
}

func fig7(cfg experiments.Config) error {
	header("Fig. 7 — throughput vs clustering error, BB[15,0] (paper: robust to 20%)")
	rows, err := experiments.Fig7ClusteringError(cfg, nil)
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.ErrorPct)
		ys = append(ys, r.ImprovementPct)
	}
	fmt.Print(textplot.Series("error %", "tput +%", xs, ys, 36))
	return nil
}

func table2(cfg experiments.Config) error {
	header("Table 2 — fairness vs stock Linux, % decrease (paper best Loop[45]: 12.04/20.41/35.95)")
	rows, err := experiments.Table2Fairness(cfg, nil)
	if err != nil {
		return err
	}
	printFairness(rows)
	return nil
}

func printFairness(rows []experiments.FairnessRow) {
	t := textplot.NewTable("variant", "max-flow%", "max-stretch%", "avg-time%", "matched-avg%", "tput%")
	for _, r := range rows {
		t.AddRow(r.Variant,
			fmt.Sprintf("%+.2f", r.MaxFlowPct),
			fmt.Sprintf("%+.2f", r.MaxStretchPct),
			fmt.Sprintf("%+.2f", r.AvgTimePct),
			fmt.Sprintf("%+.2f", r.MatchedAvgPct),
			fmt.Sprintf("%+.2f", r.ThroughputPct))
	}
	fmt.Print(t.String())
}

func fig8(cfg experiments.Config) error {
	header("Fig. 8 — speedup vs fairness trade-off (avg time vs max stretch)")
	rows, err := experiments.Fig8Tradeoff(cfg, nil)
	if err != nil {
		return err
	}
	t := textplot.NewTable("variant", "x=max-stretch%", "y=avg-time%")
	for _, r := range rows {
		t.AddRow(r.Variant, fmt.Sprintf("%+.2f", r.MaxStretchPct), fmt.Sprintf("%+.2f", r.AvgTimePct))
	}
	fmt.Print(t.String())
	return nil
}

func printAblation(rows []experiments.AblationRow) {
	t := textplot.NewTable("variant", "avg-time%", "tput%", "max-stretch%")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%+.2f", r.AvgTimePct),
			fmt.Sprintf("%+.2f", r.ThroughputPct),
			fmt.Sprintf("%+.2f", r.MaxStretchPct))
	}
	fmt.Print(t.String())
}

func switchcost(cfg experiments.Config) error {
	header("§IV-B3 — core switch cost (paper: ~1000 cycles)")
	r, err := experiments.SwitchCost(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("measured: %.0f cycles/switch (scaled clock), %.0f cycles descaled; %d switches\n",
		r.CyclesPerSwitch, r.DescaledCycles, r.Switches)
	return nil
}

func typing(cfg experiments.Config) error {
	header("§II-A3 — static typing accuracy (paper: ~15% misclassified)")
	r, err := experiments.TypingAccuracy(cfg, 0.06)
	if err != nil {
		return err
	}
	fmt.Printf("agreement with IPC oracle: %.1f%% over %d blocks (misclassified %.1f%%)\n",
		100*r.Agreement, r.Blocks, 100*(1-r.Agreement))
	return nil
}

func threecore(cfg experiments.Config) error {
	header("§VII — 3-core (2 fast, 1 slow) machine (paper: ~32% speedup)")
	r, err := experiments.ThreeCore(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("avg process time decrease: %+.2f%% (matched %+.2f%%), throughput: %+.2f%%\n",
		r.AvgTimePct, r.MatchedAvgPct, r.ThroughputPct)
	return nil
}

func showdown(cfg experiments.Config) error {
	header("§V showdown — static marks vs dynamic online detection vs oracle (paper's central claim)")
	rows, err := experiments.Showdown(cfg, nil)
	if err != nil {
		return err
	}
	t := textplot.NewTable("machine", "policy", "tput", "tput%", "avg-time%", "matched%",
		"switches", "marks", "windows", "monitor%", "refresh", "damped", "defers")
	for _, r := range rows {
		t.AddRow(r.Machine, r.Policy.String(),
			fmt.Sprintf("%.4g", r.Throughput),
			fmt.Sprintf("%+.2f", r.ThroughputPct),
			fmt.Sprintf("%+.2f", r.AvgTimePct),
			fmt.Sprintf("%+.2f", r.MatchedAvgPct),
			fmt.Sprintf("%.0f", r.Switches),
			fmt.Sprintf("%.0f", r.MarksExecuted),
			fmt.Sprintf("%.0f", r.MonitorWindows),
			fmt.Sprintf("%.3f", r.MonitorPct),
			fmt.Sprintf("%.0f", r.Refreshes),
			fmt.Sprintf("%.0f", r.Damped),
			fmt.Sprintf("%.0f", r.CounterDefers))
	}
	fmt.Print(t.String())

	if len(rows) > 0 && rows[0].HasLedger {
		fmt.Println("\ncycle attribution — % of machine time (cores × horizon), conserved to 100%")
		lt := textplot.NewTable("machine", "policy", "useful%", "asym%", "spill%", "ovh%", "idle%")
		var ledgerRows []benchhist.LedgerRow
		for _, r := range rows {
			lt.AddRow(r.Machine, r.Policy.String(),
				fmt.Sprintf("%.2f", r.UsefulPct),
				fmt.Sprintf("%.2f", r.AsymmetryPct),
				fmt.Sprintf("%.2f", r.SpillPct),
				fmt.Sprintf("%.2f", r.OverheadPct),
				fmt.Sprintf("%.2f", r.IdlePct))
			ledgerRows = append(ledgerRows, benchhist.LedgerRow{
				Machine: r.Machine, Policy: r.Policy.String(),
				UsefulPct: r.UsefulPct, AsymmetryPct: r.AsymmetryPct,
				SpillPct: r.SpillPct, OverheadPct: r.OverheadPct, IdlePct: r.IdlePct,
			})
		}
		fmt.Print(lt.String())

		if breakdownOpts.out != "" {
			err := benchhist.Append(breakdownOpts.out, benchhist.Entry{
				Kind:      benchhist.KindLedger,
				Timestamp: time.Now().UTC().Format(time.RFC3339),
				GoVersion: runtime.Version(),
				MaxProcs:  runtime.GOMAXPROCS(0),
				Ledger:    ledgerRows,
			})
			if err != nil {
				return err
			}
			fmt.Printf("\nappended ledger entry to %s\n", breakdownOpts.out)
		}
	}

	fmt.Println()
	cc, err := experiments.ShowdownCounterContention(cfg, 4)
	if err != nil {
		return err
	}
	fmt.Printf("dynamic/probe with 4 bounded event sets: %d deferrals, %d windows, tput %+.2f%%\n",
		cc.Defers, cc.Windows, cc.ThroughputPct)
	return nil
}

func window(cfg experiments.Config) error {
	header("Window-size sweep — online WindowInstrs vs throughput and switches (dynamic Fig. 6 analogue)")
	rows, err := experiments.WindowSweep(cfg, nil, nil)
	if err != nil {
		return err
	}
	t := textplot.NewTable("window", "policy", "tput%", "online-switches", "windows", "monitor%")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.WindowInstrs), r.Policy.String(),
			fmt.Sprintf("%+.2f", r.ThroughputPct),
			fmt.Sprintf("%.0f", r.OnlineSwitches),
			fmt.Sprintf("%.0f", r.Windows),
			fmt.Sprintf("%.3f", r.MonitorPct))
	}
	fmt.Print(t.String())
	return nil
}

func breakdown(cfg experiments.Config) error {
	header("Misprediction-cost breakdown map — alternation rate × window size (§V, quantitative)")
	res, err := experiments.Breakdown(cfg, nil, breakdownOpts.alts, breakdownOpts.windows)
	if err != nil {
		return err
	}

	t := textplot.NewTable("machine", "alt", "rate/Binstr", "window", "static-ref", "static%", "dynamic%", "hybrid%", "oracle%", "delta", "dyn-switches")
	for _, r := range res.Rows {
		t.AddRow(r.Machine,
			fmt.Sprintf("%d", r.Alternations),
			fmt.Sprintf("%.0f", r.Rate),
			fmt.Sprintf("%d", r.WindowInstrs),
			r.StaticPolicy.String(),
			fmt.Sprintf("%+.2f", r.StaticPct),
			fmt.Sprintf("%+.2f", r.DynamicPct),
			fmt.Sprintf("%+.2f", r.HybridPct),
			fmt.Sprintf("%+.2f", r.OraclePct),
			fmt.Sprintf("%+.2f", r.DeltaPct),
			fmt.Sprintf("%.0f", r.DynSwitches))
	}
	fmt.Print(t.String())

	if len(res.Rows) > 0 && res.Rows[0].HasLedger {
		fmt.Println("\nmisprediction attribution — % of machine time lost to slow-core placement (asym+spill)")
		lt := textplot.NewTable("machine", "alt", "window", "static-asym%", "dyn-asym%", "dyn-monitor%")
		for _, r := range res.Rows {
			lt.AddRow(r.Machine,
				fmt.Sprintf("%d", r.Alternations),
				fmt.Sprintf("%d", r.WindowInstrs),
				fmt.Sprintf("%.2f", r.StaticAsymmetryPct),
				fmt.Sprintf("%.2f", r.DynAsymmetryPct),
				fmt.Sprintf("%.3f", r.DynMonitorPct))
		}
		fmt.Print(lt.String())
	}

	// One heatmap per machine: rows = rates, cols = windows, cell =
	// dynamic − static throughput delta in percentage points.
	var colLabels []string
	for _, w := range res.Windows {
		colLabels = append(colLabels, fmt.Sprintf("%d", w))
	}
	var entries []benchhist.Breakdown
	for _, machine := range machinesOf(res) {
		bd := benchhist.Breakdown{Machine: machine, WindowInstrs: res.Windows,
			TolerancePct: experiments.BreakdownTolerancePct}
		var rowLabels []string
		var grid [][]float64
		for _, f := range res.Frontier {
			if f.Machine != machine {
				continue
			}
			bd.Alternations = append(bd.Alternations, f.Alternations)
			bd.Rates = append(bd.Rates, f.Rate)
			bd.BreakEvenWindow = append(bd.BreakEvenWindow, f.BreakEvenWindow)
			rowLabels = append(rowLabels, fmt.Sprintf("alt.x%d", f.Alternations))
			var row []float64
			for _, r := range res.Rows {
				if r.Machine == machine && r.Alternations == f.Alternations {
					row = append(row, r.DeltaPct)
				}
			}
			grid = append(grid, row)
		}
		bd.DeltaPct = grid
		entries = append(entries, bd)

		fmt.Printf("\n%s — dynamic−static tput delta (pp) by (alternation rate × window)\n", machine)
		fmt.Print(textplot.Heatmap("rate\\win", rowLabels, colLabels, grid, experiments.BreakdownTolerancePct))
		ft := textplot.NewTable("rate", "alternations", "break-even window")
		for _, f := range res.Frontier {
			if f.Machine != machine {
				continue
			}
			be := "none (dynamic loses at every window)"
			if f.BreakEvenWindow > 0 {
				be = fmt.Sprintf("%d", f.BreakEvenWindow)
			}
			ft.AddRow(fmt.Sprintf("%.0f", f.Rate), fmt.Sprintf("%d", f.Alternations), be)
		}
		fmt.Print(ft.String())
	}

	if breakdownOpts.out != "" {
		err := benchhist.Append(breakdownOpts.out, benchhist.Entry{
			Kind:      benchhist.KindBreakdown,
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			MaxProcs:  runtime.GOMAXPROCS(0),
			Breakdown: entries,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nappended breakdown entry to %s\n", breakdownOpts.out)
	}
	return nil
}

func serving(cfg experiments.Config) error {
	header("Open-system serving — sojourn-time tail by offered load × placement policy")
	rows, err := experiments.Serving(cfg, nil)
	if err != nil {
		return err
	}

	t := textplot.NewTable("machine", "load", "rate/s", "policy", "admitted", "done",
		"p50", "p95", "p99", "p999", "mean", "peak-run", "oc-slices")
	for _, r := range rows {
		t.AddRow(r.Machine,
			fmt.Sprintf("%.2f", r.Load),
			fmt.Sprintf("%.2f", r.RatePerSec),
			r.Policy.String(),
			fmt.Sprintf("%.0f", r.Admitted),
			fmt.Sprintf("%.0f", r.Completed),
			fmt.Sprintf("%.2f", r.P50),
			fmt.Sprintf("%.2f", r.P95),
			fmt.Sprintf("%.2f", r.P99),
			fmt.Sprintf("%.2f", r.P999),
			fmt.Sprintf("%.2f", r.MeanSojournSec),
			fmt.Sprintf("%d", r.PeakRunnable),
			fmt.Sprintf("%.0f", r.OvercommitSlices))
	}
	fmt.Print(t.String())

	if len(rows) > 0 && rows[0].HasLedger {
		fmt.Println("\nsojourn decomposition — summed task-seconds per seed: queueing vs service vs slicing")
		lt := textplot.NewTable("machine", "load", "policy", "queueing(s)", "service(s)", "slicing(s)", "queue/service")
		for _, r := range rows {
			ratio := "-"
			if r.ServiceSec > 0 {
				ratio = fmt.Sprintf("%.2f", r.QueueingSec/r.ServiceSec)
			}
			lt.AddRow(r.Machine,
				fmt.Sprintf("%.2f", r.Load),
				r.Policy.String(),
				fmt.Sprintf("%.1f", r.QueueingSec),
				fmt.Sprintf("%.1f", r.ServiceSec),
				fmt.Sprintf("%.2f", r.SlicingSec),
				ratio)
		}
		fmt.Print(lt.String())
	}

	// One quantile strip per (machine, load): the policies' latency tails
	// on a shared axis, where the separation at load >= 1x is visible.
	loads, policies := experiments.ServingLoads(), experiments.ServingPolicies()
	byCell := map[string]experiments.ServingRow{}
	var machines []string
	seen := map[string]bool{}
	for _, r := range rows {
		byCell[fmt.Sprintf("%s/%.2f/%s", r.Machine, r.Load, r.Policy)] = r
		if !seen[r.Machine] {
			seen[r.Machine] = true
			machines = append(machines, r.Machine)
		}
	}
	var entries []benchhist.Serving
	for _, machine := range machines {
		entry := benchhist.Serving{Machine: machine, Loads: loads}
		for _, p := range policies {
			entry.Policies = append(entry.Policies, p.String())
		}
		for _, load := range loads {
			var names []string
			var p50s, p95s, p99s, p999s []float64
			peak := 0
			for _, p := range policies {
				r := byCell[fmt.Sprintf("%s/%.2f/%s", machine, load, p)]
				names = append(names, p.String())
				p50s = append(p50s, r.P50)
				p95s = append(p95s, r.P95)
				p99s = append(p99s, r.P99)
				p999s = append(p999s, r.P999)
				if r.PeakRunnable > peak {
					peak = r.PeakRunnable
				}
			}
			// History rows go through JSON, which rejects NaN; starved
			// cells are recorded as benchhist.NoData instead.
			entry.P50Sec = append(entry.P50Sec, benchhist.SanitizeNaNs(p50s))
			entry.P99Sec = append(entry.P99Sec, benchhist.SanitizeNaNs(p99s))
			entry.P999Sec = append(entry.P999Sec, benchhist.SanitizeNaNs(p999s))
			entry.PeakRunnable = append(entry.PeakRunnable, peak)
			fmt.Printf("\n%s @ load %.2fx — sojourn quantiles (s), peak runnable %d\n", machine, load, peak)
			fmt.Print(textplot.QuantileStrip(names, p50s, p95s, p99s, p999s, 48))
		}
		entries = append(entries, entry)
	}

	if breakdownOpts.out != "" {
		err := benchhist.Append(breakdownOpts.out, benchhist.Entry{
			Kind:      benchhist.KindServing,
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			MaxProcs:  runtime.GOMAXPROCS(0),
			Serving:   entries,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nappended serving entry to %s\n", breakdownOpts.out)
	}

	if servingOpts.trace != "" {
		tr := trace.New()
		st, err := experiments.ServingTraceRun(cfg, tr)
		if err != nil {
			return err
		}
		if err := tr.WriteFile(servingOpts.trace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Printf("\ntraced representative run (hybrid, load 1.00x): %d admitted, %d completed\n",
			st.Admitted, st.Completed)
		fmt.Printf("wrote %d trace events to %s (open in Perfetto / chrome://tracing)\n",
			tr.Len(), servingOpts.trace)
	}
	return nil
}

func contention(cfg experiments.Config) error {
	header("Shared-cache contention — antagonist herding vs contention-priced placement")
	rows, err := experiments.Contention(cfg, nil)
	if err != nil {
		return err
	}

	t := textplot.NewTable("machine", "policy", "priced", "tput", "tput%",
		"max-share", "groups", "mem-tasks", "switches", "shares")
	var hist []benchhist.ContentionRow
	for _, r := range rows {
		priced := "-"
		if r.Priced {
			priced = "yes"
		}
		var shares []string
		for _, s := range r.MemShare {
			shares = append(shares, fmt.Sprintf("%.2f", s))
		}
		t.AddRow(r.Machine, r.Policy.String(), priced,
			fmt.Sprintf("%.4g", r.Throughput),
			fmt.Sprintf("%+.2f", r.ThroughputPct),
			fmt.Sprintf("%.3f", r.MaxMemShare),
			fmt.Sprintf("%.1f", r.GroupsUsed),
			fmt.Sprintf("%.1f", r.MemTasks),
			fmt.Sprintf("%.0f", r.Switches),
			strings.Join(shares, "/"))
		hist = append(hist, benchhist.ContentionRow{
			Machine: r.Machine, Policy: r.Policy.String(), Priced: r.Priced,
			Throughput: r.Throughput, ThroughputPct: r.ThroughputPct,
			MemShare: r.MemShare, MaxMemShare: r.MaxMemShare,
			GroupsUsed: r.GroupsUsed, MemTasks: r.MemTasks,
		})
	}
	fmt.Print(t.String())

	// One bar chart per machine: the herding signature by policy, unpriced
	// vs priced side by side.
	var machines []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Machine] {
			seen[r.Machine] = true
			machines = append(machines, r.Machine)
		}
	}
	for _, machine := range machines {
		var names []string
		var vals []float64
		for _, r := range rows {
			if r.Machine != machine {
				continue
			}
			label := r.Policy.String()
			if r.Priced {
				label += "+price"
			}
			names = append(names, label)
			vals = append(vals, r.MaxMemShare)
		}
		fmt.Printf("\n%s — hottest cache group's share of memory-bound time (1.0 = herded)\n", machine)
		fmt.Print(textplot.Bars(names, vals, 48))
	}

	if breakdownOpts.out != "" {
		err := benchhist.Append(breakdownOpts.out, benchhist.Entry{
			Kind:       benchhist.KindContention,
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			MaxProcs:   runtime.GOMAXPROCS(0),
			Contention: hist,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nappended contention entry to %s\n", breakdownOpts.out)
	}
	return nil
}

// machinesOf lists the machines of a breakdown result in first-appearance
// order.
func machinesOf(res *experiments.BreakdownResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range res.Rows {
		if !seen[r.Machine] {
			seen[r.Machine] = true
			out = append(out, r.Machine)
		}
	}
	return out
}

func ablations(cfg experiments.Config) error {
	header("Ablation — pin to core type vs single core")
	rows, err := experiments.AblationPinMode(cfg)
	if err != nil {
		return err
	}
	printAblation(rows)

	header("Ablation — bounded monitoring vs mark-only monitoring")
	rows, err = experiments.AblationMonitorBound(cfg)
	if err != nil {
		return err
	}
	printAblation(rows)

	header("Ablation — positional (phase marks) vs temporal (interval resampling)")
	rows, err = experiments.AblationTemporal(cfg, 50000)
	if err != nil {
		return err
	}
	printAblation(rows)

	header("Ablation — static marks: propagation vs naive edge rule")
	rows, err = experiments.AblationPropagation(cfg)
	if err != nil {
		return err
	}
	t := textplot.NewTable("variant", "total static marks")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.0f", r.AvgTimePct))
	}
	fmt.Print(t.String())

	header("Ablation — counter contention with 4 bounded event sets")
	cc, err := experiments.CounterContentionCheck(cfg, 4)
	if err != nil {
		return err
	}
	fmt.Printf("monitoring deferrals: %d (marks executed: %d)\n", cc.Defers, cc.Marks)
	return nil
}
