// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated platform.
//
// Usage:
//
//	experiments [-run all|fig3|fig4|table1|fig5|fig6|fig7|table2|fig8|
//	             switchcost|typing|threecore|showdown|window|breakdown|
//	             serving|contention|ablations]
//	            [-slots N] [-duration SEC] [-seeds a,b,c] [-quick]
//	            [-workers N] [-cachestats] [-ledger]
//	            [-alts a,b,c] [-windows a,b,c] [-benchout FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints a paper-style table plus the paper's reported
// numbers where applicable. -quick shrinks workload sizes for a fast pass.
// All drivers run on the concurrent sweep engine with one shared artifact
// cache for the whole invocation: -workers bounds the pool (0 = GOMAXPROCS)
// and -cachestats reports how often the static pipeline was actually run.
// The same campaigns can be served to worker processes with cmd/sweepd,
// with byte-identical results.
//
// Six experiments are campaigns of the registry in internal/experiments:
// showdown, window, breakdown, serving, contention, and table2 (the
// registry's grid, also accepted as -run grid). Each prints its tables
// through benchhist.Render, and -benchout appends them to the measurement
// history (BENCH_sweep.json) as one `table` entry per campaign, which
// `benchjson -history` redraws with the same function. -benchout needs a
// campaign (or all).
//
// -run breakdown maps the misprediction cost of reactive detection: the
// synthetic alternation-rate axis (-alts, alternation counts) against the
// detector window sizes (-windows), rendered as a dynamic-vs-static delta
// heatmap with the break-even frontier marked. -alts and -windows need
// -run breakdown (or all).
//
// -run serving is the open-system experiment: Poisson arrivals at offered
// loads 0.5×–1.5× of machine capacity, overcommit scheduling, and the
// sojourn-time tail (p50/p95/p99/p999) per placement policy on the quad
// and hex machines. A tracer serves one run, so to trace the -quick
// campaign's representative cell (quad, hybrid, load 1.0×) run it alone:
// `ampsim -policy hybrid -arrivals poisson -load 1.0 -duration 200 -trace
// FILE` writes its timeline.
//
// -run contention is the shared-cache herding experiment: every placement
// policy unpriced and every engine-backed policy contention-priced on the
// memory-antagonist fleet. Its max-share column is the hottest cache
// group's share of memory-bound core time: 1.0 is fully herded, 1/groups a
// perfect spread.
//
// -ledger enables conserved cycle accounting on every run: the showdown,
// serving, and breakdown tables grow attribution columns decomposing each
// cell's machine time (useful work, asymmetry loss, capacity spill,
// instrumentation overhead, idle), and the showdown adds one stacked
// attribution bar chart per machine. Accounting never perturbs a run, so
// the timing columns are unchanged.
//
// -cpuprofile and -memprofile write pprof profiles of the whole invocation
// (the CPU profile spans every sweep; the heap profile is taken after a
// final GC at exit). Both paths are validated (created) up front, so a bad
// path fails in milliseconds.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"phasetune/internal/benchhist"
	"phasetune/internal/experiments"
	"phasetune/internal/prof"
	"phasetune/internal/sim"
	"phasetune/internal/textplot"
	"phasetune/internal/workload"
)

// experiment is one -run target: a paper figure or check printed by fn, or
// a registry campaign.
type experiment struct {
	name     string
	fn       func(io.Writer, experiments.Config) error
	campaign string
}

// all lists every experiment in -run all order.
var all = []experiment{
	{name: "fig3", fn: fig3},
	{name: "fig4", fn: fig4},
	{name: "table1", fn: table1},
	{name: "fig5", fn: fig5},
	{name: "fig6", fn: fig6},
	{name: "fig7", fn: fig7},
	{name: "table2", campaign: "grid"},
	{name: "fig8", fn: fig8},
	{name: "switchcost", fn: switchcost},
	{name: "typing", fn: typing},
	{name: "threecore", fn: threecore},
	{name: "showdown", campaign: "showdown"},
	{name: "window", campaign: "window"},
	{name: "breakdown", campaign: "breakdown"},
	{name: "serving", campaign: "serving"},
	{name: "contention", campaign: "contention"},
	{name: "ablations", fn: ablations},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and runs the selected experiments, printing every table
// to stdout. A failed write to stdout fails the run.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runFlag := fs.String("run", "all", "experiment to run")
	slots := fs.Int("slots", 0, "workload slots (0 = default 18)")
	duration := fs.Float64("duration", 0, "workload duration in simulated seconds (0 = default 800)")
	seedsFlag := fs.String("seeds", "", "comma-separated workload seeds (default 5,42,99)")
	quick := fs.Bool("quick", false, "shrink workloads for a fast pass")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	cachestats := fs.Bool("cachestats", false, "print artifact cache statistics at exit")
	altsFlag := fs.String("alts", "", "breakdown: comma-separated alternation counts (default 4,16,64,256,1024,4096)")
	windowsFlag := fs.String("windows", "", "breakdown: comma-separated window sizes in instructions (default 2000,4000,8000,16000,32000)")
	benchout := fs.String("benchout", "", "campaigns: append each campaign's tables to this measurement history (e.g. BENCH_sweep.json)")
	ledgerFlag := fs.Bool("ledger", false, "enable conserved cycle accounting and print attribution columns")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this path")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []experiment
	for _, exp := range all {
		if *runFlag == "all" || *runFlag == exp.name || *runFlag == exp.campaign {
			selected = append(selected, exp)
		}
	}
	switch {
	case len(selected) == 0:
		return fmt.Errorf("unknown experiment %q", *runFlag)
	case (*altsFlag != "" || *windowsFlag != "") && *runFlag != "breakdown" && *runFlag != "all":
		return fmt.Errorf("-alts and -windows only apply to -run breakdown (or all)")
	case *benchout != "" && *runFlag != "all" && selected[0].campaign == "":
		return fmt.Errorf("-benchout records campaign tables; -run %s is not a campaign (want all or one of %s)",
			*runFlag, strings.Join(experiments.CampaignNames(), ", "))
	}

	stopProfiles, err := prof.Start("experiments", *cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	cfg, err := experiments.FlagConfig(*quick, *slots, *duration, *seedsFlag)
	if err != nil {
		return err
	}
	cfg.Workers, cfg.Ledger = *workers, *ledgerFlag
	var axes experiments.Axes
	if axes.Alts, err = parseList(*altsFlag, "alternation count", strconv.Atoi); err != nil {
		return err
	}
	parseUint := func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
	if axes.Windows, err = parseList(*windowsFlag, "window size", parseUint); err != nil {
		return err
	}

	out := &errWriter{w: stdout}
	for _, exp := range selected {
		if exp.campaign == "" {
			err = exp.fn(out, cfg)
		} else {
			err = runCampaign(out, exp.campaign, cfg, axes, *benchout)
		}
		if err = cmp.Or(err, out.err); err != nil {
			return fmt.Errorf("%s: %w", exp.name, err)
		}
	}
	if *cachestats {
		s := cfg.Cache.Stats()
		fmt.Fprintf(out, "\nartifact cache: %d entries, %d pipeline runs, %d hits\n",
			s.Entries, s.Misses, s.Hits)
	}
	return out.err
}

// errWriter keeps the first write error and fails every later write with
// it, so run sees a broken stdout even through printers that ignore it.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// parseList parses a comma-separated list of positive numbers.
func parseList[T int | uint64](s, what string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// runCampaign prints one registry campaign's tables and, with -benchout,
// records them as one `table` history entry.
func runCampaign(w io.Writer, name string, cfg experiments.Config, axes experiments.Axes, benchout string) error {
	c, err := experiments.LookupCampaign(name)
	if err != nil {
		return err
	}
	header(w, c.Title)
	tables, err := c.Tables(cfg, axes)
	if err != nil {
		return err
	}
	if err := benchhist.Render(w, tables); err != nil {
		return err
	}
	if benchout == "" {
		return nil
	}
	e := benchhist.Stamp(benchhist.KindTable)
	e.Campaign, e.Title, e.Tables = c.Name, c.Title, tables
	if err := benchhist.Append(benchout, e); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nappended %s table entry to %s\n", c.Name, benchout)
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}

// col abbreviates benchhist.Col for the column lists below.
var col = benchhist.Col

func fig3(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 3 — space overhead per technique (paper: best Loop[45] < 4%)")
	rows, err := experiments.Fig3SpaceOverhead(cfg)
	if err != nil {
		return err
	}
	var names []string
	var mins, q1s, meds, q3s, maxs []float64
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""), col("min%", "%", "%.2f"),
		col("q1%", "%", "%.2f"), col("median%", "%", "%.2f"), col("q3%", "%", "%.2f"), col("max%", "%", "%.2f"),
		col("marks/bench", "marks", "%.2f")}}
	for _, r := range rows {
		b := r.Box
		t.AddRow(r.Variant, 100*b.Min, 100*b.Q1, 100*b.Median, 100*b.Q3, 100*b.Max, r.MeanMarks)
		names = append(names, r.Variant)
		mins, q1s, meds = append(mins, 100*b.Min), append(q1s, 100*b.Q1), append(meds, 100*b.Median)
		q3s, maxs = append(q3s, 100*b.Q3), append(maxs, 100*b.Max)
	}
	benchhist.Render(w, []benchhist.Table{t})
	fmt.Fprintln(w)
	fmt.Fprint(w, textplot.BoxPlot(names, mins, q1s, meds, q3s, maxs, 48))
	return nil
}

func fig4(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 4 — time overhead, all-cores mode (paper: as low as 0.14%)")
	rows, err := experiments.Fig4TimeOverhead(cfg, nil)
	if err != nil {
		return err
	}
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""),
		col("overhead%", "%", "%.3f"), col("marks executed", "marks", "%.0f")}}
	for _, r := range rows {
		t.AddRow(r.Variant, r.OverheadPct, r.MarksExecuted)
	}
	return benchhist.Render(w, []benchhist.Table{t})
}

func table1(w io.Writer, cfg experiments.Config) error {
	header(w, fmt.Sprintf("Table 1 — switches per benchmark, Loop[45] (paper values scaled by 1/%d)", workload.ScaleDivisor))
	rows, err := experiments.Table1Switches(cfg)
	if err != nil {
		return err
	}
	t := benchhist.Table{Columns: []benchhist.Column{col("benchmark", "", ""), col("switches", "count", "%.0f"),
		col("paper/20", "count", "%.0f"), col("runtime(s)", "s", "%.1f"), col("paper(s)/20", "s", "%.1f")}}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Switches, r.PaperSwitches/workload.ScaleDivisor,
			r.RuntimeSec, r.PaperRuntimeSec/workload.ScaleDivisor)
	}
	return benchhist.Render(w, []benchhist.Table{t})
}

func fig5(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 5 — average cycles per core switch, log scale")
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
	fmt.Fprint(w, textplot.LogBars(names, vals, 48))
	return nil
}

func fig6(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 6 — throughput vs IPC threshold, BB[15,0] (paper: optimum between extremes)")
	rows, err := experiments.Fig6Thresholds(cfg, nil)
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.Delta)
		ys = append(ys, r.ImprovementPct)
	}
	fmt.Fprint(w, textplot.Series("delta", "tput +%", xs, ys, 36))
	return nil
}

func fig7(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 7 — throughput vs clustering error, BB[15,0] (paper: robust to 20%)")
	rows, err := experiments.Fig7ClusteringError(cfg, nil)
	if err != nil {
		return err
	}
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.ErrorPct)
		ys = append(ys, r.ImprovementPct)
	}
	fmt.Fprint(w, textplot.Series("error %", "tput +%", xs, ys, 36))
	return nil
}

func fig8(w io.Writer, cfg experiments.Config) error {
	header(w, "Fig. 8 — speedup vs fairness trade-off (avg time vs max stretch)")
	rows, err := experiments.Table2Fairness(cfg, nil)
	if err != nil {
		return err
	}
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""),
		col("x=max-stretch%", "%", "%+.2f"), col("y=avg-time%", "%", "%+.2f")}}
	for _, r := range rows {
		t.AddRow(r.Variant, r.MaxStretchPct, r.AvgTimePct)
	}
	return benchhist.Render(w, []benchhist.Table{t})
}

func printAblation(w io.Writer, rows []experiments.FairnessRow) {
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""),
		col("avg-time%", "%", "%+.2f"), col("tput%", "%", "%+.2f"), col("max-stretch%", "%", "%+.2f")}}
	for _, r := range rows {
		t.AddRow(r.Variant, r.AvgTimePct, r.ThroughputPct, r.MaxStretchPct)
	}
	benchhist.Render(w, []benchhist.Table{t})
}

func switchcost(w io.Writer, cfg experiments.Config) error {
	header(w, "§IV-B3 — core switch cost (paper: ~1000 cycles)")
	r, err := experiments.SwitchCost(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured: %.0f cycles/switch (scaled clock), %.0f cycles descaled; %d switches\n",
		r.CyclesPerSwitch, r.DescaledCycles, r.Switches)
	return nil
}

func typing(w io.Writer, cfg experiments.Config) error {
	header(w, "§II-A3 — static typing accuracy (paper: ~15% misclassified)")
	r, err := experiments.TypingAccuracy(cfg, 0.06)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "agreement with IPC oracle: %.1f%% over %d blocks (misclassified %.1f%%)\n",
		100*r.Agreement, r.Blocks, 100*(1-r.Agreement))
	return nil
}

func threecore(w io.Writer, cfg experiments.Config) error {
	header(w, "§VII — 3-core (2 fast, 1 slow) machine (paper: ~32% speedup)")
	r, err := experiments.ThreeCore(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "avg process time decrease: %+.2f%% (matched %+.2f%%), throughput: %+.2f%%\n",
		r.AvgTimePct, r.MatchedAvgPct, r.ThroughputPct)
	return nil
}

func ablations(w io.Writer, cfg experiments.Config) error {
	header(w, "Ablation — pin to core type vs single core")
	rows, err := experiments.AblationPinMode(cfg)
	if err != nil {
		return err
	}
	printAblation(w, rows)

	header(w, "Ablation — bounded monitoring vs mark-only monitoring")
	rows, err = experiments.AblationMonitorBound(cfg)
	if err != nil {
		return err
	}
	printAblation(w, rows)

	header(w, "Ablation — positional (phase marks) vs temporal (interval resampling)")
	rows, err = experiments.AblationTemporal(cfg, 50000)
	if err != nil {
		return err
	}
	printAblation(w, rows)

	header(w, "Ablation — static marks: propagation vs naive edge rule")
	propagate, naive, err := experiments.AblationPropagation(cfg)
	if err != nil {
		return err
	}
	t := benchhist.Table{Columns: []benchhist.Column{col("variant", "", ""), col("total static marks", "marks", "%.0f")}}
	t.AddRow("propagate", float64(propagate))
	t.AddRow("naive-edges", float64(naive))
	benchhist.Render(w, []benchhist.Table{t})

	header(w, "Ablation — counter contention with 4 bounded event sets")
	cc, err := experiments.CounterContention(cfg, sim.PolicyStatic, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "monitoring deferrals: %d (marks executed: %d)\n", cc.Defers, cc.Marks)
	return nil
}
