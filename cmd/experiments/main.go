// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated platform.
//
// Usage:
//
//	experiments [-run all|table2|NAME]
//	            [-slots N] [-duration SEC] [-seeds a,b,c] [-quick]
//	            [-workers N] [-cachestats] [-ledger]
//	            [-alts a,b,c] [-windows a,b,c] [-benchout FILE]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Every -run target is one entry of the registry in internal/experiments,
// and -run all runs them in registry order: fig3, fig4, table1, fig5,
// fig6, fig7, grid (Table 2, also accepted as -run table2), fig8,
// switchcost, typing, threecore, showdown, window, breakdown, serving,
// contention and ablations. Each prints its tables, with the paper's
// reported numbers where applicable, through benchhist.Render, and
// -benchout appends them to the measurement history (BENCH_sweep.json) as
// one `table` entry per target, which `benchjson -history` redraws with
// the same function. -quick shrinks workload sizes for a fast pass.
// All drivers run on the concurrent sweep engine with one shared artifact
// cache for the whole invocation: -workers bounds the pool (0 = GOMAXPROCS)
// and -cachestats reports how often the static pipeline was actually run.
// The entries with a wire grid (grid, showdown, window, breakdown, serving
// and contention) can be served to worker processes with cmd/sweepd, with
// byte-identical results.
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
)

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
	benchout := fs.String("benchout", "", "append each target's tables to this measurement history (e.g. BENCH_sweep.json)")
	ledgerFlag := fs.Bool("ledger", false, "enable conserved cycle accounting and print attribution columns")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this path")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected := experiments.Campaigns()
	if name := *runFlag; name != "all" {
		if name == "table2" {
			name = "grid"
		}
		c, err := experiments.Lookup(selected, name)
		if err != nil {
			return fmt.Errorf("unknown experiment %q (want all|%s|table2)", *runFlag,
				strings.Join(experiments.Names(selected), "|"))
		}
		selected = []experiments.Campaign{c}
	}
	if (*altsFlag != "" || *windowsFlag != "") && *runFlag != "breakdown" && *runFlag != "all" {
		return fmt.Errorf("-alts and -windows only apply to -run breakdown (or all)")
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
	for _, c := range selected {
		if err = cmp.Or(runCampaign(out, c, cfg, axes, *benchout), out.err); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
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

// runCampaign prints one registry entry's tables and, with -benchout,
// records them as one `table` history entry.
func runCampaign(w io.Writer, c experiments.Campaign, cfg experiments.Config, axes experiments.Axes, benchout string) error {
	fmt.Fprintf(w, "\n=== %s ===\n\n", c.Title)
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
