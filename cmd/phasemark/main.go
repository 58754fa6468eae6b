// Command phasemark runs the static side of phase-based tuning on one suite
// benchmark: CFG construction, block typing, transition analysis, and
// instrumentation, reporting the plan and the space overhead.
//
// Usage:
//
//	phasemark [-bench 401.bzip2] [-technique loop|interval|bb]
//	          [-min 45] [-lookahead 0] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"phasetune"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/textplot"
	"phasetune/internal/transition"
)

func main() {
	bench := flag.String("bench", "401.bzip2", "suite benchmark name")
	load := flag.String("load", "", "analyze a saved .ptprog image instead of a suite benchmark")
	technique := flag.String("technique", "loop", "bb, interval, or loop")
	minSize := flag.Int("min", 45, "minimum section size in instructions")
	lookahead := flag.Int("lookahead", 0, "BB lookahead depth")
	verbose := flag.Bool("v", false, "list every mark site")
	flag.Parse()

	if err := run(*bench, *load, *technique, *minSize, *lookahead, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "phasemark:", err)
		os.Exit(1)
	}
}

func run(bench, load, technique string, minSize, lookahead int, verbose bool) error {
	var image *prog.Program
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		image, err = prog.Decode(f)
		if err != nil {
			return err
		}
	} else {
		suite, err := phasetune.Suite()
		if err != nil {
			return err
		}
		for _, b := range suite {
			if b.Name() == bench {
				image = b.Prog
			}
		}
		if image == nil {
			return fmt.Errorf("unknown benchmark %q (try cmd/benchgen for the list)", bench)
		}
	}

	tech, err := transition.ParseTechnique(technique)
	if err != nil {
		return err
	}
	params := transition.Params{
		Technique: tech, MinSize: minSize, Lookahead: lookahead,
		PropagateThroughUntyped: true,
	}

	// The staged public API: the analysis (CFGs, call graph, typing) is
	// computed once and could be instrumented under any number of variants.
	p := image
	analysis, err := phasetune.Analyze(p, phasetune.DefaultTyping())
	if err != nil {
		return err
	}
	art, err := analysis.Instrument(params, phasetune.DefaultCost())
	if err != nil {
		return err
	}

	blocks, loops := 0, 0
	for _, g := range analysis.Graphs {
		blocks += len(g.Blocks)
		loops += len(g.NaturalLoops())
	}
	stats := phase.ComputeStats(analysis.Typing)

	t := textplot.NewTable("property", "value")
	t.AddRow("benchmark", p.Name)
	t.AddRow("variant", params.Name())
	t.AddRow("procedures", fmt.Sprintf("%d", len(p.Procs)))
	t.AddRow("static instructions", fmt.Sprintf("%d", p.NumInstrs()))
	t.AddRow("basic blocks", fmt.Sprintf("%d", blocks))
	t.AddRow("natural loops", fmt.Sprintf("%d", loops))
	t.AddRow("typed blocks", fmt.Sprintf("%d", stats.TypedBlocks))
	t.AddRow("phase types", fmt.Sprintf("%d", analysis.Typing.K))
	t.AddRow("marks", fmt.Sprintf("%d", art.Stats.Marks))
	t.AddRow("binary bytes", fmt.Sprintf("%d -> %d", art.Stats.OrigBytes, art.Stats.NewBytes))
	t.AddRow("space overhead", fmt.Sprintf("%.3f%%", 100*art.Stats.SpaceOverhead))
	fmt.Print(t.String())

	if verbose {
		fmt.Println()
		mt := textplot.NewTable("mark", "proc", "edge", "kind", "type")
		for _, m := range art.Image.Marks {
			kind := "inline"
			if m.Stub {
				kind = "stub"
			}
			mt.AddRow(fmt.Sprintf("%d", m.ID),
				p.Procs[m.Site.Proc].Name,
				fmt.Sprintf("%d->%d", m.Site.From, m.Site.To),
				kind,
				fmt.Sprintf("%d", m.Type))
		}
		fmt.Print(mt.String())
	}
	return nil
}
