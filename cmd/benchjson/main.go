// Command benchjson records bench/run.sh pass reports in the repository's
// measurement history (default BENCH_sweep.json) and renders that history.
//
//	bash bench/run.sh -reps 3 -json pass.json
//	benchjson -record pass.json [-out BENCH_sweep.json]
//	benchjson -history [-out BENCH_sweep.json]
//
// -record appends the report as one `table` entry of campaign "bench",
// titled with its seeds and run seed, holding the report's revision and
// GOMAXPROCS and a row per workload and end-to-end metric. A report with a
// failed cell, a problem or no workloads is refused.
//
// -history draws each metric over the bench entries and redraws the newest
// entry of every other campaign. It fails when the newest bench entry's
// allocs_m or alloc_mb is worse than its bound against the newest earlier
// entry on the same seeds; other metrics past their bound are only noted.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"phasetune/internal/benchhist"
)

func main() {
	out := flag.String("out", "BENCH_sweep.json", "history file")
	pass := flag.String("record", "", "append this bench/run.sh -json pass report to the history")
	history := flag.Bool("history", false, "render the history and gate the newest bench pass's allocations")
	flag.Parse()
	err := errors.New("usage: benchjson -record PASS.json [-out FILE] | benchjson -history [-out FILE]")
	switch {
	case flag.NArg() > 0 || (*pass != "") == *history:
	case *history:
		err = renderHistory(os.Stdout, *out)
	default:
		err = record(*pass, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// passReport is the part of a bench/run.sh -json report that is recorded.
type passReport struct {
	Revision   string     `json:"revision"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seeds      []uint64   `json:"seeds"`
	RunSeed    uint64     `json:"run_seed"`
	Workloads  []workload `json:"workloads"`
}

type workload struct {
	Name     string             `json:"name"`
	Reps     int                `json:"reps"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems"`
	Metrics  map[string]summary `json:"metrics"`
}

type summary struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// record appends the pass report at passPath to the history at out.
func record(passPath, out string) error {
	blob, err := os.ReadFile(passPath)
	if err != nil {
		return err
	}
	var p passReport
	if err := json.Unmarshal(blob, &p); err != nil {
		return fmt.Errorf("%s: %w", passPath, err)
	}
	if len(p.Workloads) == 0 {
		return fmt.Errorf("%s holds no workloads, not recording", passPath)
	}
	t := benchhist.Table{Columns: []benchhist.Column{benchhist.Col("workload", "", ""),
		benchhist.Col("reps", "reps", "%.0f"), benchhist.Col("metric", "", ""), benchhist.Col("better", "", ""),
		benchhist.Col("median", "", "%.4g"), benchhist.Col("q1", "", "%.4g"), benchhist.Col("q3", "", "%.4g"),
		benchhist.Col("bound", "fraction", "%.2f")}}
	for _, w := range p.Workloads {
		if w.Failed > 0 || len(w.Problems) > 0 {
			return fmt.Errorf("%s: %s failed %d cells, problems %q; not recording",
				passPath, w.Name, w.Failed, w.Problems)
		}
		names := make([]string, 0, len(w.Metrics))
		for name := range w.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := w.Metrics[name]
			t.AddRow(w.Name, w.Reps, name, m.Better, m.Median, m.Q1, m.Q3, m.Bound)
		}
	}
	e := benchhist.Stamp(benchhist.KindTable)
	e.Revision, e.Dirty, e.MaxProcs = p.Revision, false, p.GOMAXPROCS
	e.Campaign, e.Tables = "bench", []benchhist.Table{t}
	e.Title = fmt.Sprintf("bench/run.sh pass, seeds %v, run seed %d", p.Seeds, p.RunSeed)
	if err := benchhist.Append(out, e); err != nil {
		return err
	}
	fmt.Printf("appended %s at revision %q to %s\n", e.Title, e.Revision, out)
	return nil
}

// row is one workload's metric in a recorded bench entry.
type row struct {
	workload, metric, better string
	median, bound            float64
}

// rowsOf reads the rows of a bench entry's table, as record wrote them.
func rowsOf(e benchhist.Entry) (rows []row) {
	for _, t := range e.Tables {
		for _, r := range t.Rows {
			if len(r) == 8 && len(r[4].Nums) == 1 && len(r[7].Nums) == 1 {
				rows = append(rows, row{r[0].Label, r[2].Label, r[3].Label, r[4].Nums[0], r[7].Nums[0]})
			}
		}
	}
	return rows
}

// renderHistory writes the history at path to w and gates its newest pass.
func renderHistory(w io.Writer, path string) error {
	hist, err := benchhist.Load(path)
	if err != nil {
		return fmt.Errorf("%s does not load: %w", path, err)
	}
	if len(hist.Entries) == 0 {
		return fmt.Errorf("%s holds no history entries", path)
	}
	var passes []benchhist.Entry
	var campaigns []string
	latest := map[string]benchhist.Entry{}
	for _, e := range hist.Entries {
		if e.Kind == benchhist.KindTable && e.Campaign == "bench" {
			passes = append(passes, e)
		} else if e.Kind == benchhist.KindTable {
			if _, ok := latest[e.Campaign]; !ok {
				campaigns = append(campaigns, e.Campaign)
			}
			latest[e.Campaign] = e
		}
	}
	fmt.Fprintf(w, "%s: %d entries, %d bench passes, %d not drawn (older campaign tables, warm-grid timings, unknown kinds)\n",
		path, len(hist.Entries), len(passes), len(hist.Entries)-len(passes)-len(latest))

	// One table per metric, long form: its median per pass and workload.
	var trajectories []benchhist.Table
	at := map[string]int{}
	for _, e := range passes {
		for _, r := range rowsOf(e) {
			i, ok := at[r.metric]
			if !ok {
				i, at[r.metric] = len(trajectories), len(trajectories)
				trajectories = append(trajectories, benchhist.Table{
					Title: fmt.Sprintf("%s over bench passes (%s is better)", r.metric, r.better),
					Columns: []benchhist.Column{benchhist.Col("recorded", "", ""), benchhist.Col("revision", "", ""),
						benchhist.Col("workload", "", ""), benchhist.Col("median", "", "%.4g")}})
			}
			trajectories[i].AddRow(e.Timestamp, e.Revision[:min(len(e.Revision), 12)], r.workload, r.median)
		}
	}
	if err := benchhist.Render(w, trajectories); err != nil {
		return err
	}
	for _, name := range campaigns {
		e := latest[name]
		fmt.Fprintf(w, "\n=== %s (%s, recorded %s) ===\n\n", e.Title, e.Campaign, e.Timestamp)
		if err := benchhist.Render(w, e.Tables); err != nil {
			return err
		}
	}
	return gate(w, passes)
}

// gate compares the newest bench pass with the newest earlier one on the
// same seeds and run seed. It fails on an allocation metric worse than its
// bound and notes the other metrics that are.
func gate(w io.Writer, passes []benchhist.Entry) error {
	i := len(passes) - 2
	for i >= 0 && passes[i].Title != passes[len(passes)-1].Title {
		i--
	}
	if i < 0 {
		fmt.Fprintln(w, "\nno earlier bench pass on the newest one's seeds: nothing to compare")
		return nil
	}
	prev, last := passes[i], passes[len(passes)-1]
	before := map[[2]string]float64{}
	for _, r := range rowsOf(prev) {
		before[[2]string{r.workload, r.metric}] = r.median
	}
	fmt.Fprintf(w, "\nnewest bench pass against the one recorded %s:\n", prev.Timestamp)
	var regressed []string
	for _, r := range rowsOf(last) {
		p, ok := before[[2]string{r.workload, r.metric}]
		worse := (r.median - p) / math.Abs(p)
		if r.better == "higher" {
			worse = -worse
		}
		if !ok || !(worse > r.bound) {
			continue
		}
		msg := fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)", r.workload, r.metric, 100*worse, 100*r.bound)
		if r.metric == "allocs_m" || r.metric == "alloc_mb" {
			regressed = append(regressed, msg)
		} else {
			fmt.Fprintf(w, "note: %s; only allocs_m and alloc_mb are gated\n", msg)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocation regression against the bench pass recorded %s: %s",
			prev.Timestamp, strings.Join(regressed, ", "))
	}
	fmt.Fprintln(w, "no allocation metric worse than its bound")
	return nil
}
