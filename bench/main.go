// Command bench is the campaign benchmark. It runs real campaign grids,
// each rep in a fresh child process with a cold image cache and segment
// memo, and reports end-to-end host-time metrics as median [q1, q3] over
// the reps. It checks every cell's output against golden digests. A
// separate traced pass (-trace) reports per-layer metrics from spans
// recorded around calls into each layer, plus workload-independent probes.
// README.md describes the workloads, the metrics and the protocol.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"phasetune/internal/dist"
	"phasetune/internal/experiments"
	"phasetune/internal/sim"
)

// defaultSeeds are the grid seeds of every workload unless overridden.
var defaultSeeds = []uint64{5, 42}

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// processStart approximates when this process started: package variables
// are initialised before main runs. A rep's set-up time counts from here.
var processStart = time.Now()

var (
	workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all)")
	seedsFlag    = flag.String("seeds", "", "comma-separated grid seeds: every grid draws its workload queues and arrival schedules from them (default 5,42)")
	seedFlag     = flag.Uint64("seed", 0, "run seed: offsets every cell's process seed, so the same jobs run along other paths")
	repsFlag     = flag.Int("reps", 5, "minimum reps per workload, each in a fresh process")
	secondsFlag  = flag.Float64("seconds", 0, "time budget of the pass: after -reps rounds, start another round only if it should end within it")
	traceFlag    = flag.String("trace", "", "run the traced pass, writing span files to this directory (1: .bench_build/spans; 0: untraced)")
	jsonFlag     = flag.String("json", "", "write the pass report as JSON to this file")
	compareFlag  = flag.Bool("compare", false, "compare two -json reports: -compare base.json head.json")
	updateFlag   = flag.Bool("update-golden", false, "run every workload once and rewrite bench/golden.json")
	childFlag    = flag.String("child", "", "internal: run one rep of this workload (or \"probes\") and print its report")
	spansFlag    = flag.String("spans", "", "internal: with -child, trace the rep and write its spans to this directory")
)

func main() {
	flag.Parse()
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	in, err := parseInputs()
	if err != nil {
		return err
	}
	switch {
	case *childFlag != "":
		return runChild(ctx, *childFlag, in, *spansFlag)
	case *compareFlag:
		if flag.NArg() != 2 {
			return errors.New("usage: -compare base.json head.json")
		}
		base, err := readPass(flag.Arg(0))
		if err != nil {
			return err
		}
		head, err := readPass(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, base, head) {
			return errors.New("head is worse than base beyond a bound")
		}
		return nil
	case *updateFlag:
		return updateGolden(ctx, in)
	}

	ws, err := selectWorkloads(*workloadFlag)
	if err != nil {
		return err
	}
	spans := *traceFlag
	traced := spans != "" && spans != "0"
	if spans == "1" {
		spans = ".bench_build/spans"
	}
	var results []workloadResult
	if traced {
		results, err = tracedPass(ctx, ws, in, spans)
	} else {
		results, err = untracedPass(ctx, ws, in, *repsFlag, time.Duration(*secondsFlag*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	printResults(os.Stdout, results, traced)
	if *jsonFlag != "" {
		if err := writePass(*jsonFlag, in, results); err != nil {
			return err
		}
	}
	if len(results) == 1 {
		// One workload: end with the one-line result a harness parses.
		return json.NewEncoder(os.Stdout).Encode(resultLine(results[0], traced))
	}
	for _, r := range results {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d cells failed", r.Name, r.Failed, r.Attempted)
		}
	}
	return nil
}

func parseInputs() (inputs, error) {
	in := inputs{seeds: defaultSeeds, run: *seedFlag}
	if *seedsFlag == "" {
		return in, nil
	}
	in.seeds = nil
	for _, f := range strings.Split(*seedsFlag, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return in, fmt.Errorf("-seeds: %w", err)
		}
		in.seeds = append(in.seeds, s)
	}
	return in, nil
}

func formatSeeds(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(list, ",") {
		w, err := workloadByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runChild runs one rep of a workload, or the probes, in this process and
// prints the report as JSON.
func runChild(ctx context.Context, name string, in inputs, spans string) error {
	if name == "probes" {
		testing.Init()
		if err := flag.Set("test.benchtime", "300ms"); err != nil {
			return err
		}
		m, err := runProbes(ctx, size{}, 3)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(m)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var rec *recorder
	if spans != "" {
		rec = newRecorder()
	}
	rep, err := runRep(ctx, w, in, size{}, processStart, rec)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeSpans(spans, name, rec.snapshot()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawn runs this binary as a child with GOMAXPROCS matching the sweep
// workers and returns its standard output.
func spawn(ctx context.Context, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := osexec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", sweepWorkers))
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// spawnRep runs one rep of w in a fresh process; spans, when set, traces it.
func spawnRep(ctx context.Context, w workload, in inputs, spans string) (*repReport, error) {
	args := []string{"-child", w.name, "-seeds", formatSeeds(in.seeds), "-seed", strconv.FormatUint(in.run, 10)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	out, err := spawn(ctx, args...)
	if err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, err)
	}
	var rep repReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s rep: %w", w.name, err)
	}
	return &rep, nil
}

func spawnProbes(ctx context.Context) (map[string]float64, error) {
	out, err := spawn(ctx, "-child", "probes")
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	m := map[string]float64{}
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return m, nil
}

// grid is a workload's campaigns as the parent sees them: the cell labels
// and the lowering the reference check needs.
type grid struct {
	camps  []dist.Campaign
	labels []string
}

func buildGrid(w workload, in inputs, sz size) (grid, error) {
	cfg, err := experiments.Default()
	if err != nil {
		return grid{}, err
	}
	g := grid{camps: w.campaigns(cfg, in, sz)}
	for _, c := range g.camps {
		for _, sp := range c.Specs {
			g.labels = append(g.labels, cellLabel(c, sp))
		}
	}
	return g, nil
}

// reference is every cell of one machine of a grid, rerun on the plain
// path; first is the grid index of the machine's first cell.
type reference struct {
	first   int
	digests []string
}

// reference reruns every cell of one machine, chosen by the run seed, in
// this process with no image cache and no segment memo: the plain path
// every memoized, cached or sharded run must reproduce. Runs with seeds
// 0, 1, 2, ... check the machines in turn, so ten runs cover every one.
func (g grid) reference(ctx context.Context, in inputs) (reference, error) {
	k := int(in.run % uint64(len(g.camps)))
	var ref reference
	for _, c := range g.camps[:k] {
		ref.first += len(c.Specs)
	}
	c := g.camps[k]
	suite, err := c.Env.Suite()
	if err != nil {
		return ref, fmt.Errorf("%s: suite: %w", c.Env.Machine.Name, err)
	}
	cfgs := make([]sim.RunConfig, len(c.Specs))
	for j, sp := range c.Specs {
		if cfgs[j], err = c.Env.RunConfig(sp, suite, nil); err != nil {
			return ref, err
		}
	}
	res, err := sim.Sweep(ctx, cfgs, sim.SweepOptions{Workers: sweepWorkers})
	if err != nil {
		return ref, fmt.Errorf("reference rerun of %s: %w", c.Env.Machine.Name, err)
	}
	for _, r := range res {
		raw, err := dist.EncodeResult(r)
		if err != nil {
			return ref, err
		}
		ref.digests = append(ref.digests, digest(raw))
	}
	return ref, nil
}

// checkReference fails every cell of r that differs from its plain rerun.
func (r *workloadResult) checkReference(ref reference, labels []string) {
	r.Attempted += len(ref.digests)
	for j, want := range ref.digests {
		i := ref.first + j
		if i >= len(r.Digests) || r.Digests[i] != want {
			r.Failed++
			r.problem(fmt.Sprintf("cell %d (%s): differs from a plain rerun", i, labels[i]))
		}
	}
}

// check counts r's failed cells over its reps. A cell fails when it did
// not run or when its digest differs from want: the golden digests, or,
// when none are recorded for these seeds, the first rep's.
func (r *workloadResult) check(reps []*repReport, want []string, labels []string) {
	r.Golden = "ok"
	if want == nil {
		r.Golden = "n/a"
		if len(reps) > 0 {
			want = reps[0].Digests
		}
	}
	if len(reps) > 0 {
		r.Digests = reps[0].Digests
	}
	if len(want) != len(labels) {
		r.Golden = "mismatch"
		r.problem(fmt.Sprintf("golden holds %d cells, the grid has %d", len(want), len(labels)))
		r.Failed += len(reps) * len(labels)
		return
	}
	for _, rep := range reps {
		for _, e := range rep.Errors {
			r.problem(e)
		}
		for i, d := range rep.Digests {
			if d != "" && d == want[i] {
				continue
			}
			r.Failed++
			if d != "" {
				if r.Golden == "ok" {
					r.Golden = "mismatch"
				}
				r.problem(fmt.Sprintf("cell %d (%s): digest %.12s, want %.12s", i, labels[i], d, want[i]))
			}
		}
	}
}

// problem keeps the first few failure messages of a workload.
func (r *workloadResult) problem(msg string) {
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, msg)
	}
}

func (r *workloadResult) summarize(reps []*repReport) {
	r.Metrics = map[string]summary{}
	for _, m := range endToEnd {
		var vs []float64
		for _, rep := range reps {
			vs = append(vs, endToEndValues(rep)[m.Name])
		}
		r.Metrics[m.Name] = newSummary(m, vs)
	}
}

// references reruns one machine of each distinct grid among ws.
func references(ctx context.Context, ws []workload, grids []grid, in inputs) (map[string]reference, error) {
	refs := map[string]reference{}
	for i, w := range ws {
		if _, seen := refs[w.gridName()]; seen {
			continue
		}
		ref, err := grids[i].reference(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		refs[w.gridName()] = ref
	}
	return refs, nil
}

// crossCheck applies the checks beyond a workload's own reps: the first
// workload of each grid must match the grid's plain reference rerun, and a
// workload that reruns another's grid must match it cell for cell.
func crossCheck(ws []workload, grids []grid, results []workloadResult, refs map[string]reference) {
	byGrid := map[string]int{}
	for i, w := range ws {
		r := &results[i]
		j, seen := byGrid[w.gridName()]
		if !seen {
			byGrid[w.gridName()] = i
			r.checkReference(refs[w.gridName()], grids[i].labels)
			continue
		}
		if len(r.Digests) == 0 || len(results[j].Digests) == 0 {
			continue
		}
		for c, d := range r.Digests {
			if d != results[j].Digests[c] {
				r.Failed++
				r.problem(fmt.Sprintf("cell %d (%s): differs from %s", c, grids[i].labels[c], results[j].Name))
			}
		}
	}
}

// untracedPass reruns one machine of each grid on the plain path, then runs
// reps of every workload, interleaved round-robin so that a slow period on
// the host hits every workload alike. After reps rounds it starts another
// round only while that round, at the mean round time so far, should end
// within seconds of the pass's start.
func untracedPass(ctx context.Context, ws []workload, in inputs, reps int, seconds time.Duration) ([]workloadResult, error) {
	start := time.Now()
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	grids := make([]grid, len(ws))
	results := make([]workloadResult, len(ws))
	for i, w := range ws {
		if grids[i], err = buildGrid(w, in, size{}); err != nil {
			return nil, err
		}
		results[i].Name = w.name
		results[i].Cells = len(grids[i].labels)
	}
	refs, err := references(ctx, ws, grids, in)
	if err != nil {
		return nil, err
	}
	done := make([][]*repReport, len(ws))
	roundsFrom := time.Now()
	for round := 0; ; round++ {
		if round >= max(reps, 1) {
			perRound := time.Since(roundsFrom) / time.Duration(round)
			if time.Since(start)+perRound > seconds {
				break
			}
		}
		for i, w := range ws {
			results[i].Attempted += results[i].Cells
			rep, err := spawnRep(ctx, w, in, "")
			if err != nil {
				results[i].Failed += results[i].Cells
				results[i].problem(err.Error())
				continue
			}
			done[i] = append(done[i], rep)
		}
	}
	for i, w := range ws {
		results[i].Reps = len(done[i])
		results[i].check(done[i], gold.expected(w, in), grids[i].labels)
		results[i].summarize(done[i])
	}
	crossCheck(ws, grids, results, refs)
	return results, nil
}

// tracedPass runs, per workload, one traced rep and one untraced rep, and
// the probes once. The traced rep gives the per-layer metrics; the
// untraced one gives the tracing overhead and checks that tracing left
// every cell unchanged. The fabric's overhead is measured against an
// untraced showdown rep.
func tracedPass(ctx context.Context, ws []workload, in inputs, dir string) ([]workloadResult, error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	grids := make([]grid, len(ws))
	results := make([]workloadResult, len(ws))
	untraced := map[string]*repReport{}
	traced := make([]*repReport, len(ws))
	for i, w := range ws {
		if grids[i], err = buildGrid(w, in, size{}); err != nil {
			return nil, err
		}
	}
	refs, err := references(ctx, ws, grids, in)
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		r := &results[i]
		r.Name, r.Cells = w.name, len(grids[i].labels)
		var reps []*repReport
		for _, spans := range []string{dir, ""} {
			r.Attempted += r.Cells
			rep, err := spawnRep(ctx, w, in, spans)
			if err != nil {
				r.Failed += r.Cells
				r.problem(err.Error())
				continue
			}
			reps = append(reps, rep)
			if spans == "" {
				untraced[w.name] = rep
			} else {
				traced[i] = rep
			}
		}
		r.Reps = len(reps)
		r.check(reps, gold.expected(w, in), grids[i].labels)
		if u := untraced[w.name]; u != nil {
			r.summarize([]*repReport{u})
		}
	}
	for _, w := range ws {
		if w.fabric && untraced[w.sameGridAs] == nil {
			sw, err := workloadByName(w.sameGridAs)
			if err != nil {
				return nil, err
			}
			if untraced[sw.name], err = spawnRep(ctx, sw, in, ""); err != nil {
				return nil, err
			}
		}
	}
	probes, err := spawnProbes(ctx)
	if err != nil {
		for i := range results {
			results[i].Failed++
			results[i].problem(err.Error())
		}
	}
	for i, w := range ws {
		results[i].Layers = assembleLayers(w, traced[i], untraced[w.name], untraced[w.sameGridAs], probes)
	}
	crossCheck(ws, grids, results, refs)
	return results, nil
}

// assembleLayers merges a workload's per-layer metrics: the traced rep's,
// the probes', the tracing overhead (traced against untraced wall time),
// and for a workload rerunning another's grid, its overhead over that grid.
// A metric that does not apply to the workload reads 0.
func assembleLayers(w workload, traced, untraced, same *repReport, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	if traced != nil {
		for k, v := range traced.Layers {
			m[k] = v
		}
	}
	for k, v := range probes {
		m[k] = v
	}
	if traced != nil && untraced != nil && untraced.WallSec > 0 {
		m["harness.span_overhead_pct"] = 100 * (traced.WallSec/untraced.WallSec - 1)
	}
	if w.fabric && untraced != nil && same != nil && same.WallSec > 0 {
		m["dist.overhead_pct"] = 100 * (untraced.WallSec/same.WallSec - 1)
	}
	return m
}

func printResults(out io.Writer, results []workloadResult, traced bool) {
	for _, r := range results {
		fmt.Fprintf(out, "%s: %d cells, %d reps, golden %s, %d of %d cells failed\n",
			r.Name, r.Cells, r.Reps, r.Golden, r.Failed, r.Attempted)
		for _, p := range r.Problems {
			fmt.Fprintf(out, "  FAIL %s\n", p)
		}
		for _, m := range endToEnd {
			s := r.Metrics[m.Name]
			fmt.Fprintf(out, "  %-26s %-34s n=%d\n", m.Name, fmtSummary(s), len(s.Values))
		}
		fmt.Fprintf(out, "  %-26s %s\n", "fail_frac", fmtFails(r))
		if !traced {
			continue
		}
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-26s %.4g %s\n", m.Name, r.Layers[m.Name], m.Unit)
		}
	}
}

func writePass(path string, in inputs, results []workloadResult) error {
	p := passReport{Go: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: sweepWorkers,
		Seeds: in.seeds, RunSeed: in.run, Workloads: results}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Revision = s.Value
			}
		}
	}
	blob, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line result of a single-workload run: the
// end-to-end medians, or with tracing the per-layer metrics.
func resultLine(r workloadResult, traced bool) any {
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.Metrics[m.Name].Median, m.Unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && len(r.Problems) == 0, r.Attempted, r.Failed, metrics}
}
