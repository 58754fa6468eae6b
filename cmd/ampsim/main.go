// Command ampsim runs one workload on the simulated asymmetric multicore
// under a selected placement policy — the stock scheduler, the paper's
// static phase marks, the online dynamic detector, the marks+windows
// hybrid, the perfect-knowledge oracle, or overhead-measurement mode — and
// prints the run's metrics.
//
// Usage:
//
//	ampsim [-policy static] [-slots 18] [-duration 400] [-seed 5]
//	       [-machine quad|tri|hex] [-delta 0.06] [-technique loop]
//	       [-min 45] [-window 8000] [-alt N]
//	       [-arrivals poisson|bursty|diurnal] [-load 1.0] [-progress]
//	       [-trace out.json] [-ledger out.json]
//
// -policy selects the placement policy by its one name (default static):
// none, static, static/spill (capacity-aware spill arbitration through the
// shared placement engine), dynamic/greedy, dynamic/probe, hybrid,
// hybrid/damped (re-decision drift damping at ε = 0.05), oracle, or
// overhead (Fig. 4's all-cores methodology). -alt N replaces the suite
// workload with the anchored alternation fleet at N alternations
// (workload.Spec.Materialize) — the breakdown experiment's rate axis, one
// point at a time.
//
// -arrivals switches the run to the open-system serving form: serving-fleet
// jobs arrive under the selected process at -load times machine capacity
// (admission stops at 75% of -duration so the tail can drain), the
// overcommit dispatcher time-multiplexes oversubscribed core types, and
// the report adds sojourn-time percentiles (p50/p95/p99/p999). All flag
// combinations are validated up front — a bad one fails with a message
// instead of silently running zero jobs.
//
// -trace writes a deterministic Chrome trace-event JSON timeline of the
// run (per-core burst spans, per-task lifetimes, placement-decision
// instants, runnable-depth counters) for Perfetto or chrome://tracing.
// The path is created up front so a bad path fails before the run, and
// tracing never perturbs the simulation: a traced run produces the same
// Result as an untraced one.
//
// -ledger writes the run's conserved cycle ledger (every core-cycle
// attributed to useful/asymmetry/spill/overhead/idle categories, with
// per-task, per-phase, and per-core rollups) as JSON. Like -trace, the
// path is validated up front and accounting never perturbs the run. The
// file diffs against another run with `runcmp -a one.json -b other.json`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"phasetune"
	"phasetune/internal/amp"
	"phasetune/internal/metrics"
	"phasetune/internal/textplot"
	"phasetune/internal/transition"
)

func main() {
	policy := flag.String("policy", "static", "placement policy: none, static, static/spill, dynamic/greedy, dynamic/probe, hybrid, hybrid/damped, oracle, or overhead")
	slots := flag.Int("slots", 18, "workload slots")
	duration := flag.Float64("duration", 400, "duration in simulated seconds")
	seed := flag.Uint64("seed", 5, "workload seed")
	machineFlag := flag.String("machine", "quad", "quad, tri, or hex (or a full machine name)")
	delta := flag.Float64("delta", 0.06, "IPC threshold")
	technique := flag.String("technique", "loop", "bb, interval, or loop")
	minSize := flag.Int("min", 45, "minimum section size")
	window := flag.Uint64("window", 0, "online detection window in instructions (0 = default)")
	alt := flag.Int("alt", 0, "run the synthetic alternator at N alternations instead of the suite (0 = suite)")
	arrivals := flag.String("arrivals", "", "open-system serving: arrival process kind (poisson, bursty, or diurnal)")
	load := flag.Float64("load", 1.0, "serving offered load in multiples of machine capacity (with -arrivals)")
	progress := flag.Bool("progress", false, "print simulated-time progress")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this path")
	ledgerPath := flag.String("ledger", "", "write the run's conserved cycle ledger JSON to this path")
	flag.Parse()

	loadSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "load" {
			loadSet = true
		}
	})

	if err := run(options{
		policy: *policy, slots: *slots, duration: *duration, seed: *seed,
		machine: *machineFlag, delta: *delta, technique: *technique,
		minSize: *minSize, window: *window, alt: *alt,
		arrivals: *arrivals, load: *load, loadSet: loadSet,
		progress: *progress, trace: *tracePath, ledger: *ledgerPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ampsim:", err)
		os.Exit(1)
	}
}

type options struct {
	policy             string
	slots              int
	duration           float64
	seed               uint64
	machine, technique string
	delta              float64
	minSize            int
	window             uint64
	alt                int
	arrivals           string
	load               float64
	loadSet            bool
	progress           bool
	trace              string
	ledger             string
}

// validate rejects flag combinations that would otherwise run zero jobs (or
// nonsense) silently, with a message naming the offending flag, and returns
// the parsed policy.
func (o options) validate() (phasetune.Policy, error) {
	if !(o.duration > 0) {
		return 0, fmt.Errorf("-duration must be positive (a zero-duration run admits no jobs)")
	}
	pol, err := phasetune.ParsePolicy(o.policy)
	if err != nil {
		return 0, fmt.Errorf("-policy: %w", err)
	}
	overhead := pol == phasetune.PolicyOverhead
	if o.trace != "" && overhead {
		return 0, fmt.Errorf("-trace does not support -policy overhead (overhead runs are untraced); pick another policy")
	}
	if o.ledger != "" && overhead {
		return 0, fmt.Errorf("-ledger does not support -policy overhead (overhead runs are unaccounted); pick another policy")
	}
	if o.arrivals != "" {
		if _, err := phasetune.ParseArrivalKind(o.arrivals); err != nil {
			return 0, fmt.Errorf("-arrivals: %w", err)
		}
		if !(o.load > 0) {
			return 0, fmt.Errorf("-load must be positive (got %g): it is the offered load in multiples of machine capacity", o.load)
		}
		if o.alt > 0 {
			return 0, fmt.Errorf("-arrivals and -alt are mutually exclusive: the serving fleet replaces the alternator workload")
		}
		if overhead {
			return 0, fmt.Errorf("-arrivals does not support -policy overhead (overhead is a closed all-cores methodology); pick another policy")
		}
		return pol, nil
	}
	if o.loadSet {
		return 0, fmt.Errorf("-load only applies with -arrivals (closed slot-queue workloads have no offered load)")
	}
	if o.slots <= 0 {
		return 0, fmt.Errorf("-slots must be positive (got %d)", o.slots)
	}
	return pol, nil
}

func run(o options) error {
	pol, err := o.validate()
	if err != nil {
		return err
	}
	// Validate the trace path up front: create/truncate it now so a bad
	// path (missing directory, permissions) fails in milliseconds, not
	// after minutes of simulation.
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		f.Close()
	}
	if o.ledger != "" {
		f, err := os.Create(o.ledger)
		if err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		f.Close()
	}
	machine, err := amp.ByName(o.machine)
	if err != nil {
		return err
	}
	spec := phasetune.RunSpec{DurationSec: o.duration, Seed: o.seed, Policy: pol}

	tech, err := transition.ParseTechnique(o.technique)
	if err != nil {
		return err
	}
	spec.Params = phasetune.TechniqueParams{
		Technique: tech, MinSize: o.minSize, PropagateThroughUntyped: true,
	}

	// A suite draw, or with -alt the synthetic alternation-rate axis: the
	// anchored alternation fleet (alternator + antiphase rotation + stable
	// anchors). The session materializes either.
	spec.Workload = phasetune.WorkloadSpec{Slots: o.slots, QueueLen: 256, Seed: o.seed, Alternations: o.alt}
	if o.arrivals != "" {
		kind, err := phasetune.ParseArrivalKind(o.arrivals)
		if err != nil {
			return err
		}
		arr := phasetune.ServingArrivals(machine, kind, o.load, 0.75*o.duration)
		spec.Workload = phasetune.WorkloadSpec{Seed: o.seed, Arrivals: &arr}
	}

	tcfg := phasetune.DefaultTuning()
	tcfg.Delta = o.delta
	ocfg := phasetune.DefaultOnline()
	if o.window > 0 {
		ocfg.WindowInstrs = o.window
	}

	var events phasetune.Events
	if o.progress {
		events.OnProgress = func(simSec float64) {
			fmt.Fprintf(os.Stderr, "\rt=%.0fs", simSec)
		}
		events.OnImage = func(bench string, stats phasetune.ImageStats, cached bool) {
			src := "prepared"
			if cached {
				src = "cached"
			}
			fmt.Fprintf(os.Stderr, "image %-14s %s (%d marks)\n", bench, src, stats.Marks)
		}
	}

	// Ctrl-C cancels the simulation mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sessOpts := []phasetune.SessionOption{
		phasetune.WithMachine(machine),
		phasetune.WithTuning(tcfg),
		phasetune.WithOnline(ocfg),
		phasetune.WithEvents(events),
	}
	var tracer *phasetune.Tracer
	if o.trace != "" {
		tracer = phasetune.NewTracer()
		sessOpts = append(sessOpts, phasetune.WithTrace(tracer))
	}
	if o.ledger != "" {
		sessOpts = append(sessOpts, phasetune.WithLedger())
	}
	sess := phasetune.NewSession(sessOpts...)
	res, err := sess.RunContext(ctx, spec)
	if o.progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	migrations, marks := 0, uint64(0)
	for _, t := range res.Tasks {
		migrations += t.Migrations
		marks += t.MarksExecuted
	}
	tput := metrics.ThroughputOver(res.Samples, 0, o.duration)

	t := textplot.NewTable("metric", "value")
	t.AddRow("machine", machine.Name)
	t.AddRow("policy", pol.String())
	if o.alt > 0 {
		t.AddRow("workload", fmt.Sprintf("alt.x%d anchored fleet", o.alt))
	}
	if arr := spec.Workload.Arrivals; arr != nil {
		t.AddRow("arrivals", fmt.Sprintf("%s @ %.2fx load (%.2f jobs/s)",
			o.arrivals, o.load, arr.RatePerSec))
	} else {
		t.AddRow("slots", fmt.Sprintf("%d", o.slots))
	}
	t.AddRow("duration", fmt.Sprintf("%.0fs", o.duration))
	t.AddRow("jobs spawned", fmt.Sprintf("%d", len(res.Tasks)))
	t.AddRow("jobs completed", fmt.Sprintf("%d", metrics.CompletedCount(res.Tasks)))
	t.AddRow("avg process time", fmt.Sprintf("%.2fs", metrics.AvgProcessTime(res.Tasks)))
	t.AddRow("max flow", fmt.Sprintf("%.2fs", metrics.MaxFlow(res.Tasks)))
	t.AddRow("throughput", fmt.Sprintf("%.4g instr/s", tput))
	if spec.Workload.Arrivals != nil {
		st := phasetune.SummarizeServing(res)
		if st.Empty() {
			t.AddRow("sojourn", "n/a (no jobs completed)")
		} else {
			t.AddRow("sojourn p50", fmt.Sprintf("%.2fs", st.P50))
			t.AddRow("sojourn p95", fmt.Sprintf("%.2fs", st.P95))
			t.AddRow("sojourn p99", fmt.Sprintf("%.2fs", st.P99))
			t.AddRow("sojourn p999", fmt.Sprintf("%.2fs", st.P999))
			t.AddRow("sojourn mean", fmt.Sprintf("%.2fs", st.MeanSojournSec))
		}
		t.AddRow("peak runnable", fmt.Sprintf("%d (on %d cores)", st.PeakRunnable, len(machine.Cores)))
		t.AddRow("overcommit slices", fmt.Sprintf("%d", st.OvercommitSlices))
	}
	t.AddRow("core switches", fmt.Sprintf("%d", migrations))
	t.AddRow("marks executed", fmt.Sprintf("%d", marks))
	t.AddRow("counter deferrals", fmt.Sprintf("%d", res.CounterDefers))
	if res.Online != nil {
		t.AddRow("detection windows", fmt.Sprintf("%d (+%d discarded)", res.Online.Windows, res.Online.Discarded))
		t.AddRow("phases detected", fmt.Sprintf("%d", res.Online.Phases))
		t.AddRow("probe decisions", fmt.Sprintf("%d", res.Online.Decisions))
		t.AddRow("monitor cycles", fmt.Sprintf("%d", res.Online.ChargedCycles))
		t.AddRow("online switches", fmt.Sprintf("%d", res.Online.Switches))
		if pol == phasetune.PolicyHybrid || pol == phasetune.PolicyHybridDamped {
			t.AddRow("decision refreshes", fmt.Sprintf("%d", res.Online.Refreshes))
			t.AddRow("damped refreshes", fmt.Sprintf("%d", res.Online.Damped))
		}
	}
	fmt.Print(t.String())

	if tracer != nil {
		if err := tracer.WriteFile(o.trace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Printf("\n%s\nwrote %d trace events to %s (open in Perfetto / chrome://tracing)\n",
			tracer.Summary(), tracer.Len(), o.trace)
	}
	if o.ledger != "" {
		l := res.Ledger
		if l == nil {
			return fmt.Errorf("-ledger: run produced no ledger")
		}
		if err := l.Verify(); err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		blob, err := json.MarshalIndent(l, "", "  ")
		if err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		if err := os.WriteFile(o.ledger, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		fmt.Printf("\nwrote conserved cycle ledger to %s (%d tasks, %d cores; diff with runcmp)\n",
			o.ledger, len(l.PerTask), l.Cores)
	}
	return nil
}
