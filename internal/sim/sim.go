// Package sim glues the whole stack together: it takes a benchmark suite, a
// machine, and a technique configuration, prepares program images (static
// analysis -> transition marking -> instrumentation), runs workloads under
// the simulated OS, and collects the statistics the experiments report.
//
// A Run is a pure function of its RunConfig: identical configurations give
// bit-identical results, which the comparison protocol depends on (baseline
// and tuned runs share workload queues and per-process branch seeds, as in
// the paper §IV-A2).
package sim

import (
	"context"
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/ledger"
	"phasetune/internal/metrics"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/rng"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// Mode selects how processes run.
type Mode int

const (
	// Baseline runs uninstrumented programs under the stock scheduler.
	Baseline Mode = iota
	// Tuned runs instrumented programs with the tuning runtime.
	Tuned
	// Overhead runs instrumented programs in all-cores mode (paper's time
	// overhead methodology, §IV-B2).
	Overhead
	// Dynamic runs uninstrumented programs under the online phase detector
	// (internal/online): periodic counter sampling, window classification,
	// and runtime reassignment — the mark-free competitor of §V.
	Dynamic
	// Oracle runs instrumented programs with perfect-knowledge placement:
	// every mark resolves to the statically computed Algorithm 2 choice with
	// zero monitoring. The upper bound of the static-vs-dynamic showdown.
	Oracle
	// Hybrid runs instrumented programs under the marks+windows hybrid
	// runtime (online.Hybrid): marks define phase boundaries, monitor
	// windows refresh the per-phase IPC estimates, and the shared placement
	// engine re-arbitrates at boundaries — the paper's §VI-B feedback
	// mechanism grown into a full policy.
	Hybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Tuned:
		return "tuned"
	case Overhead:
		return "overhead"
	case Dynamic:
		return "dynamic"
	case Oracle:
		return "oracle"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// RunConfig configures one simulation run.
type RunConfig struct {
	// Machine is the hardware; nil defaults to the paper's quad.
	Machine *amp.Machine
	// Cost is the shared cost model; zero value defaults.
	Cost *exec.CostModel
	// Sched configures the scheduler's counter pool; nil is unbounded. The
	// scheduler's periods and switch costs are osched constants.
	Sched *osched.Config
	// Workload supplies the slot queues (closed-system runs). Exactly one
	// of Workload and Stream must be set.
	Workload *workload.Workload
	// Stream supplies an open-system arrival schedule instead of slot
	// queues: jobs from the serving fleet are admitted at their arrival
	// times via kernel timers, and each job's sojourn time is its
	// admission-to-completion interval. Every open run turns on the
	// kernel's overcommit dispatcher (osched.Kernel.Overcommit), so demand
	// beyond core supply time-multiplexes fairly; closed runs never do.
	Stream *workload.Stream
	// DurationSec is the experiment length in simulated seconds.
	DurationSec float64
	// Mode is the run mode a placement policy lowers to (Policy.Lower).
	Mode Mode
	// Params is the marking technique (used when Mode != Baseline).
	Params transition.Params
	// Tuning configures the runtime (used when Mode == Tuned; Overhead
	// installs the all-cores hook instead). Tuning.Delta is the δ of the
	// run's one placement engine, so it is the Algorithm 2 threshold of
	// every policy.
	Tuning tuning.Config
	// Online configures the dynamic detector (used when Mode == Dynamic or
	// Hybrid; zero fields take online.DefaultConfig values). The detector
	// ticks on the kernel's fixed osched.MonitorIntervalSec.
	Online online.Config
	// Placement parameterizes the run's placement engine's capacity
	// arbitration (contention pricing on or off). Its claims come from the
	// engine-backed modes: Dynamic, Hybrid, Tuned with Tuning.Spill, and an
	// Oracle run whose Placement is priced.
	Placement place.Config
	// TypingOpts configures static block typing.
	TypingOpts phase.Options
	// TypingError injects clustering error (Fig. 7); fraction in [0,1].
	TypingError float64
	// Seed drives workload process seeds and error injection.
	Seed uint64
	// Cache, when set, serves prepared images from the shared artifact
	// cache instead of re-running the static pipeline per run.
	Cache *ImageCache
	// Memo is ignored: the segment memo is gone and every run steps from
	// its images' cost tables.
	//
	// Deprecated: kept until bench/ drops it.
	Memo *exec.SegmentMemo
	// Events, when set, receives per-run progress callbacks.
	Events Events
	// Trace, when set, records the run's event timeline (scheduler bursts,
	// placement decisions, online windows, mark boundaries, task spans).
	// Tracing never perturbs the simulation: a traced run's Result is
	// bit-identical to an untraced one. The tracer is not part of the dist
	// wire format; one tracer should observe one run at a time (concurrent
	// sweep runs sharing a tracer interleave nondeterministically).
	Trace *trace.Tracer
	// Ledger enables conserved cycle accounting: the run's Result carries a
	// Ledger decomposing every simulated core-picosecond into exhaustive
	// categories (Σ categories == cores × horizon, exact). Like tracing it
	// never perturbs the simulation: a ledgered run's Result is
	// bit-identical to a ledger-off run once the Ledger field is stripped.
	// The flag (not a pointer) crosses the dist wire in the EnvSpec.
	Ledger bool
	// CacheStats enables the kernel's per-cache-group residency map
	// (osched.CacheStats): the run's Result reports how memory-bound
	// tasks' busy time distributed over shared-L2 groups — the observable
	// the contention experiments separate fleets by. Like Ledger it never
	// perturbs the simulation; a stats-off Result encodes byte-identically
	// to builds without the feature. Crosses the dist wire per-spec
	// (dist.Spec.CacheStats).
	CacheStats bool
}

// Events holds optional per-run observation hooks. Hooks are invoked
// synchronously from the executing run's goroutine; when one Events value
// is shared by concurrent runs (a sweep), hooks from different runs fire
// concurrently and must be safe for concurrent use.
type Events struct {
	// OnImage fires once per distinct benchmark after its image is ready.
	// cached reports whether the image came out of the artifact cache
	// without running the static pipeline.
	OnImage func(benchmark string, stats ImageStats, cached bool)
	// OnProgress fires at every throughput sampling event with the current
	// simulated time.
	OnProgress func(simulatedSec float64)
}

// Result is the outcome of a run.
type Result struct {
	// Tasks holds one record per spawned job, in spawn order.
	Tasks []metrics.TaskStat
	// Samples is the throughput time series.
	Samples []metrics.ThroughputSample
	// TotalInstructions is the cumulative committed instruction count.
	TotalInstructions uint64
	// CounterDefers counts monitoring requests that found no free event set.
	CounterDefers uint64
	// Online holds the monitoring statistics of the runtime-detection
	// modes (nil unless the run used Mode Dynamic or Hybrid).
	Online *online.Stats
	// Images reports per-benchmark instrumentation statistics.
	Images map[string]ImageStats
	// DurationSec echoes the configured duration.
	DurationSec float64
	// PeakRunnable is the maximum number of simultaneously live tasks the
	// run reached. Closed runs peak at the slot count; open-system runs
	// exceeding the core count demonstrably exercised overcommit.
	PeakRunnable int
	// OvercommitSlices counts dispatch slices the proportional-share
	// dispatcher shortened (zero for closed runs, and for open runs whose
	// demand never exceeded capacity).
	OvercommitSlices uint64
	// Ledger is the run's conserved cycle accounting (nil unless
	// RunConfig.Ledger was set). The omitempty tag keeps a ledger-off
	// Result's canonical encoding — the bytes the dist fabric commits —
	// byte-identical to pre-ledger builds.
	Ledger *ledger.Ledger `json:"ledger,omitempty"`
	// CacheStats is the per-cache-group residency map (nil unless
	// RunConfig.CacheStats was set). The omitempty tag keeps a stats-off
	// Result's canonical encoding byte-identical to earlier builds.
	CacheStats *osched.CacheStats `json:"cache_stats,omitempty"`
}

// ImageStats summarizes one prepared image.
type ImageStats struct {
	// Marks is the static mark count.
	Marks int
	// SpaceOverhead is the fractional size increase.
	SpaceOverhead float64
	// OrigBytes and NewBytes are encoded sizes.
	OrigBytes, NewBytes int
	// EffectiveK is the number of phase types after clustering.
	EffectiveK int
}

// HookFactory builds the mark hook installed on each spawned process.
type HookFactory func(k *osched.Kernel, img *exec.Image) exec.MarkHook

// Run executes one full workload simulation.
func Run(cfg RunConfig) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation polls ctx while it
// advances and returns ctx.Err() if it fires mid-run.
func RunContext(ctx context.Context, cfg RunConfig) (*Result, error) {
	return RunWithHookContext(ctx, cfg, nil)
}

// monitor is the online runtime of a Dynamic or Hybrid run: the kernel
// ticks it, and its statistics are the run's Result.Online.
type monitor interface {
	osched.TaskMonitor
	Stats() online.Stats
}

// assembly is one run wired and ready to admit jobs: its prepared images,
// its booted kernel with the observers and online monitor attached, and the
// mode's per-process mark hook, all deciding through the run's one
// placement engine. Workload runs and isolation runs both start from it.
type assembly struct {
	kernel  *osched.Kernel
	images  map[*workload.Benchmark]*exec.Image
	hook    func(k *osched.Kernel, img *exec.Image) exec.MarkHook
	monitor monitor
	col     *ledger.Collector
	res     *Result
}

// assemble validates cfg and wires its run. When factory is nil, Tuned mode
// installs the standard tuning runtime, Overhead the all-cores hook
// (tuning.AllCores), Oracle and Hybrid their runtimes' hooks, and Baseline
// and Dynamic no hook; a non-nil factory overrides the choice.
func assemble(ctx context.Context, cfg RunConfig, factory HookFactory) (*assembly, error) {
	if cfg.Mode < Baseline || cfg.Mode > Hybrid {
		// An unknown mode must fail loudly: it would otherwise fall through
		// every hook switch and run as a silent baseline — a spec from a
		// newer wire generation would commit wrong-but-plausible bytes.
		return nil, fmt.Errorf("sim: unknown run mode %d", int(cfg.Mode))
	}
	machine := cfg.Machine
	if machine == nil {
		machine = amp.Quad2Fast2Slow()
	}
	cost := exec.DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	var sched osched.Config
	if cfg.Sched != nil {
		sched = *cfg.Sched
	}
	closed := cfg.Workload != nil && cfg.Workload.NumSlots() > 0
	open := cfg.Stream != nil
	switch {
	case closed && open:
		return nil, fmt.Errorf("sim: set exactly one of Workload and Stream, not both")
	case open && len(cfg.Stream.Arrivals) == 0:
		return nil, fmt.Errorf("sim: empty arrival stream")
	case !closed && !open:
		return nil, fmt.Errorf("sim: empty workload")
	}
	topts := cfg.TypingOpts.Normalized()

	// Prepare one image per distinct benchmark. With a cache, preparation
	// is a lookup after the first run that needs the same artifact.
	// Dynamic runs execute unmodified binaries — that is the point of the
	// online competitor.
	spec := ImageSpec{
		Baseline: cfg.Mode == Baseline || cfg.Mode == Dynamic,
		Params:   cfg.Params, Typing: topts,
		ErrFrac: cfg.TypingError, ErrSeed: cfg.Seed ^ 0x5eed,
	}
	if cfg.Mode == Oracle {
		// The oracle is perfect knowledge by definition: injected clustering
		// error never reaches its images (OracleDecisions re-derives clean
		// typing and requires the mark types to match it).
		spec.ErrFrac = 0
	}
	a := &assembly{
		images: map[*workload.Benchmark]*exec.Image{},
		res:    &Result{Images: map[string]ImageStats{}, DurationSec: cfg.DurationSec},
	}
	// One placement engine serves the run: every runtime's Algorithm 2
	// decision is its Decide at the run's δ, and the engine-backed modes
	// claim capacity on it. Runtimes differ only in pinning versus
	// claiming: the static tuner claims under Tuning.Spill, and oracle
	// marks claim only when the run is contention-priced.
	eng := place.NewEngine(machine, cfg.Tuning.Delta, cfg.Placement)
	eng.SetTracer(cfg.Trace)
	var oracleEng *place.Engine
	oracleDecs := map[*exec.Image]map[phase.Type]place.Decision{}
	if cfg.Placement.Contention != nil {
		oracleEng = eng
	}
	benchGroups := [][]*workload.Benchmark{}
	if closed {
		benchGroups = cfg.Workload.Slots
	} else {
		benchGroups = append(benchGroups, cfg.Stream.Fleet)
	}
	for _, slot := range benchGroups {
		for _, b := range slot {
			if _, ok := a.images[b]; ok {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			art, cached, err := prepare(cfg.Cache, b.Prog, spec, cost)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: %w", b.Name(), err)
			}
			a.images[b] = art.Image
			a.res.Images[b.Name()] = art.Stats
			if cfg.Mode == Oracle {
				decs, err := online.OracleDecisions(art.Image, topts, cost, eng)
				if err != nil {
					return nil, fmt.Errorf("sim: oracle %s: %w", b.Name(), err)
				}
				oracleDecs[art.Image] = decs
			}
			if cfg.Events.OnImage != nil {
				cfg.Events.OnImage(b.Name(), art.Stats, cached)
			}
		}
	}

	kernel, err := osched.NewKernel(machine, cost, sched)
	if err != nil {
		return nil, err
	}
	a.kernel = kernel
	kernel.Trace = cfg.Trace
	kernel.Overcommit = open
	if cfg.Ledger {
		// Useful work is priced at the machine's fastest clock: the
		// counterfactual of perfect placement.
		a.col = ledger.NewCollector(len(machine.Cores), kernel.FastPs())
		kernel.Ledger = a.col
	}
	if cfg.CacheStats {
		kernel.EnableCacheStats()
	}
	var hybrid *online.Hybrid
	switch cfg.Mode {
	case Dynamic:
		a.monitor = online.NewManager(cfg.Online, eng, kernel.Hardware)
	case Hybrid:
		hybrid = online.NewHybrid(cfg.Online, eng, kernel.Hardware)
		a.monitor = hybrid
	}
	kernel.Monitor = a.monitor
	if cfg.Events.OnProgress != nil {
		onProgress := cfg.Events.OnProgress
		kernel.OnSample = func(k *osched.Kernel, atPs int64) {
			onProgress(osched.PsToSec(atPs))
		}
	}

	// The hook choice is per-process and mode-dependent; every driver
	// builds hooks through spawn.
	a.hook = func(k *osched.Kernel, img *exec.Image) exec.MarkHook {
		switch {
		case factory != nil:
			return factory(k, img)
		case cfg.Mode == Overhead:
			return tuning.AllCores(machine.AllMask())
		case cfg.Mode == Tuned:
			return tuning.NewTuner(cfg.Tuning, eng, k.Hardware, img)
		case cfg.Mode == Oracle:
			return online.NewOracleHook(machine, oracleEng, img, oracleDecs[img])
		case cfg.Mode == Hybrid:
			return hybrid.Hook(img)
		}
		return nil
	}
	return a, nil
}

// spawn admits one job of benchmark b: a process of its image, seeded with
// seed and carrying the mode's mark hook.
func (a *assembly) spawn(b *workload.Benchmark, seed uint64, slot int) *osched.Task {
	k := a.kernel
	img := a.images[b]
	p := exec.NewProcess(k.NextPID(), img, &k.Cost, seed, a.hook(k, img))
	return k.Spawn(p, b.Name(), slot, 0)
}

// taskStat is the run record of one task.
func taskStat(t *osched.Task) metrics.TaskStat {
	stat := metrics.TaskStat{
		Name:          t.Name,
		Slot:          t.Slot,
		ArrivalSec:    osched.PsToSec(t.ArrivalPs),
		CompletionSec: -1,
		Migrations:    t.Migrations,
		Instructions:  t.Proc.Counters.Instructions,
		Cycles:        t.Proc.Counters.Cycles,
		MarksExecuted: t.Proc.MarksExecuted,
		FinalAffinity: t.Affinity,
	}
	if t.State == osched.TaskExited {
		stat.CompletionSec = osched.PsToSec(t.CompletionPs)
	}
	return stat
}

// RunWithHookContext is RunContext with a custom per-process hook factory.
// A nil factory installs each mode's own hook (see assemble); a non-nil one
// overrides the choice (used by the temporal-adaptation baseline from the
// related-work ablation).
func RunWithHookContext(ctx context.Context, cfg RunConfig, factory HookFactory) (*Result, error) {
	a, err := assemble(ctx, cfg, factory)
	if err != nil {
		return nil, err
	}
	kernel, res := a.kernel, a.res
	if cfg.Stream == nil {
		// Per-slot queue positions; spawn the next job of a slot on
		// completion.
		positions := make([]int, cfg.Workload.NumSlots())
		seeds := rng.New(cfg.Seed)
		slotSeeds := make([]*rng.Source, cfg.Workload.NumSlots())
		for i := range slotSeeds {
			slotSeeds[i] = seeds.Split()
		}
		spawnNext := func(slot int) {
			q := cfg.Workload.Slots[slot]
			if positions[slot] >= len(q) {
				return // queue drained
			}
			b := q[positions[slot]]
			positions[slot]++
			a.spawn(b, slotSeeds[slot].Uint64(), slot)
		}
		kernel.OnExit = func(k *osched.Kernel, t *osched.Task) {
			if t.Slot >= 0 {
				spawnNext(t.Slot)
			}
		}
		for slot := range cfg.Workload.Slots {
			spawnNext(slot)
		}
	} else {
		// Open system: admit each arrival at its timestamp via a kernel
		// timer. Process seeds are drawn in arrival order from the run seed
		// and Slot records the arrival index, so compared policies run the
		// same jobs with the same branch seeds — the open-system analogue of
		// the paper's "the same queues were used for each experiment".
		seeds := rng.New(cfg.Seed)
		for i, arr := range cfg.Stream.Arrivals {
			b := cfg.Stream.Fleet[arr.Fleet]
			seed := seeds.Uint64()
			idx := i
			kernel.At(osched.SecToPs(arr.AtSec), func(k *osched.Kernel) {
				if cfg.Trace != nil {
					cfg.Trace.Instant("sim", "admit", trace.PidMachine, trace.TidKernel, k.NowPs(),
						trace.Arg{Key: "arrival", Value: idx},
						trace.Arg{Key: "name", Value: b.Name()})
				}
				a.spawn(b, seed, idx)
			})
		}
	}

	if cfg.Trace != nil {
		cfg.Trace.Instant("sim", "run.start", trace.PidMachine, trace.TidKernel, kernel.NowPs(),
			trace.Arg{Key: "mode", Value: cfg.Mode.String()},
			trace.Arg{Key: "machine", Value: kernel.Machine.Name},
			trace.Arg{Key: "duration_sec", Value: cfg.DurationSec},
			trace.Arg{Key: "seed", Value: cfg.Seed})
	}
	if kernel.RunCancellable(cfg.DurationSec, func() bool { return ctx.Err() != nil }) {
		return nil, ctx.Err()
	}
	if cfg.Trace != nil {
		cfg.Trace.Instant("sim", "run.end", trace.PidMachine, trace.TidKernel, kernel.NowPs(),
			trace.Arg{Key: "tasks", Value: len(kernel.Tasks())},
			trace.Arg{Key: "instructions", Value: kernel.TotalInstructions()})
	}

	for _, t := range kernel.Tasks() {
		if cfg.Trace != nil {
			// One lifetime span per task, emitted post-run so unfinished
			// tasks close at the horizon.
			endPs := t.CompletionPs
			done := t.State == osched.TaskExited
			if !done {
				endPs = kernel.NowPs()
			}
			cfg.Trace.Span("task", t.Name, trace.PidTasks, t.Proc.PID, t.ArrivalPs, endPs,
				trace.Arg{Key: "slot", Value: t.Slot},
				trace.Arg{Key: "migrations", Value: t.Migrations},
				trace.Arg{Key: "instructions", Value: t.Proc.Counters.Instructions},
				trace.Arg{Key: "done", Value: done})
		}
		res.Tasks = append(res.Tasks, taskStat(t))
	}
	for _, s := range kernel.Samples() {
		res.Samples = append(res.Samples, metrics.ThroughputSample{
			AtSec:        osched.PsToSec(s.AtPs),
			Instructions: s.Instructions,
		})
	}
	res.TotalInstructions = kernel.TotalInstructions()
	res.CounterDefers = kernel.Hardware.Defers()
	res.PeakRunnable = kernel.PeakLive()
	res.OvercommitSlices = kernel.OvercommitSlices()
	if a.monitor != nil {
		stats := a.monitor.Stats()
		res.Online = &stats
	}
	if a.col != nil {
		if res.Ledger, err = a.col.Finalize(kernel.NowPs()); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	res.CacheStats = kernel.CacheStats()
	return res, nil
}

// IsolationContext runs every suite benchmark alone on cfg's machine — a
// one-job closed workload run until the job exits — fanning the suite
// across workers goroutines (<=0 uses GOMAXPROCS), and returns the jobs'
// records in suite order: FlowSec is the isolation runtime (the t_j of
// max-stretch under Baseline) and Migrations Table 1's switch count (under
// Tuned). Runs are built like any other; cfg's Workload, Stream and
// DurationSec are ignored, and cfg.Mode must be Baseline or Tuned. Results
// are independent of the worker count: each run is a pure function of cfg
// and its benchmark.
func IsolationContext(ctx context.Context, cfg RunConfig, suite []*workload.Benchmark, workers int) ([]metrics.TaskStat, error) {
	if cfg.Mode != Baseline && cfg.Mode != Tuned {
		return nil, fmt.Errorf("sim: isolation runs baseline or tuned, not %v", cfg.Mode)
	}
	stats := make([]metrics.TaskStat, len(suite))
	err := ForEach(ctx, len(suite), workers, func(i int) error {
		b := suite[i]
		one := cfg
		one.Workload, one.Stream = &workload.Workload{Slots: [][]*workload.Benchmark{{b}}}, nil
		a, err := assemble(ctx, one, nil)
		if err != nil {
			return err
		}
		t := a.spawn(b, cfg.Seed^uint64(len(b.Name())), 0)
		if err := a.kernel.RunUntilDone(1e6); err != nil {
			return fmt.Errorf("sim: isolation %s: %w", b.Name(), err)
		}
		stats[i] = taskStat(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}
