// Package phasetune is a library reproduction of "Phase-based tuning for
// better utilization of performance-asymmetric multicore processors"
// (Sondag & Rajan, CGO 2011).
//
// It provides the complete stack the paper builds and evaluates on:
//
//   - a synthetic program representation with a structured builder
//     (NewProgram), standing in for the x86 binaries the paper instruments;
//   - the static phase-transition analysis: basic-block typing by k-means
//     over instruction-mix and reuse-distance features, Allen-interval and
//     inter-procedural loop summarization (the paper's Algorithm 1), and
//     transition marking with minimum-size and lookahead filters;
//   - a binary instrumenter that places phase marks (≤78 bytes each) inline
//     on fallthrough edges and in jump stubs on taken edges;
//   - a performance-asymmetric multicore simulator: frequency-asymmetric
//     cores sharing L2 caches, an O(1)-style scheduler with affinity, and
//     virtualized performance counters;
//   - the dynamic tuning runtime: representative-section IPC monitoring and
//     the paper's Algorithm 2 section-to-core assignment (Select);
//   - the paper's benchmark-suite personalities, workload construction,
//     metrics (throughput, max-flow, max-stretch, average process time),
//     and one experiment driver per table and figure in the evaluation.
//
// The public API is organized around three layers:
//
//   - the staged static pipeline (Analyze -> Analysis.Instrument) producing
//     cacheable Artifact values, with a content-keyed ImageCache so repeated
//     preparations of the same (program, technique, typing) are free;
//   - Session, a configured environment built with functional options
//     (NewSession(WithMachine(...), WithCost(...), ...)) whose RunContext
//     executes one cancellable run through the session cache, under a
//     selectable placement Policy — none, the paper's static marks, the
//     online dynamic detector, the marks+windows hybrid, or the
//     perfect-knowledge oracle;
//   - Session.Sweep, which fans a grid of RunSpecs across a bounded worker
//     pool with deterministic, input-ordered results;
//   - the distributed sweep fabric (Serve, Work, and the cmd/sweepd
//     binary), which shards a campaign of serializable specs
//     (RunSpec.Queues) across worker processes — leases, heartbeats, crash
//     re-dispatch — and merges results byte-identically to a
//     single-process Sweep.
//
// The quickest way in:
//
//	suite, _ := phasetune.Suite()
//	w := phasetune.NewWorkload(suite, 18, 256, 1)
//	sess := phasetune.NewSession()
//	results, _ := sess.Sweep(ctx, []phasetune.RunSpec{
//	    {Workload: w, DurationSec: 400, Seed: 7, Policy: phasetune.PolicyNone},
//	    {Workload: w, DurationSec: 400, Seed: 7, Policy: phasetune.PolicyStatic},
//	})
//
// A Policy is one named choice — none, static, static/spill,
// dynamic/greedy, dynamic/probe, hybrid, hybrid/damped, oracle, or
// overhead — and the only policy input a run has (ParsePolicy reads the
// names).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package phasetune

import (
	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/experiments"
	"phasetune/internal/instrument"
	"phasetune/internal/ledger"
	"phasetune/internal/metrics"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/prog"
	"phasetune/internal/serve"
	"phasetune/internal/sim"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// Program construction.
type (
	// Program is a synthetic program image (the analog of a binary).
	Program = prog.Program
	// ProgramBuilder builds programs from structured control flow.
	ProgramBuilder = prog.Builder
	// ProcBuilder builds one procedure.
	ProcBuilder = prog.ProcBuilder
	// BlockMix specifies a straight-line instruction mix.
	BlockMix = prog.BlockMix
)

// NewProgram starts building a program.
func NewProgram(name string) *ProgramBuilder { return prog.NewBuilder(name) }

// Machines and cost model.
type (
	// Machine describes an asymmetric multicore.
	Machine = amp.Machine
	// CostModel fixes shared microarchitectural constants.
	CostModel = exec.CostModel
	// SchedulerConfig holds OS scheduler constants.
	SchedulerConfig = osched.Config
)

// QuadAMP returns the paper's evaluation machine: 2x2.4 GHz + 2x1.6 GHz,
// same-frequency pairs sharing an L2.
func QuadAMP() *Machine { return amp.Quad2Fast2Slow() }

// ThreeCoreAMP returns the paper's future-work machine: 2 fast + 1 slow.
func ThreeCoreAMP() *Machine { return amp.ThreeCore2Fast1Slow() }

// TriTypeAMP returns the three-type big/medium/little machine (2+2+2
// cores) — the §VI-C generalization beyond two core types.
func TriTypeAMP() *Machine { return amp.Hex2Big2Medium2Little() }

// SymmetricMachine returns an n-core symmetric control machine.
func SymmetricMachine(n int, ghz float64) *Machine { return amp.Symmetric(n, ghz) }

// DefaultCost returns the calibrated cost model.
func DefaultCost() CostModel { return exec.DefaultCostModel() }

// DefaultScheduler returns the scheduler configuration used by the
// experiments.
func DefaultScheduler() SchedulerConfig { return osched.DefaultConfig() }

// Static analysis and instrumentation.
type (
	// TechniqueParams selects a marking technique and its parameters.
	TechniqueParams = transition.Params
	// TypingOptions configures static block typing.
	TypingOptions = phase.Options
	// Binary is an instrumented program image.
	Binary = instrument.Binary
	// Image is an executable (optionally instrumented) program.
	Image = exec.Image
	// ImageStats summarizes instrumentation of one program.
	ImageStats = sim.ImageStats
)

// Technique constants (the paper's three granularities).
const (
	// BasicBlock is the BB[minSize, lookahead] family.
	BasicBlock = transition.BasicBlock
	// Interval is the Int[minSize] family.
	Interval = transition.Interval
	// Loop is the Loop[minSize] family.
	Loop = transition.Loop
)

// BestParams returns the paper's best variant, Loop[45].
func BestParams() TechniqueParams { return sim.BestParams() }

// DefaultTyping returns the standard typing options (k = 2 phase types).
func DefaultTyping() TypingOptions { return phase.Options{K: 2, MinBlockInstrs: 5} }

// Dynamic tuning.
type (
	// TuningConfig parameterizes the static-mark runtime (δ threshold,
	// sampling).
	TuningConfig = tuning.Config
	// OnlineConfig parameterizes the online phase detector (window size,
	// tick period, classification threshold) used by the dynamic and
	// hybrid policies; the policy sets its reassignment rule and drift
	// threshold.
	OnlineConfig = online.Config
	// OnlineStats reports what the online detector did during a run
	// (windows sampled, monitoring cycles charged, switches); see
	// RunResult.Online.
	OnlineStats = online.Stats
	// PlacementConfig parameterizes the shared placement engine's capacity
	// arbitration (spill band, hysteresis) — the unified Algorithm-2/
	// capacity core every placement policy funnels through
	// (internal/place).
	PlacementConfig = place.Config
	// ContentionConfig prices shared-L2 occupancy and DRAM bandwidth into
	// the engine's arbitration (PlacementConfig.Contention). Nil — the
	// default — keeps every placement bit-identical to unpriced builds.
	ContentionConfig = place.ContentionConfig
)

// DefaultTuning returns the headline tuning configuration.
func DefaultTuning() TuningConfig { return tuning.DefaultConfig() }

// DefaultOnline returns the online detector's showdown operating point.
func DefaultOnline() OnlineConfig { return online.DefaultConfig() }

// DefaultPlacement returns the placement engine's default arbitration
// parameters (spill band 1, hysteresis 5%).
func DefaultPlacement() PlacementConfig { return place.DefaultConfig() }

// Select is the paper's Algorithm 2: choose the core type for a phase given
// per-type measured IPC and threshold delta. The single implementation
// lives in the unified placement engine (internal/place).
func Select(m *Machine, ipcPerType []float64, delta float64) amp.CoreTypeID {
	return place.Select(m, ipcPerType, delta)
}

// Workloads and simulation.
type (
	// Benchmark is a generated suite member.
	Benchmark = workload.Benchmark
	// Workload is a constant-size slot-queue workload.
	Workload = workload.Workload
	// WorkloadSpec describes a workload by its construction parameters
	// (slots, queue length, seed) — the serializable identity a session
	// resolves against its own suite. Distributed sweeps require it.
	WorkloadSpec = workload.Spec
	// RunResult is the outcome of a run.
	RunResult = sim.Result
	// TaskStat is one job's record.
	TaskStat = metrics.TaskStat
)

// Suite generates the 15 SPEC-like benchmark personalities of the paper's
// Table 1 on the default machine and cost model.
func Suite() ([]*Benchmark, error) {
	return workload.Suite(exec.DefaultCostModel(), amp.Quad2Fast2Slow())
}

// SuiteFor generates the suite for a specific machine and cost model.
func SuiteFor(cost CostModel, m *Machine) ([]*Benchmark, error) {
	return workload.Suite(cost, m)
}

// NewWorkload draws a slot-queue workload from the suite (the paper's
// §IV-A2 construction). The same seed always yields the same queues.
func NewWorkload(suite []*Benchmark, slots, queueLen int, seed uint64) *Workload {
	return workload.BuildWorkload(suite, slots, queueLen, seed)
}

// Metrics.

// AvgProcessTime returns the mean flow time of completed jobs.
func AvgProcessTime(tasks []TaskStat) float64 { return metrics.AvgProcessTime(tasks) }

// MaxFlow returns the longest flow time (Bender et al. fairness metric).
func MaxFlow(tasks []TaskStat) float64 { return metrics.MaxFlow(tasks) }

// MaxStretch returns the largest flow/isolation ratio.
func MaxStretch(tasks []TaskStat, isolationSec map[string]float64) (float64, error) {
	return metrics.MaxStretch(tasks, isolationSec)
}

// Open-system serving.
type (
	// ArrivalSpec describes an open-system arrival process (kind, rate,
	// horizon); set it on RunSpec.Arrivals to run a serving workload.
	ArrivalSpec = workload.ArrivalSpec
	// ArrivalKind selects the arrival process family.
	ArrivalKind = workload.ArrivalKind
	// OvercommitConfig configures the scheduler's proportional-share
	// overcommit dispatcher (see WithOvercommit).
	OvercommitConfig = osched.OvercommitConfig
	// ServingStats summarizes a serving run: admission/completion counts,
	// exact sojourn quantiles, and overcommit evidence.
	ServingStats = serve.Stats
	// Tracer is the deterministic event sink attached with WithTrace: it
	// records spans, instants, and counter tracks stamped in simulated
	// time and exports Chrome/Perfetto trace-event JSON (WriteFile /
	// WriteJSON) or a plain-text timeline (Summary). A nil *Tracer is the
	// disabled state; tracing never perturbs a run.
	Tracer = trace.Tracer
)

// NewTracer returns an enabled run tracer (see WithTrace).
func NewTracer() *Tracer { return trace.New() }

// Cycle accounting.
type (
	// Ledger is a run's conserved cycle accounting (RunResult.Ledger,
	// enabled with WithLedger): the machine's total core time decomposed
	// into exhaustive categories with per-core, per-task, and per-phase
	// rollups, summing exactly to cores × horizon (Ledger.Verify).
	Ledger = ledger.Ledger
	// LedgerBreakdown is one accounting scope's category decomposition in
	// simulated picoseconds.
	LedgerBreakdown = ledger.Breakdown
)

// LedgerCategories lists the accounting category names in display order,
// matching LedgerBreakdown.Values.
func LedgerCategories() []string { return ledger.Categories() }

// Arrival process kinds (ArrivalSpec.Kind).
const (
	// ArrivalPoisson is a homogeneous Poisson process.
	ArrivalPoisson = workload.Poisson
	// ArrivalBursty is a Markov-modulated on/off process: quiet floor,
	// burst spikes, same long-run rate.
	ArrivalBursty = workload.Bursty
	// ArrivalDiurnal is a sinusoidally-modulated rate (a compressed
	// day/night trace), realized by thinning.
	ArrivalDiurnal = workload.Diurnal
)

// ParseArrivalKind resolves an arrival-kind name (as accepted by
// cmd/ampsim -arrivals).
func ParseArrivalKind(s string) (ArrivalKind, error) { return workload.ParseArrivalKind(s) }

// MachineCapacity returns the machine's processing rate in fast-core
// equivalents — the denominator of "offered load 1.0×".
func MachineCapacity(m *Machine) float64 { return serve.Capacity(m) }

// ServingArrivals builds the arrival spec realizing a load multiple of
// machine capacity over an admission horizon, against the serving fleet's
// mean service time. Run it with DurationSec comfortably past horizonSec.
func ServingArrivals(m *Machine, kind ArrivalKind, load, horizonSec float64) ArrivalSpec {
	return serve.Arrivals(m, kind, load, horizonSec)
}

// SummarizeServing condenses a serving run result into latency statistics.
func SummarizeServing(res *RunResult) ServingStats { return serve.Summarize(res) }

// SojournTimes returns completed jobs' sojourn (flow) times in seconds, the
// sample stream serving quantiles are computed over.
func SojournTimes(tasks []TaskStat) []float64 { return metrics.SojournTimes(tasks) }

// Quantile returns the exact nearest-rank q-quantile of xs (NaN when
// empty); Quantiles computes several at once, sorting only once.
func Quantile(xs []float64, q float64) float64 { return metrics.Quantile(xs, q) }

// Quantiles returns exact nearest-rank quantiles of xs at each q.
func Quantiles(xs []float64, qs ...float64) []float64 { return metrics.Quantiles(xs, qs...) }

// Experiments.
type (
	// ExperimentConfig is the shared experiment environment.
	ExperimentConfig = experiments.Config
)

// DefaultExperiments returns the configuration behind EXPERIMENTS.md.
func DefaultExperiments() (ExperimentConfig, error) { return experiments.Default() }
