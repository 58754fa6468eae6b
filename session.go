package phasetune

import (
	"context"
	"fmt"
	"sync"

	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// Policy names a placement policy — the axis of the paper's central
// comparison (§I, §V). Its String form is the one policy name used by
// RunSpec, the experiment columns, and the command-line tools; the zero
// value is PolicyNone.
type Policy = sim.Policy

// Placement policies (RunSpec.Policy).
const (
	// PolicyNone runs unmodified binaries under the stock asymmetry-unaware
	// scheduler (the baseline).
	PolicyNone = sim.PolicyNone
	// PolicyStatic runs instrumented binaries with the paper's static phase
	// marks and the Algorithm 2 runtime.
	PolicyStatic = sim.PolicyStatic
	// PolicyStaticSpill is PolicyStatic with capacity-aware spill
	// arbitration through the shared placement engine.
	PolicyStaticSpill = sim.PolicyStaticSpill
	// PolicyDynamicGreedy runs unmodified binaries under the online phase
	// detector with greedy IPC-rank placement.
	PolicyDynamicGreedy = sim.PolicyDynamicGreedy
	// PolicyDynamicProbe runs unmodified binaries under the online phase
	// detector, probing each detected phase on every core type and fixing
	// its placement with Algorithm 2.
	PolicyDynamicProbe = sim.PolicyDynamicProbe
	// PolicyHybrid runs instrumented binaries under the marks+windows
	// hybrid: marks define phase boundaries, monitor windows keep the
	// per-phase IPC estimates fresh.
	PolicyHybrid = sim.PolicyHybrid
	// PolicyHybridDamped is PolicyHybrid with re-decision drift damping.
	PolicyHybridDamped = sim.PolicyHybridDamped
	// PolicyOracle runs instrumented binaries with perfect-knowledge
	// placement — the upper bound the other policies chase.
	PolicyOracle = sim.PolicyOracle
	// PolicyOverhead runs instrumented binaries in all-cores mode, so
	// marks cost time but never move a process (Fig. 4's methodology).
	PolicyOverhead = sim.PolicyOverhead
)

// ParsePolicy resolves a policy name (the String form, as accepted by
// cmd/ampsim -policy and cmd/runcmp -a/-b).
func ParsePolicy(s string) (Policy, error) { return sim.ParsePolicy(s) }

// Session is a configured simulation environment: machine, cost model,
// typing and tuning defaults, a shared artifact cache, and a
// worker budget. Sessions are cheap to create, and one session can execute
// any number of runs and sweeps — every image prepared along the way lands
// in the session cache and is reused by later runs, so a 15-benchmark
// workload is instrumented once per technique across an entire campaign.
//
// A Session is safe for concurrent use.
type Session struct {
	machine   *Machine
	cost      CostModel
	typing    TypingOptions
	tuning    TuningConfig
	online    OnlineConfig
	placement PlacementConfig
	cache     *ImageCache
	workers   int
	events    Events
	tracer    *Tracer
	ledger    bool

	// suiteOnce lazily generates the benchmark suite for (cost, machine),
	// shared by every run whose spec describes its workload as Queues.
	suiteOnce sync.Once
	suite     []*Benchmark
	suiteErr  error
}

// Events holds optional per-run observation hooks (see sim.Events).
type Events = sim.Events

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithMachine sets the hardware (default: the paper's quad AMP).
func WithMachine(m *Machine) SessionOption { return func(s *Session) { s.machine = m } }

// WithCost sets the cost model (default: DefaultCost).
func WithCost(c CostModel) SessionOption { return func(s *Session) { s.cost = c } }

// WithTyping sets the static typing options (default: DefaultTyping).
func WithTyping(t TypingOptions) SessionOption {
	return func(s *Session) { s.typing = t.Normalized() }
}

// WithTuning sets the runtime tuning configuration of every run (default:
// DefaultTuning).
func WithTuning(t TuningConfig) SessionOption { return func(s *Session) { s.tuning = t } }

// WithOnline sets the online-detector configuration used by the dynamic
// and hybrid policies (default: DefaultOnline); the policy sets its
// reassignment rule and drift threshold.
func WithOnline(c OnlineConfig) SessionOption { return func(s *Session) { s.online = c } }

// WithPlacement sets the shared-placement-engine configuration —
// contention pricing on or off (default: unpriced) — used by every
// engine-backed policy (Policy.EngineBacked).
func WithPlacement(c PlacementConfig) SessionOption { return func(s *Session) { s.placement = c } }

// WithCache shares an existing artifact cache (default: a fresh cache).
// Pass the same cache to several sessions to share prepared images across
// machines — images depend only on program content and the cost model.
func WithCache(c *ImageCache) SessionOption { return func(s *Session) { s.cache = c } }

// WithWorkers bounds the sweep worker pool (default: GOMAXPROCS).
func WithWorkers(n int) SessionOption { return func(s *Session) { s.workers = n } }

// WithEvents installs per-run progress hooks.
func WithEvents(e Events) SessionOption { return func(s *Session) { s.events = e } }

// WithTrace attaches a deterministic event tracer to the session's runs:
// scheduler bursts, placement decisions with their rationale, online
// window closes, mark boundaries, and per-task lifetime spans, stamped in
// simulated time. Tracing never perturbs a run — a traced run's Result is
// bit-identical to an untraced one. Export with Tracer.WriteFile
// (Chrome/Perfetto trace-event JSON) or Tracer.Summary (plain text).
//
// One tracer should observe one run at a time: concurrent sweep runs
// sharing a tracer interleave their events nondeterministically, so
// attach a tracer to sessions used for single Run calls.
func WithTrace(tr *Tracer) SessionOption { return func(s *Session) { s.tracer = tr } }

// WithLedger enables conserved cycle accounting on the session's runs: each
// RunResult carries a Ledger decomposing every simulated core-picosecond
// into useful work, asymmetry and spill loss, instrumentation taxes, and
// idle time, with per-core/per-task/per-phase rollups that sum exactly to
// cores × horizon (Ledger.Verify). Like tracing, accounting never perturbs
// a run — an accounted run's Result is bit-identical to an unaccounted one
// once the Ledger field is stripped.
func WithLedger() SessionOption { return func(s *Session) { s.ledger = true } }

// NewSession builds a session from functional options:
//
//	sess := phasetune.NewSession(
//	    phasetune.WithMachine(phasetune.QuadAMP()),
//	    phasetune.WithTuning(phasetune.DefaultTuning()),
//	)
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		machine: QuadAMP(),
		cost:    DefaultCost(),
		typing:  DefaultTyping(),
		tuning:  DefaultTuning(),
		online:  DefaultOnline(),
		cache:   NewImageCache(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Cache returns the session's artifact cache (for stats or sharing).
func (s *Session) Cache() *ImageCache { return s.cache }

// CacheStats reports the session cache's hit/miss counters.
func (s *Session) CacheStats() CacheStats { return s.cache.Stats() }

// RunSpec configures one run within a session; the session supplies every
// configuration the run shares with its siblings.
type RunSpec struct {
	// Workload supplies the slot queues. Exactly one of Workload and
	// Queues must be set; Workload wins when both are.
	Workload *Workload
	// Queues describes the workload by its construction parameters
	// (slots, queue length, seed) instead of a built queue set; the
	// session builds it against its own suite. Queues-based specs are
	// serializable, which is what the distributed fabric (Serve) requires.
	Queues *WorkloadSpec
	// Arrivals switches the run to the open-system serving form: instead of
	// constant-size slot queues, jobs from the serving fleet arrive under
	// the described process (Poisson, bursty, diurnal) and the run reports
	// per-job sojourn times. Mutually exclusive with Workload and Queues;
	// Seed drives both the arrival schedule and per-job process seeds.
	// Arrivals-based specs are serializable, so they shard (Serve) like
	// Queues-based ones. Every arrivals run uses the scheduler's overcommit
	// dispatcher, so oversubscribed core types time-multiplex fractional
	// shares instead of starving the run queue tail.
	Arrivals *ArrivalSpec
	// DurationSec is the run length in simulated seconds. For arrivals
	// runs, keep it comfortably past ArrivalSpec.HorizonSec so admitted
	// jobs can drain.
	DurationSec float64
	// Policy selects the placement policy (default PolicyNone).
	Policy Policy
	// Params is the marking technique, used by instrumented policies
	// (static, hybrid, oracle, overhead). Zero Params default to BestParams.
	Params TechniqueParams
	// TypingError injects clustering error (Fig. 7 methodology).
	TypingError float64
	// Seed drives workload process seeds and error injection.
	Seed uint64
}

// Suite returns the benchmark suite for the session's cost model and
// machine, generated once per session and reused. Queues-based run specs
// build their workloads against it.
func (s *Session) Suite() ([]*Benchmark, error) {
	s.suiteOnce.Do(func() {
		s.suite, s.suiteErr = workload.Suite(s.cost, s.machine)
	})
	return s.suite, s.suiteErr
}

// env is the session environment in wire form: what every run of the
// session is lowered onto, locally or on a fabric worker.
func (s *Session) env() dist.EnvSpec {
	return dist.EnvSpec{Version: dist.SpecVersion, Machine: *s.machine, Cost: s.cost,
		Typing: s.typing, Ledger: s.ledger}
}

// wireSpec is the one lowering of a run spec onto the fabric's wire form:
// it takes the session's tuning, online and placement configurations,
// lowers the policy onto them (sim.Policy.Lower), and folds Arrivals into
// the workload description. Local runs and fabric campaigns both go through
// it, which is why a fabric's merged output is byte-identical to a local
// Sweep. A built Workload has no wire form; its Spec carries zero Queues.
func (s *Session) wireSpec(spec RunSpec) (dist.Spec, error) {
	queues := spec.Queues
	if spec.Arrivals != nil {
		if spec.Workload != nil || queues != nil {
			return dist.Spec{}, fmt.Errorf("phasetune: RunSpec.Arrivals is mutually exclusive with Workload and Queues")
		}
		queues = &WorkloadSpec{Seed: spec.Seed, Arrivals: spec.Arrivals}
	}
	if spec.Workload == nil && queues == nil {
		return dist.Spec{}, ErrNeedQueues
	}
	if spec.Policy < PolicyNone || spec.Policy > PolicyOverhead {
		return dist.Spec{}, fmt.Errorf("phasetune: unknown %s", spec.Policy)
	}
	sp := dist.Spec{
		DurationSec: spec.DurationSec, Params: spec.Params,
		Tuning: s.tuning, Online: s.online, Placement: s.placement,
		TypingError: spec.TypingError, Seed: spec.Seed,
	}
	if spec.Workload == nil {
		sp.Queues = *queues
	}
	sp.Mode = spec.Policy.Lower(&sp.Params, &sp.Tuning, &sp.Online)
	return sp, nil
}

// runConfig lowers a spec onto the session environment through the wire
// form, exactly as a fabric worker does, then attaches the session's
// process-local observers. Only a built Workload skips
// materialization, and only suite-drawn workloads generate the suite.
func (s *Session) runConfig(spec RunSpec) (sim.RunConfig, error) {
	sp, err := s.wireSpec(spec)
	if err != nil {
		return sim.RunConfig{}, err
	}
	var cfg sim.RunConfig
	if spec.Workload != nil {
		cfg = s.env().BuiltRunConfig(sp, spec.Workload, s.cache)
	} else {
		var suite []*Benchmark
		if q := sp.Queues; q.Arrivals == nil && q.Alternations <= 0 && q.Fleet == "" {
			if suite, err = s.Suite(); err != nil {
				return sim.RunConfig{}, err
			}
		}
		if cfg, err = s.env().RunConfig(sp, suite, s.cache); err != nil {
			return sim.RunConfig{}, err
		}
	}
	cfg.Events, cfg.Trace = s.events, s.tracer
	return cfg, nil
}

// RunContext executes one run with cancellation: the simulation polls ctx
// as it advances and returns ctx.Err() if it fires mid-run. Identical specs
// on identical sessions give bit-identical results, whether or not the
// session cache already holds the images.
func (s *Session) RunContext(ctx context.Context, spec RunSpec) (*RunResult, error) {
	cfg, err := s.runConfig(spec)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, cfg)
}

// Run is RunContext without cancellation.
func (s *Session) Run(spec RunSpec) (*RunResult, error) {
	return s.RunContext(context.Background(), spec)
}

// Instrument prepares one program's image under the session environment,
// through the session cache.
func (s *Session) Instrument(p *Program, params TechniqueParams) (*Artifact, error) {
	return s.cache.Get(p, ImageSpec{Params: params, Typing: s.typing}, s.cost)
}

// MeasureIPC runs the program to completion alone on each of the session
// machine's core types (no instrumentation) and returns the measured IPC
// per type — the signal Algorithm 2 consumes. Each type runs on its first
// core with the full share of that core's L2 group, as the scheduler
// prices it. The image is prepared through the session cache; seed drives
// branch outcomes, so equal seeds give bit-identical measurements.
func (s *Session) MeasureIPC(p *Program, seed uint64) ([]float64, error) {
	art, err := s.cache.Get(p, ImageSpec{Baseline: true}, s.cost)
	if err != nil {
		return nil, err
	}
	cost, m := s.cost, s.machine
	pars := exec.ParamsFor(cost, m)
	ipcs := make([]float64, len(pars))
	for t := range pars {
		coreID := 0
		if ids := m.CoresOfType(pars[t].Type); len(ids) > 0 {
			coreID = ids[0]
		}
		proc := exec.NewProcess(1, art.Image, &cost, seed, nil)
		es := perfcnt.Start(&proc.Counters)
		proc.RunIsolated(&pars[t], coreID, m.L2s[m.Cores[coreID].L2].SizeKB, 0)
		instrs, cycles := es.Stop(&proc.Counters)
		ipcs[t] = perfcnt.IPC(instrs, cycles)
	}
	return ipcs, nil
}
