// Package ledger is the conserved cycle-accounting subsystem: it decomposes
// every simulated core-picosecond into an exhaustive set of categories and
// proves to itself that nothing leaked (Verify). Where the tracer answers
// "what happened when", the ledger answers "where did the cycles go" — the
// white-box decomposition behind the paper's §V argument that tuning wins
// equal asymmetry exploited minus monitoring, misprediction, and migration
// overheads.
//
// The currency is int64 simulated picoseconds, the same unit as the kernel
// clock, so every charge is exact integer arithmetic. The accounting has
// two layers:
//
//   - per-step attribution (Work): the interpreter splits each executed
//     block into the time the block would have taken at the machine's
//     fastest clock (useful work) and the surplus burned by running on a
//     slower type (asymmetry loss — or capacity-spill loss when the
//     placement engine knowingly spilled the task off its chosen type).
//     The split leans on the cost model's one asymmetry source: DRAM
//     latency is wall-clock-fixed, so a step's memory picoseconds are the
//     same on every core type and only the compute portion rescales.
//     Phase-mark payloads are charged to their own category.
//   - per-burst attribution (Collector.Charge): the kernel charges the
//     scheduler-level costs it alone can see — migration and monitoring
//     penalties drained into the burst, context-switch cost (reclassified
//     as overcommit slicing when the proportional-share dispatcher
//     shortened the slice), and the task's queue wait before dispatch.
//
// Conservation is structural, not statistical: each burst's categories sum
// to exactly its wall-clock span because they are computed by distributing
// the burst's integer cycle count (elapsed = used × psPerCycle distributes
// over the integer summands of used), and each core's idle time is defined
// as the horizon minus its busy time. Σ categories == cores × horizon is
// therefore an integer identity, checked by Verify on every policy, both
// machines' run modes, and across the sharded fabric (the ledger is plain
// data inside Result, so byte-identical merge extends to it for free).
//
// The ledger is nil-safe and byte-identical-off, exactly like the tracer:
// a run with the ledger enabled produces the same Result bytes (once the
// Ledger field is stripped) as a run without it, because charge sites never
// read ledger state back.
package ledger

import (
	"fmt"
	"sort"
)

// PhaseUntyped marks work executed outside any phase: before the first
// phase mark, or by uninstrumented processes (baseline and dynamic modes).
const PhaseUntyped = -1

// Breakdown is one scope's cycle decomposition in simulated picoseconds.
// For per-core and total scopes the nine categories are exhaustive: they
// sum exactly to the scope's wall-clock span (Verify checks the integer
// identity). Per-task scopes have no idle; per-phase scopes carry only the
// step-attributable categories (useful, asymmetry, spill, marks).
type Breakdown struct {
	// UsefulPs is execution time at the machine's fastest clock: the time
	// the executed work would have cost with perfect placement.
	UsefulPs int64 `json:"useful_ps"`
	// AsymmetryPs is the surplus burned by running compute on a slower
	// core type than the fastest — the loss placement policies exist to
	// reclaim.
	AsymmetryPs int64 `json:"asymmetry_ps"`
	// SpillPs is asymmetry loss incurred while the placement engine had
	// knowingly spilled the task off its chosen type (capacity
	// arbitration), separating "policy chose wrong" from "policy chose
	// right but the type was full".
	SpillPs int64 `json:"spill_ps"`
	// MarksPs is phase-mark payload execution (the static technique's
	// distributed instrumentation cost).
	MarksPs int64 `json:"marks_ps"`
	// MonitorPs is monitoring overhead charged through Penalize (the
	// dynamic detector's and hybrid's per-window sampling cost).
	MonitorPs int64 `json:"monitor_ps"`
	// MigrationPs is core-switch cost (enqueue re-targets, mid-slice
	// migrations, balancer moves, external SetAffinity).
	MigrationPs int64 `json:"migration_ps"`
	// CtxSwitchPs is context-switch cost at full-slice boundaries.
	CtxSwitchPs int64 `json:"ctx_switch_ps"`
	// SlicingPs is context-switch cost on overcommit-shortened slices —
	// the time-multiplexing tax of the proportional-share dispatcher.
	SlicingPs int64 `json:"slicing_ps"`
	// IdlePs is core time with no burst in flight (horizon minus busy;
	// zero in per-task and per-phase scopes).
	IdlePs int64 `json:"idle_ps"`
}

// Categories lists the category names in display order, matching Values.
func Categories() []string {
	return []string{"useful", "asymmetry", "spill", "marks", "monitor",
		"migration", "ctx-switch", "slicing", "idle"}
}

// Values returns the breakdown's picosecond values in Categories order.
func (b Breakdown) Values() []int64 {
	return []int64{b.UsefulPs, b.AsymmetryPs, b.SpillPs, b.MarksPs,
		b.MonitorPs, b.MigrationPs, b.CtxSwitchPs, b.SlicingPs, b.IdlePs}
}

// Total returns the sum of every category including idle.
func (b Breakdown) Total() int64 {
	return b.BusyPs() + b.IdlePs
}

// BusyPs returns the sum of every category except idle.
func (b Breakdown) BusyPs() int64 {
	return b.UsefulPs + b.AsymmetryPs + b.SpillPs + b.MarksPs +
		b.MonitorPs + b.MigrationPs + b.CtxSwitchPs + b.SlicingPs
}

// add accumulates o into b.
func (b *Breakdown) add(o Breakdown) {
	b.UsefulPs += o.UsefulPs
	b.AsymmetryPs += o.AsymmetryPs
	b.SpillPs += o.SpillPs
	b.MarksPs += o.MarksPs
	b.MonitorPs += o.MonitorPs
	b.MigrationPs += o.MigrationPs
	b.CtxSwitchPs += o.CtxSwitchPs
	b.SlicingPs += o.SlicingPs
	b.IdlePs += o.IdlePs
}

// TaskLedger is one task's rollup, in spawn order. Queue time is not a
// core-cycle category (a queued task occupies no core) and is reported
// beside the breakdown: for a completed task, QueuePs plus the breakdown's
// busy sum equals its sojourn time exactly.
type TaskLedger struct {
	// PID is the kernel-assigned process ID.
	PID int `json:"pid"`
	// Name labels the task (benchmark name).
	Name string `json:"name"`
	// QueuePs is time spent queued waiting for dispatch (closed queue
	// intervals only: a wait still open at the horizon is not counted).
	QueuePs int64 `json:"queue_ps"`
	Breakdown
}

// PhaseLedger is one phase type's rollup across every task, carrying the
// step-attributable categories (scheduler-level costs are burst-scoped,
// not phase-scoped). Phase PhaseUntyped collects unphased work.
type PhaseLedger struct {
	// Phase is the phase type (PhaseUntyped for unphased work).
	Phase int `json:"phase"`
	Breakdown
}

// Ledger is a finalized run's complete accounting.
type Ledger struct {
	// HorizonPs is the accounting horizon: the latest instant any core's
	// burst or the kernel clock reached. Every core's categories sum to
	// exactly this span.
	HorizonPs int64 `json:"horizon_ps"`
	// Cores is the machine's core count.
	Cores int `json:"cores"`
	// Total is the machine-wide decomposition; it sums to
	// Cores × HorizonPs exactly.
	Total Breakdown `json:"total"`
	// PerCore is the per-core decomposition, indexed by core ID.
	PerCore []Breakdown `json:"per_core"`
	// PerTask is the per-task decomposition in spawn order.
	PerTask []TaskLedger `json:"per_task"`
	// PerPhase is the per-phase decomposition, sorted by phase.
	PerPhase []PhaseLedger `json:"per_phase"`
}

// Verify checks the conservation identities exactly (integer equality):
// every core's categories sum to the horizon, the total equals the sum of
// the cores (hence Cores × HorizonPs), the per-task busy time equals the
// machine's busy time, and the per-phase rollup equals the machine's
// step-attributed time.
func (l *Ledger) Verify() error {
	if l.Cores != len(l.PerCore) {
		return fmt.Errorf("ledger: %d cores but %d per-core rows", l.Cores, len(l.PerCore))
	}
	var sum Breakdown
	for i, c := range l.PerCore {
		if got := c.Total(); got != l.HorizonPs {
			return fmt.Errorf("ledger: core %d categories sum to %d ps, horizon is %d ps", i, got, l.HorizonPs)
		}
		sum.add(c)
	}
	if sum != l.Total {
		return fmt.Errorf("ledger: total %+v != per-core sum %+v", l.Total, sum)
	}
	if got, want := l.Total.Total(), int64(l.Cores)*l.HorizonPs; got != want {
		return fmt.Errorf("ledger: total %d ps != cores x horizon %d ps", got, want)
	}
	var taskBusy int64
	for _, t := range l.PerTask {
		if t.IdlePs != 0 {
			return fmt.Errorf("ledger: task %d carries idle time", t.PID)
		}
		taskBusy += t.BusyPs()
	}
	if taskBusy != l.Total.BusyPs() {
		return fmt.Errorf("ledger: per-task busy %d ps != machine busy %d ps", taskBusy, l.Total.BusyPs())
	}
	var phaseStep, coreStep int64
	for _, p := range l.PerPhase {
		phaseStep += p.UsefulPs + p.AsymmetryPs + p.SpillPs + p.MarksPs
	}
	coreStep = l.Total.UsefulPs + l.Total.AsymmetryPs + l.Total.SpillPs + l.Total.MarksPs
	if phaseStep != coreStep {
		return fmt.Errorf("ledger: per-phase step time %d ps != machine step time %d ps", phaseStep, coreStep)
	}
	return nil
}

// Segment is one uncommitted run of per-step attribution under a constant
// (phase, spilled) context, drained by the kernel at burst boundaries.
type Segment struct {
	// Phase is the phase type the steps executed in (PhaseUntyped before
	// the first mark).
	Phase int
	// Spilled reports whether the placement engine had spilled the task
	// off its chosen type while these steps ran.
	Spilled bool
	// ActualPs is block-body execution time at the current core's clock.
	ActualPs int64
	// IdealPs estimates the same work's cost at the fastest clock with
	// unchanged memory-stall time. Integer picoseconds, truncated per block
	// by the interpreter: per-block truncation makes the accumulated value
	// independent of how a run of steps is grouped, so a cost table prices
	// it once per block. It is clamped into [0, ActualPs] at charge time, so
	// conservation never depends on it.
	IdealPs int64
	// MarkPs is phase-mark payload time.
	MarkPs int64
}

// Work is a process's step-attribution accumulator. The interpreter adds
// each executed block's cost; the kernel drains accumulated segments when
// it charges the enclosing burst. Work never feeds back into execution, so
// attaching it cannot perturb a run.
type Work struct {
	fastPs  int64
	phase   int
	spilled bool
	segs    []Segment
}

// FastPs returns the machine's fastest per-cycle cost in picoseconds (the
// "native rate" useful work is priced at).
func (w *Work) FastPs() int64 { return w.fastPs }

// SetPhase records a phase boundary: subsequent steps attribute to phase.
func (w *Work) SetPhase(phase int) { w.phase = phase }

// SetSpilled records whether the placement engine currently holds the
// process off its chosen core type; subsequent asymmetry loss is charged
// to the spill category instead.
func (w *Work) SetSpilled(s bool) { w.spilled = s }

// seg returns the open segment for the current (phase, spilled) context.
func (w *Work) seg() *Segment {
	if n := len(w.segs); n > 0 {
		if s := &w.segs[n-1]; s.Phase == w.phase && s.Spilled == w.spilled {
			return s
		}
	}
	w.segs = append(w.segs, Segment{Phase: w.phase, Spilled: w.spilled})
	return &w.segs[len(w.segs)-1]
}

// Add charges one block body: actualPs at the current clock, idealPs the
// fastest-clock counterfactual (already truncated to integer picoseconds
// by the caller).
func (w *Work) Add(actualPs, idealPs int64) {
	s := w.seg()
	s.ActualPs += actualPs
	s.IdealPs += idealPs
}

// AddMark charges one phase-mark payload.
func (w *Work) AddMark(ps int64) {
	w.seg().MarkPs += ps
}

// Drain returns the accumulated segments and resets the accumulator. The
// returned slice is owned by the caller; hand it back with Recycle once
// charged to avoid reallocating every burst.
func (w *Work) Drain() []Segment {
	segs := w.segs
	w.segs = nil
	return segs
}

// Recycle returns a drained slice's storage to the accumulator so the next
// burst appends into it instead of allocating. Only hand back a slice the
// caller has finished reading.
func (w *Work) Recycle(segs []Segment) {
	if w.segs == nil && cap(segs) > 0 {
		w.segs = segs[:0]
	}
}

// Burst is one dispatch slice's ledger charge, assembled by the kernel.
type Burst struct {
	// Core is the core the burst ran on.
	Core int
	// PID is the running process.
	PID int
	// PsPerCycle is the core's cycle cost.
	PsPerCycle int64
	// StartPs and EndPs bound the burst's wall-clock span.
	StartPs, EndPs int64
	// QueuePs is how long the task waited queued before this dispatch.
	QueuePs int64
	// MigrateCycles and MonitorCycles split the task's drained penalty
	// cycles into migration tax and monitoring overhead.
	MigrateCycles, MonitorCycles int64
	// CtxCycles is the context-switch charge of this burst.
	CtxCycles int64
	// Sliced reports an overcommit-shortened slice: the context-switch
	// charge reclassifies as slicing tax.
	Sliced bool
	// Segs is the process's drained step attribution.
	Segs []Segment
}

// Collector accumulates charges during a run and finalizes into a Ledger.
// It is single-writer by construction (the kernel's event loop), so it
// needs no locking, and charge order is deterministic, so two runs of the
// same configuration build byte-identical ledgers.
type Collector struct {
	fastPs  int64
	cores   []Breakdown
	coreEnd []int64
	tasks   []TaskLedger
	taskIdx map[int]int
	phases  map[int]*Breakdown
}

// NewCollector creates a collector for a machine with the given core count
// and fastest per-cycle cost in picoseconds.
func NewCollector(cores int, fastPs int64) *Collector {
	return &Collector{
		fastPs:  fastPs,
		cores:   make([]Breakdown, cores),
		coreEnd: make([]int64, cores),
		taskIdx: map[int]int{},
		phases:  map[int]*Breakdown{},
	}
}

// Work returns a fresh step-attribution accumulator for a process.
func (c *Collector) Work() *Work {
	return &Work{fastPs: c.fastPs, phase: PhaseUntyped}
}

// AddTask registers a task at spawn so per-task rows come out in spawn
// order regardless of charge order.
func (c *Collector) AddTask(pid int, name string) {
	c.taskIdx[pid] = len(c.tasks)
	c.tasks = append(c.tasks, TaskLedger{PID: pid, Name: name})
}

// phase returns the rollup row for a phase type.
func (c *Collector) phase(p int) *Breakdown {
	b, ok := c.phases[p]
	if !ok {
		b = &Breakdown{}
		c.phases[p] = b
	}
	return b
}

// Charge books one burst. The burst's categories sum exactly to
// EndPs − StartPs when the process carried a Work accumulator; a process
// without one (kernel-level tests) charges its step time wholly to the
// useful category so conservation still holds.
func (c *Collector) Charge(b Burst) {
	var d Breakdown
	d.MigrationPs = b.MigrateCycles * b.PsPerCycle
	d.MonitorPs = b.MonitorCycles * b.PsPerCycle
	ctxPs := b.CtxCycles * b.PsPerCycle
	if b.Sliced {
		d.SlicingPs = ctxPs
	} else {
		d.CtxSwitchPs = ctxPs
	}
	for _, s := range b.Segs {
		useful := s.IdealPs
		if useful > s.ActualPs {
			useful = s.ActualPs
		}
		if useful < 0 {
			useful = 0
		}
		loss := s.ActualPs - useful
		d.UsefulPs += useful
		if s.Spilled {
			d.SpillPs += loss
		} else {
			d.AsymmetryPs += loss
		}
		d.MarksPs += s.MarkPs

		ph := c.phase(s.Phase)
		ph.UsefulPs += useful
		if s.Spilled {
			ph.SpillPs += loss
		} else {
			ph.AsymmetryPs += loss
		}
		ph.MarksPs += s.MarkPs
	}
	// A Work-less process's step time is unattributed; book the residual
	// as unphased useful work so the burst still tiles its span.
	if residual := (b.EndPs - b.StartPs) - d.BusyPs(); residual > 0 {
		d.UsefulPs += residual
		c.phase(PhaseUntyped).UsefulPs += residual
	}

	c.cores[b.Core].add(d)
	if b.EndPs > c.coreEnd[b.Core] {
		c.coreEnd[b.Core] = b.EndPs
	}
	if i, ok := c.taskIdx[b.PID]; ok {
		c.tasks[i].add(d)
		c.tasks[i].QueuePs += b.QueuePs
	}
}

// Finalize closes the accounting at the later of nowPs and the last burst
// end (bursts dispatched before the horizon may end after it) and returns
// the run's ledger. The collector can keep accumulating afterwards, but a
// typical run finalizes once.
func (c *Collector) Finalize(nowPs int64) *Ledger {
	horizon := nowPs
	for _, end := range c.coreEnd {
		if end > horizon {
			horizon = end
		}
	}
	l := &Ledger{
		HorizonPs: horizon,
		Cores:     len(c.cores),
		PerCore:   make([]Breakdown, len(c.cores)),
		PerTask:   append([]TaskLedger(nil), c.tasks...),
	}
	for i, core := range c.cores {
		core.IdlePs = horizon - core.BusyPs()
		l.PerCore[i] = core
		l.Total.add(core)
	}
	phases := make([]int, 0, len(c.phases))
	for p := range c.phases {
		phases = append(phases, p)
	}
	sort.Ints(phases)
	for _, p := range phases {
		l.PerPhase = append(l.PerPhase, PhaseLedger{Phase: p, Breakdown: *c.phases[p]})
	}
	return l
}
