// Package osched simulates the operating-system layer: per-core run queues,
// fixed time slices, periodic load balancing, and the process-affinity API.
//
// The baseline scheduler mirrors what the paper compares against — the stock
// Linux 2.6.22 O(1) scheduler (§IV-A1): strictly asymmetry-unaware, it
// balances run-queue lengths across cores and otherwise leaves processes
// where they are. Phase-based tuning runs *on top of* this scheduler, just
// as in the paper: instrumented processes call the affinity API from their
// phase marks, and the kernel honors affinity masks at enqueue, dispatch,
// and balance time. Core switches cost ~1000 cycles (paper §IV-B3).
//
// The simulation is discrete-event: each core processes run bursts (up to
// one time slice of basic-block steps), and balancing/sampling fire on their
// own periodic events. Time is int64 picoseconds; every run is a
// deterministic function of its inputs.
package osched

import (
	"fmt"
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/ledger"
	"phasetune/internal/perfcnt"
	"phasetune/internal/trace"
)

// PsPerSec converts simulated seconds to picoseconds.
const PsPerSec = 1e12

// SecToPs converts seconds to picoseconds, saturating at half the int64
// range so arithmetic on horizons cannot overflow.
func SecToPs(s float64) int64 {
	const maxPs = math.MaxInt64 / 2
	ps := s * PsPerSec
	if ps >= maxPs {
		return maxPs
	}
	return int64(ps)
}

// PsToSec converts picoseconds to seconds.
func PsToSec(ps int64) float64 { return float64(ps) / PsPerSec }

// The scheduler's fixed constants. The paper measures against one kernel,
// stock Linux 2.6.22's O(1) scheduler, so none of them is a per-run knob.
const (
	// TimesliceSec is the scheduling quantum (Linux O(1) default ~100 ms).
	TimesliceSec = 0.1
	// BalanceIntervalSec is the period of the load balancer.
	BalanceIntervalSec = 0.25
	// SampleIntervalSec is the period of throughput sampling.
	SampleIntervalSec = 1.0
	// MonitorIntervalSec is the period of the task monitor (Kernel.Monitor).
	// The online phase-detection runtime observes per-process counters on
	// this tick (§V's dynamic competitor); it is distinct from throughput
	// sampling, which feeds the metrics.
	MonitorIntervalSec = 0.1
	// CoreSwitchCycles is charged to a process when it migrates between
	// cores. The paper measures ~1000 cycles per switch (§IV-B3) against
	// code sections of ~10^10 cycles (Fig. 5); under the simulation's 1/20
	// time scale sections are 20x shorter, so preserving the paper's
	// amortization ratios scales the switch micro-costs by the same
	// divisor: 1000/20 = 50 cycles. The switch-cost experiment reports both
	// the simulated and the descaled equivalent value.
	CoreSwitchCycles = 50
	// ContextSwitchCycles is charged when a core switches between tasks.
	ContextSwitchCycles = 40
	// minSliceSec floors the overcommit dispatcher's scaled slice so
	// extreme overcommit cannot degenerate into pure context-switch thrash.
	minSliceSec = TimesliceSec / 8
)

// Config holds the one scheduler value a run varies.
type Config struct {
	// CounterSlots bounds concurrently active performance-counter event
	// sets (0 = unlimited). PAPI virtualizes counters per thread — the
	// kernel saves and restores counter state at context switches — so
	// concurrent per-process event sets are effectively unbounded; the
	// bounded mode exists for the counter-contention ablation.
	CounterSlots int
}

// Validate rejects a machine the fixed timeslice cannot advance: one whose
// slowest core type retires less than one cycle per TimesliceSec (its
// bursts would retire nothing and the clock would stall). The machine
// arrives from the wire, so this is the one stall an environment can still
// carry.
func (Config) Validate(m *amp.Machine) error {
	for _, t := range m.Types {
		if !(TimesliceSec*t.CyclesPerSec >= 1) {
			return fmt.Errorf("osched: core type %s runs %g cycles/s, under one cycle per %g s timeslice",
				t.Name, t.CyclesPerSec, TimesliceSec)
		}
	}
	return nil
}

// TaskState is a task's lifecycle state.
type TaskState uint8

const (
	// TaskReady means queued on some core.
	TaskReady TaskState = iota
	// TaskRunning means currently in a run burst.
	TaskRunning
	// TaskExited means the program terminated.
	TaskExited
)

// Task is the kernel's per-process bookkeeping.
type Task struct {
	// Proc is the executing process.
	Proc *exec.Process
	// Name labels the task (benchmark name).
	Name string
	// Slot is workload bookkeeping (which job queue the task came from);
	// -1 when unused.
	Slot int
	// Affinity is the current mask; the kernel only places the task on
	// allowed cores.
	Affinity uint64
	// ArrivalPs and CompletionPs are arrival/completion timestamps
	// (CompletionPs is -1 until exit).
	ArrivalPs, CompletionPs int64
	// Migrations counts cross-core moves (the paper's "core switches").
	Migrations int
	// State is the lifecycle state.
	State TaskState

	idx           int32 // index in Kernel.tasks: how run queues and events name the task
	core          int   // current core (queue membership or running)
	pendingCycles int64 // penalty cycles charged at next run (switch costs)
	pendMonitor   int64 // portion of pendingCycles that is monitoring cost (Penalize)
	lastQueuedPs  int64 // when the task last became queued (ledger queue-wait accounting)
	arriveHead    bool  // enqueue at the head on next arrival (mid-slice migration)
	memBound      bool  // image working set stresses the shared L2 (cache stats)
}

// Core returns the core the task is queued on or running on (-1 after
// exit). For an in-flight task it is the core the current burst runs on.
func (t *Task) Core() int { return t.core }

// TaskMonitor observes the machine at a fixed period (MonitorIntervalSec).
// It is the OS-level hook the online phase-detection runtime hangs off: at
// every tick it may read any task's virtualized counters, charge
// monitoring cost (Penalize), and reassign tasks (SetAffinity). Ticks run
// synchronously inside the event loop, so a monitor needs no locking of
// kernel state.
type TaskMonitor interface {
	// OnTick fires once per monitor interval with the simulated timestamp.
	OnTick(k *Kernel, atPs int64)
}

// Sample is one throughput observation.
type Sample struct {
	// AtPs is the sample timestamp.
	AtPs int64
	// Instructions is the cumulative committed-instruction count across all
	// tasks at the sample time (phase-mark instructions included, as in the
	// paper's throughput measurement).
	Instructions uint64
}

// event kinds.
type evKind uint8

const (
	evDispatch evKind = iota
	// evBurstEnd ends a burst that did not exit: the task arrives on core
	// to, then core dispatches its next burst. It is the two events the
	// burst would otherwise push at the same picosecond with consecutive
	// sequence numbers, and nothing can sort between those.
	evBurstEnd
	evBalance
	evSample
	evMonitor
	evTimer
)

// event is one pending kernel event, ordered by (ps, seq). It holds no
// pointers — tasks and timer callbacks are named by index — so moving
// events around the heap costs the garbage collector no write barriers,
// and it packs into 24 bytes.
type event struct {
	ps   int64
	seq  uint64
	ref  int32 // task index (evBurstEnd) or timer index (evTimer)
	core uint8 // the core that dispatches (evDispatch, evBurstEnd)
	to   uint8 // the core the task arrives on (evBurstEnd)
	kind evKind
}

// before orders events by (ps, seq).
func (e event) before(o event) bool {
	if e.ps != o.ps {
		return e.ps < o.ps
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap ordered by (ps, seq) with its own typed
// sift operations. container/heap's interface (Push(x any) / Pop() any)
// boxes every event into a heap allocation on the simulator's hottest
// path; the typed version keeps events in the backing array end to end.
// An allocs-per-dispatch regression test pins this property.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(h[j]) }

// push inserts an event and sifts it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event. Callers peek first, so pop is
// never called on an empty heap.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s.less(r, l) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

type coreState struct {
	id       int
	typ      amp.CoreTypeID
	l2       int
	shareKB  float64 // L2 capacity bursts here are priced at: the whole group's (no occupancy model)
	queue    []int32 // task indices, head first
	busy     bool    // a dispatch event is in flight for this core
	lastTask int32   // index of the task that ran last here (-1: none yet)
}

// Kernel is the simulated machine plus operating system.
type Kernel struct {
	// Machine is the hardware description.
	Machine *amp.Machine
	// Cost is the shared cost model.
	Cost exec.CostModel
	// Hardware is the performance-counter pool the tuning runtime draws on.
	Hardware *perfcnt.Hardware
	// OnExit, when set, fires after a task completes (workloads use it to
	// start the next job in the slot queue).
	OnExit func(k *Kernel, t *Task)
	// OnSample, when set, fires at every throughput sampling event (run
	// drivers use it for progress reporting).
	OnSample func(k *Kernel, atPs int64)
	// Monitor, when set, receives periodic OnTick callbacks every
	// MonitorIntervalSec (the online phase-detection runtime). It must be
	// set before the first Run* call.
	Monitor TaskMonitor
	// Overcommit turns on the proportional-share dispatcher — the
	// hypervisor-scheduler two-phase idiom adapted to the O(1) kernel — for
	// open-system runs, where runnable tasks can exceed cores. Phase 1
	// computes a demand/capacity scale factor per core type
	// (OvercommitScale): with d runnable tasks contending for c cores of a
	// type, each task's fair share of a scheduling round is c/d of a full
	// timeslice. Phase 2 turns the share into a bounded execution slice at
	// dispatch time: the quantum shrinks to TimesliceSec * c/d (floored at
	// TimesliceSec/8), so d tasks time-multiplex through c cores with
	// per-type shares summing to exactly the type's capacity. Placement
	// policies compose unchanged — overcommit only shortens slices, never
	// overrides affinity — and the extra slice boundaries charge
	// ContextSwitchCycles, so "overcommit costs switching time" is part of
	// the simulation. Off, oversubscribed cores round-robin full
	// timeslices. Set it before the first Run* call.
	Overcommit bool
	// Trace, when set, receives scheduler events (burst spans, migrations,
	// timers, runnable-depth counters). Nil disables tracing; emit sites
	// never read tracer state back, so a traced run is bit-identical to an
	// untraced one. Spawn hands it to each process it admits (exec.Process
	// traces its own phase marks).
	Trace *trace.Tracer
	// Ledger, when set, receives conserved cycle-attribution charges at
	// every dispatch-slice boundary. Like the tracer it is nil-safe and
	// write-only from the kernel's perspective, so a ledgered run is
	// bit-identical to an unledgered one. Spawn attaches a step-attribution
	// accumulator (ledger.Work) to each process it admits.
	Ledger *ledger.Collector

	params []exec.CoreParams
	fastPs int64
	cores  []coreState
	events eventHeap
	seq    uint64
	// Timers registered in non-decreasing time order wait in fifo (from
	// fifoHead on) instead of the heap; the run loops merge the two by
	// (ps, seq). An open run registers every arrival up front in time
	// order, so the heap keeps only the few kernel events in flight.
	fifo       []event
	fifoHead   int
	timers     []func(*Kernel) // callbacks by timer index; nil once fired
	freeTimers []int32         // fired timer indices, reused by At
	nowPs      int64
	tasks      []*Task
	live       int
	nextPID    int

	memStats   *CacheStats // per-group residency accounting (nil = off)
	memBoundKB float64     // working-set threshold classifying tasks as memory-bound

	typeCores []int // cores per core type (overcommit capacity)
	runnable  []int // live tasks per core type (queued or in a burst)
	peakLive  int
	ocSlices  uint64

	totalInstr uint64
	samples    []Sample
	sampling   bool
	balancing  bool
	monitoring bool
	traceNamed bool
}

// NewKernel boots a kernel on the machine. It refuses an invalid machine
// and one the fixed timeslice cannot advance (Config.Validate).
func NewKernel(m *amp.Machine, cost exec.CostModel, cfg Config) (*Kernel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	k := &Kernel{
		Machine:  m,
		Cost:     cost,
		Hardware: perfcnt.NewHardware(cfg.CounterSlots),
		params:   exec.ParamsFor(cost, m),
	}
	k.typeCores = make([]int, len(m.Types))
	k.runnable = make([]int, len(m.Types))
	for _, c := range m.Cores {
		k.cores = append(k.cores, coreState{id: c.ID, typ: c.Type, l2: c.L2, shareKB: m.L2s[c.L2].SizeKB, lastTask: -1})
		k.typeCores[c.Type]++
	}
	// Fastest clock: prices the ledger's useful-work counterfactual and
	// keys cost tables (ledgered and unledgered runs must share tables).
	k.fastPs = k.params[0].PsPerCycle
	for _, p := range k.params[1:] {
		if p.PsPerCycle < k.fastPs {
			k.fastPs = p.PsPerCycle
		}
	}
	return k, nil
}

// CacheStats is the kernel's per-cache-group residency map: how the busy
// time of memory-bound tasks — those whose image working set stresses the
// shared L2 — distributed over the machine's cache groups. It is the
// observable behind the contention experiments: an antagonist fleet herded
// onto one group concentrates GroupMemPs there; contention-priced placement
// spreads it. Collection is off unless EnableCacheStats was called; the
// dispatch hot path reads one nil check when off, and the stats are
// write-only from the kernel's perspective, so an instrumented run is
// byte-identical to an uninstrumented one apart from the stats themselves.
type CacheStats struct {
	// GroupBusyPs is total busy core-picoseconds per L2 group.
	GroupBusyPs []int64 `json:"group_busy_ps"`
	// GroupMemPs is busy core-picoseconds of memory-bound tasks per group.
	GroupMemPs []int64 `json:"group_mem_ps"`
	// MemTasks counts tasks classified memory-bound at spawn.
	MemTasks int `json:"mem_tasks"`
}

// EnableCacheStats turns on per-group residency accounting. Must be called
// before the first Spawn (classification happens at spawn time). Tasks are
// memory-bound when their image's aggregate working set is at least half
// the largest shared L2 — crowding such tasks measurably moves their miss
// ratio, which is exactly the population contention pricing separates.
func (k *Kernel) EnableCacheStats() {
	k.memStats = &CacheStats{
		GroupBusyPs: make([]int64, len(k.Machine.L2s)),
		GroupMemPs:  make([]int64, len(k.Machine.L2s)),
	}
	maxKB := 0.0
	for _, g := range k.Machine.L2s {
		if g.SizeKB > maxKB {
			maxKB = g.SizeKB
		}
	}
	k.memBoundKB = maxKB / 2
}

// CacheStats returns the residency map (nil unless EnableCacheStats).
func (k *Kernel) CacheStats() *CacheStats { return k.memStats }

// NowPs returns the simulated clock.
func (k *Kernel) NowPs() int64 { return k.nowPs }

// NowSec returns the simulated clock in seconds.
func (k *Kernel) NowSec() float64 { return PsToSec(k.nowPs) }

// Tasks returns all tasks ever spawned, in spawn order.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// Live returns the number of non-exited tasks.
func (k *Kernel) Live() int { return k.live }

// TotalInstructions returns cumulative committed instructions.
func (k *Kernel) TotalInstructions() uint64 { return k.totalInstr }

// Samples returns the throughput samples recorded so far.
func (k *Kernel) Samples() []Sample { return k.samples }

// Params returns the per-core-type execution parameters.
func (k *Kernel) Params() []exec.CoreParams { return k.params }

// FastPs returns the picoseconds per cycle of the machine's fastest clock.
func (k *Kernel) FastPs() int64 { return k.fastPs }

// push schedules an event. core is the dispatching core (evDispatch);
// the periodic events ignore it.
func (k *Kernel) push(ps int64, kind evKind, core int) {
	k.seq++
	k.events.push(event{ps: ps, seq: k.seq, kind: kind, core: uint8(core)})
}

// pushBurstEnd schedules the end of a burst that did not exit: the task is
// in flight (its burst occupies the simulated interval up to ps) and joins
// core to's queue only when the clock reaches ps, and then core dispatches
// again. Routing every requeue through the burst's end is what keeps a
// task from being visible in two places at once.
func (k *Kernel) pushBurstEnd(ps int64, t *Task, to, core int) {
	k.seq++
	k.events.push(event{ps: ps, seq: k.seq, kind: evBurstEnd, ref: t.idx, core: uint8(core), to: uint8(to)})
}

// next returns the earliest pending event, merging the heap with the timer
// FIFO by (ps, seq); inFifo says which of the two holds it, for drop.
func (k *Kernel) next() (e event, inFifo, ok bool) {
	if k.fifoHead < len(k.fifo) {
		f := k.fifo[k.fifoHead]
		if len(k.events) == 0 || f.before(k.events[0]) {
			return f, true, true
		}
	}
	if len(k.events) == 0 {
		return event{}, false, false
	}
	return k.events[0], false, true
}

// drop removes the event next returned.
func (k *Kernel) drop(inFifo bool) {
	if inFifo {
		k.fifoHead++
	} else {
		k.events.pop()
	}
}

// Spawn creates a task for the process and enqueues it. The affinity mask 0
// means "all cores". Spawn may be called from OnExit callbacks.
func (k *Kernel) Spawn(p *exec.Process, name string, slot int, affinity uint64) *Task {
	if affinity == 0 {
		affinity = k.Machine.AllMask()
	}
	t := &Task{
		Proc:         p,
		Name:         name,
		Slot:         slot,
		Affinity:     affinity,
		ArrivalPs:    k.nowPs,
		CompletionPs: -1,
		State:        TaskReady,
		idx:          int32(len(k.tasks)),
		core:         -1,
		lastQueuedPs: k.nowPs,
	}
	k.tasks = append(k.tasks, t)
	if k.memStats != nil && p.Img != nil {
		if sig := p.Img.MemSignature(); sig.L2RefsPerInstr > 0 && sig.Profile.WorkingSetKB >= k.memBoundKB {
			t.memBound = true
			k.memStats.MemTasks++
		}
	}
	if k.Ledger != nil {
		k.Ledger.AddTask(p.PID, name)
		if p.Work == nil {
			p.Work = k.Ledger.Work()
		}
	}
	p.Trace = k.Trace
	k.live++
	if k.live > k.peakLive {
		k.peakLive = k.live
	}
	k.enqueue(t, k.pickCore(t, -1))
	if k.Trace != nil {
		k.Trace.NameThread(trace.PidTasks, p.PID, fmt.Sprintf("task %d (%s)", p.PID, name))
		k.Trace.Instant("sched", "spawn", trace.PidTasks, p.PID, k.nowPs,
			trace.Arg{Key: "name", Value: name},
			trace.Arg{Key: "slot", Value: slot},
			trace.Arg{Key: "core", Value: t.core})
		k.traceRunnable()
	}
	return t
}

// pickCore selects the least-loaded allowed core (wake balancing), with an
// optional core to exclude. Ties break toward lower core IDs.
func (k *Kernel) pickCore(t *Task, exclude int) int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := range k.cores {
		if i == exclude || t.Affinity&(1<<uint(i)) == 0 {
			continue
		}
		// Queue length is the nr_running proxy: dispatch handlers requeue
		// the running task synchronously, so between events every live task
		// sits in exactly one queue (busy only means a dispatch is pending).
		load := len(k.cores[i].queue)
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best == -1 {
		// Affinity excludes every core (including exclude); fall back to any
		// allowed core, or core 0 for an empty mask.
		for i := range k.cores {
			if t.Affinity&(1<<uint(i)) != 0 {
				return i
			}
		}
		return 0
	}
	return best
}

// enqueue adds the task to a core's run queue, waking the core if idle.
// Tasks that migrated mid-quantum enter at the head: the O(1) scheduler
// keeps a migrated task's remaining timeslice and dynamic priority, so it
// resumes promptly on the target core instead of waiting a full queue round.
func (k *Kernel) enqueue(t *Task, core int) {
	// The mask may have moved while the task was in flight (an external
	// SetAffinity from the monitor): land on an allowed core instead,
	// charging the switch like any other migration.
	if t.Affinity&(1<<uint(core)) == 0 {
		target := k.pickCore(t, core)
		if target != core {
			t.Migrations++
			t.pendingCycles += CoreSwitchCycles
			core = target
		}
	}
	// Per-type runnable accounting (overcommit demand). Every placement
	// change funnels through enqueue, so moving the count with the task
	// keeps runnable[typ] equal to the live tasks queued on or running on
	// cores of that type.
	if t.core >= 0 {
		k.runnable[k.cores[t.core].typ]--
	}
	k.runnable[k.cores[core].typ]++
	t.core = core
	// A running task re-entering a queue starts a fresh queue wait; a task
	// merely moved between queues (balance, SetAffinity) keeps the wait it
	// already accumulated, so per-task queue time tiles the sojourn exactly.
	if t.State == TaskRunning {
		t.lastQueuedPs = k.nowPs
	}
	t.State = TaskReady
	cs := &k.cores[core]
	if t.arriveHead {
		t.arriveHead = false
		// Shift in place rather than rebuilding the slice: queues keep
		// their capacity, so steady-state enqueueing never allocates.
		cs.queue = append(cs.queue, 0)
		copy(cs.queue[1:], cs.queue)
		cs.queue[0] = t.idx
	} else {
		cs.queue = append(cs.queue, t.idx)
	}
	if !cs.busy {
		cs.busy = true
		k.push(k.nowPs, evDispatch, core)
	}
}

// Run advances the simulation until the event queue drains or the clock
// passes untilSec (exclusive horizon; pending later events remain queued).
func (k *Kernel) Run(untilSec float64) {
	k.RunCancellable(untilSec, nil)
}

// cancelCheckEvents is how many events are handled between cancellation
// checks. Checking per event would put a closure call on the hottest loop in
// the simulator; a few thousand events span well under a simulated second.
const cancelCheckEvents = 4096

// RunCancellable advances the simulation up to untilSec simulated seconds,
// polling cancelled (when non-nil) every few thousand events. It reports
// whether the run was cut short by cancellation.
func (k *Kernel) RunCancellable(untilSec float64, cancelled func() bool) bool {
	horizon := SecToPs(untilSec)
	k.ensurePeriodicEvents()
	countdown := cancelCheckEvents
	for {
		e, inFifo, ok := k.next()
		if !ok || e.ps > horizon {
			return false
		}
		if cancelled != nil {
			if countdown--; countdown <= 0 {
				countdown = cancelCheckEvents
				if cancelled() {
					return true
				}
			}
		}
		k.drop(inFifo)
		if e.ps > k.nowPs {
			k.nowPs = e.ps
		}
		k.handle(e)
	}
}

// RunUntilDone advances the simulation until every task has exited (or the
// safety horizon passes). Used for isolation runs.
func (k *Kernel) RunUntilDone(maxSec float64) error {
	horizon := SecToPs(maxSec)
	k.ensurePeriodicEvents()
	for k.live > 0 {
		e, inFifo, ok := k.next()
		if !ok {
			return fmt.Errorf("osched: %d tasks live but no events pending", k.live)
		}
		if e.ps > horizon {
			return fmt.Errorf("osched: horizon %.1fs exceeded with %d tasks live", maxSec, k.live)
		}
		k.drop(inFifo)
		if e.ps > k.nowPs {
			k.nowPs = e.ps
		}
		k.handle(e)
	}
	return nil
}

// handle processes one event.
func (k *Kernel) handle(e event) {
	if k.Trace != nil {
		// Keep the tracer's clock in lockstep with the kernel's so layers
		// without their own clock (placement engine, tuner) stamp correctly.
		k.Trace.SetNow(k.nowPs)
	}
	switch e.kind {
	case evDispatch:
		k.dispatch(int(e.core))
	case evBurstEnd:
		k.enqueue(k.tasks[e.ref], int(e.to))
		k.dispatch(int(e.core))
	case evBalance:
		k.balance()
		k.push(k.nowPs+SecToPs(BalanceIntervalSec), evBalance, -1)
	case evSample:
		k.samples = append(k.samples, Sample{AtPs: k.nowPs, Instructions: k.totalInstr})
		k.traceRunnable()
		if k.OnSample != nil {
			k.OnSample(k, k.nowPs)
		}
		k.push(k.nowPs+SecToPs(SampleIntervalSec), evSample, -1)
	case evMonitor:
		if k.Monitor != nil {
			k.Monitor.OnTick(k, k.nowPs)
		}
		k.push(k.nowPs+SecToPs(MonitorIntervalSec), evMonitor, -1)
	case evTimer:
		if k.Trace != nil {
			k.Trace.Instant("sched", "timer", trace.PidMachine, trace.TidKernel, k.nowPs)
		}
		fn := k.timers[e.ref]
		k.timers[e.ref] = nil
		k.freeTimers = append(k.freeTimers, e.ref)
		if fn != nil {
			fn(k)
		}
	}
}

// traceRunnable emits the runnable-depth counter track: live task demand
// per core type plus the total, the overcommit dispatcher's input.
func (k *Kernel) traceRunnable() {
	if k.Trace == nil {
		return
	}
	series := make([]trace.Arg, 0, len(k.runnable)+1)
	total := 0
	for typ, n := range k.runnable {
		series = append(series, trace.Arg{Key: k.Machine.Types[typ].Name, Value: n})
		total += n
	}
	series = append(series, trace.Arg{Key: "total", Value: total})
	k.Trace.Counter("runnable", trace.PidMachine, k.nowPs, series...)
}

// At schedules fn to run inside the event loop at the given simulated
// time (clamped to now if in the past). Timers interleave with kernel
// events deterministically in (time, sequence) order, and the clock is
// advanced before the callback fires, so a Spawn from a timer stamps the
// task's arrival at exactly the timer's instant — which is how open-system
// run drivers admit jobs (sim's arrival schedule). A timer no earlier than
// the last one still waiting in the FIFO joins the FIFO's tail in O(1);
// an out-of-order one goes to the event heap. Pending timers do not count
// as live tasks: RunUntilDone returns once tasks are drained even if
// future timers remain queued.
func (k *Kernel) At(ps int64, fn func(*Kernel)) {
	if ps < k.nowPs {
		ps = k.nowPs
	}
	var ref int32
	if n := len(k.freeTimers); n > 0 {
		ref = k.freeTimers[n-1]
		k.freeTimers = k.freeTimers[:n-1]
		k.timers[ref] = fn
	} else {
		ref = int32(len(k.timers))
		k.timers = append(k.timers, fn)
	}
	k.seq++
	e := event{ps: ps, seq: k.seq, kind: evTimer, ref: ref}
	if h := k.fifoHead; h > 0 && 2*h >= len(k.fifo) {
		// Slide the waiting timers down so fired ones free their slots.
		n := copy(k.fifo, k.fifo[h:])
		k.fifo, k.fifoHead = k.fifo[:n], 0
	}
	if n := len(k.fifo); n > k.fifoHead && ps < k.fifo[n-1].ps {
		k.events.push(e)
		return
	}
	k.fifo = append(k.fifo, e)
}

// ensurePeriodicEvents seeds the balance and sample events once.
func (k *Kernel) ensurePeriodicEvents() {
	if k.Trace != nil && !k.traceNamed {
		k.traceNamed = true
		k.Trace.NameProcess(trace.PidMachine, "scheduler: "+k.Machine.Name)
		k.Trace.NameProcess(trace.PidTasks, "tasks")
		k.Trace.NameThread(trace.PidMachine, trace.TidKernel, "kernel")
		for i := range k.cores {
			typ := k.Machine.Types[k.cores[i].typ].Name
			k.Trace.NameThread(trace.PidMachine, trace.CoreTid(i), fmt.Sprintf("core %d (%s)", i, typ))
		}
	}
	if !k.balancing {
		k.balancing = true
		k.push(k.nowPs+SecToPs(BalanceIntervalSec), evBalance, -1)
	}
	if !k.sampling {
		k.sampling = true
		k.push(k.nowPs+SecToPs(SampleIntervalSec), evSample, -1)
	}
	if !k.monitoring && k.Monitor != nil {
		k.monitoring = true
		k.push(k.nowPs+SecToPs(MonitorIntervalSec), evMonitor, -1)
	}
}

// dispatch runs one burst on a core.
func (k *Kernel) dispatch(core int) {
	cs := &k.cores[core]
	if len(cs.queue) == 0 {
		cs.busy = false
		return
	}
	t := k.tasks[cs.queue[0]]
	// Pop by shifting down, not by reslicing off the front: reslicing
	// strands the popped slot's capacity, so every queue would reallocate
	// on append at a steady cadence. Shifting keeps the buffer anchored
	// and the hot loop allocation-free. Queues are not always short: at
	// 1.5× offered load a quad run holds 166–174 live tasks on 4 cores in
	// the bench's serving grid (333 in a 200 s ampsim run), so a queue can
	// be tens of tasks deep. Each pop moves that many int32 task indices,
	// a plain memmove: the queue holds no pointers, so no write barriers.
	n := copy(cs.queue, cs.queue[1:])
	cs.queue = cs.queue[:n]
	t.State = TaskRunning
	queueWaitPs := k.nowPs - t.lastQueuedPs

	par := &k.params[cs.typ]
	sliceCycles := int64(TimesliceSec * par.CyclesPerSec)
	ocScale := 1.0
	if k.Overcommit {
		// Phase 2 of the overcommit dispatcher: turn the fractional share
		// into a bounded execution slice. The shortened quantum produces
		// more slice boundaries, each charging ContextSwitchCycles below —
		// the switching cost of time-multiplexing is paid, not assumed away.
		if f := k.OvercommitScale(cs.typ); f < 1 {
			scaled := int64(float64(sliceCycles) * f)
			if min := int64(minSliceSec * par.CyclesPerSec); scaled < min {
				scaled = min
			}
			if scaled < 1 {
				scaled = 1
			}
			sliceCycles = scaled
			ocScale = f
			k.ocSlices++
		}
	}

	var used int64
	// Switch penalties accrued earlier (migration) and context switching.
	// They consume core time but stay out of the process's virtualized
	// counters: under the scaled clock a monitored section is ~10^4 cycles
	// where the paper's are ~10^10 (Fig. 5), so penalty cycles that are
	// noise on real hardware would dominate simulated IPC measurements.
	var migrateCycles, monitorCycles, ctxCycles int64
	if t.pendingCycles > 0 {
		monitorCycles = t.pendMonitor
		migrateCycles = t.pendingCycles - monitorCycles
		used += t.pendingCycles
		t.pendingCycles, t.pendMonitor = 0, 0
	}
	if cs.lastTask != t.idx && cs.lastTask >= 0 {
		ctxCycles = ContextSwitchCycles
		used += ctxCycles
	}
	cs.lastTask = t.idx

	instrBefore := t.Proc.Counters.Instructions
	// The share is constant for the whole burst, which is what lets it
	// price from one lane's cost table.
	lane := t.Proc.Lane(par, cs.shareKB, k.fastPs)

	exited := false
	migrate := false
	for used < sliceCycles {
		// RunLane returns at a mark's affinity request, at exit, or with
		// the slice spent.
		ran, res := t.Proc.RunLane(lane, core, sliceCycles-used)
		used += ran
		if res.Exited {
			exited = true
			break
		}
		if res.WantMask != 0 && res.WantMask != t.Affinity {
			t.Affinity = res.WantMask
			if res.WantMask&(1<<uint(core)) == 0 {
				migrate = true
				break
			}
		}
	}

	k.totalInstr += t.Proc.Counters.Instructions - instrBefore

	// End-of-quantum hook: bounded monitoring windows (exec.QuantumHook).
	if !exited && !migrate {
		if qh, ok := t.Proc.Hook.(exec.QuantumHook); ok {
			act := qh.OnQuantum(t.Proc, core)
			if act.Mask != 0 && act.Mask != t.Affinity {
				t.Affinity = act.Mask
				if act.Mask&(1<<uint(core)) == 0 {
					migrate = true
				}
			}
		}
	}

	elapsed := used * par.PsPerCycle
	end := k.nowPs + elapsed
	if k.memStats != nil {
		k.memStats.GroupBusyPs[cs.l2] += elapsed
		if t.memBound {
			k.memStats.GroupMemPs[cs.l2] += elapsed
		}
	}
	if k.Ledger != nil {
		// Charge the burst: every category is an integer multiple of this
		// core's PsPerCycle and used = penalties + ctx + Σ step cycles, so
		// the categories tile [nowPs, end] exactly (elapsed distributes over
		// the integer summands of used).
		var segs []ledger.Segment
		if t.Proc.Work != nil {
			segs = t.Proc.Work.Drain()
		}
		k.Ledger.Charge(ledger.Burst{
			Core:          core,
			PID:           t.Proc.PID,
			PsPerCycle:    par.PsPerCycle,
			StartPs:       k.nowPs,
			EndPs:         end,
			QueuePs:       queueWaitPs,
			MigrateCycles: migrateCycles,
			MonitorCycles: monitorCycles,
			CtxCycles:     ctxCycles,
			Sliced:        ocScale < 1,
			Segs:          segs,
		})
		if t.Proc.Work != nil {
			// Charge copies what it needs; hand the segment storage back so
			// the next burst appends in place instead of allocating.
			t.Proc.Work.Recycle(segs)
		}
	}
	if k.Trace != nil {
		reason := "slice"
		if exited {
			reason = "exit"
		} else if migrate {
			reason = "migrate"
		}
		args := []trace.Arg{
			{Key: "task", Value: t.Proc.PID},
			{Key: "name", Value: t.Name},
			{Key: "cycles", Value: used},
			{Key: "end", Value: reason},
		}
		if ocScale < 1 {
			args = append(args, trace.Arg{Key: "oc_scale", Value: ocScale})
		}
		k.Trace.Span("sched", "burst", trace.PidMachine, trace.CoreTid(core), k.nowPs, end, args...)
	}

	switch {
	case exited:
		t.State = TaskExited
		t.CompletionPs = end
		k.runnable[cs.typ]--
		t.core = -1
		k.live--
		if k.Trace != nil {
			k.Trace.Instant("sched", "exit", trace.PidTasks, t.Proc.PID, end,
				trace.Arg{Key: "migrations", Value: t.Migrations},
				trace.Arg{Key: "sojourn_ps", Value: end - t.ArrivalPs})
			k.traceRunnable()
		}
		if k.OnExit != nil {
			// The callback may Spawn; advance the clock first so arrivals
			// stamp correctly.
			saved := k.nowPs
			k.nowPs = end
			k.OnExit(k, t)
			k.nowPs = saved
		}
		// The core's next dispatch, sequenced after any Spawn from OnExit
		// (a live task's burst end carries it instead).
		k.push(end, evDispatch, core)
	case migrate:
		t.Migrations++
		t.pendingCycles += CoreSwitchCycles
		t.arriveHead = true
		target := k.pickCore(t, core)
		if k.Trace != nil {
			k.Trace.Instant("sched", "migrate", trace.PidTasks, t.Proc.PID, end,
				trace.Arg{Key: "from", Value: core},
				trace.Arg{Key: "to", Value: target})
		}
		k.pushBurstEnd(end, t, target, core)
	default:
		// Slice expired: round-robin on the same core (or follow affinity if
		// it moved under us without excluding this core). The task stays in
		// flight until the burst's end.
		k.pushBurstEnd(end, t, core, core)
	}
}

// balance is the periodic load balancer: queue-length equalization honoring
// affinity, the asymmetry-oblivious behavior of the stock scheduler.
func (k *Kernel) balance() {
	for pass := 0; pass < 2*len(k.cores); pass++ {
		src, dst := -1, -1
		srcLoad, dstLoad := -1, int(^uint(0)>>1)
		for i := range k.cores {
			load := len(k.cores[i].queue)
			if load > srcLoad {
				src, srcLoad = i, load
			}
			if load < dstLoad {
				dst, dstLoad = i, load
			}
		}
		if src == -1 || dst == -1 || srcLoad-dstLoad <= 1 {
			return
		}
		// Pull the most recently queued task allowed on dst (O(1) scheduler
		// pulls from the expired tail).
		q := k.cores[src].queue
		moved := false
		for i := len(q) - 1; i >= 0; i-- {
			t := k.tasks[q[i]]
			if t.Affinity&(1<<uint(dst)) == 0 {
				continue
			}
			k.cores[src].queue = append(q[:i], q[i+1:]...)
			t.Migrations++
			t.pendingCycles += CoreSwitchCycles
			if k.Trace != nil {
				k.Trace.Instant("sched", "balance.move", trace.PidMachine, trace.TidKernel, k.nowPs,
					trace.Arg{Key: "task", Value: t.Proc.PID},
					trace.Arg{Key: "from", Value: src},
					trace.Arg{Key: "to", Value: dst})
			}
			k.enqueue(t, dst)
			moved = true
			break
		}
		if !moved {
			return
		}
	}
}

// SetAffinity changes a task's affinity mask from outside the dispatch path
// (the simulated kernel-side sched_setaffinity the online reassignment
// policies call; processes themselves request masks through phase marks).
// A mask of 0 means "all cores". A queued task whose current core becomes
// disallowed migrates immediately; a task whose burst is in flight lands on
// an allowed core when it arrives (the enqueue path re-checks the mask), so
// external reassignment takes effect within one scheduling quantum.
func (k *Kernel) SetAffinity(t *Task, mask uint64) {
	if mask == 0 {
		mask = k.Machine.AllMask()
	}
	if t.Affinity == mask || t.State == TaskExited {
		t.Affinity = mask
		return
	}
	t.Affinity = mask
	if t.State != TaskReady || mask&(1<<uint(t.core)) != 0 {
		return
	}
	k.removeFromQueue(t)
	t.Migrations++
	t.pendingCycles += CoreSwitchCycles
	k.enqueue(t, k.pickCore(t, t.core))
}

// removeFromQueue detaches a ready task from its core's run queue.
func (k *Kernel) removeFromQueue(t *Task) {
	q := k.cores[t.core].queue
	for i, qt := range q {
		if qt == t.idx {
			k.cores[t.core].queue = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// Penalize charges cycles to a task's next run burst without advancing its
// virtualized counters — monitoring overhead, modeled exactly like the
// switch micro-costs (the online runtime charges its per-window sampling
// work here, so "dynamic detection costs time" is part of the simulation).
func (k *Kernel) Penalize(t *Task, cycles int64) {
	if cycles > 0 && t.State != TaskExited {
		t.pendingCycles += cycles
		t.pendMonitor += cycles
	}
}

// OvercommitScale is phase 1 of the proportional-share dispatcher: the
// demand/capacity scale factor for a core type. With d runnable (live,
// non-exited) tasks on cores of the type and c cores of the type, the
// factor is min(1, c/d): each task's fair share of a scheduling round.
// Scaled shares sum to min(d, c) full-core equivalents, so per-type shares
// never exceed the type's capacity.
func (k *Kernel) OvercommitScale(typ amp.CoreTypeID) float64 {
	demand := k.runnable[typ]
	capacity := k.typeCores[typ]
	if demand <= capacity || demand == 0 {
		return 1
	}
	return float64(capacity) / float64(demand)
}

// RunnableOfType returns the live tasks currently queued on or running on
// cores of the type — the demand side of OvercommitScale.
func (k *Kernel) RunnableOfType(typ amp.CoreTypeID) int { return k.runnable[typ] }

// PeakLive returns the maximum number of simultaneously live tasks seen so
// far — the "max runnable" the serving experiments use to demonstrate a
// run actually exercised overcommit (peak > cores).
func (k *Kernel) PeakLive() int { return k.peakLive }

// OvercommitSlices returns how many dispatch slices were shortened by the
// overcommit dispatcher.
func (k *Kernel) OvercommitSlices() uint64 { return k.ocSlices }

// QueueLengths returns per-core run-queue lengths (diagnostics).
func (k *Kernel) QueueLengths() []int {
	out := make([]int, len(k.cores))
	for i := range k.cores {
		out[i] = len(k.cores[i].queue)
	}
	return out
}

// NextPID returns a fresh process ID.
func (k *Kernel) NextPID() int {
	k.nextPID++
	return k.nextPID
}
