package online

import (
	"cmp"
	"slices"

	"phasetune/internal/amp"
	"phasetune/internal/osched"
	"phasetune/internal/perfcnt"
	"phasetune/internal/place"
	"phasetune/internal/trace"
)

// taskState is the detector's per-process bookkeeping.
type taskState struct {
	task *osched.Task
	cls  *Classifier

	// Open window: counter snapshot plus the migration count at open, so a
	// window spanning a core switch can be discarded (its IPC would blend
	// two core types).
	es       perfcnt.EventSet
	open     bool
	openMigr int
	windows  uint64
	// phase is the last classified phase (-1 before the first window).
	phase int
	// ipcEWMA is the greedy policy's smoothed IPC estimate.
	ipcEWMA float64
	// decisions holds the probe policy's fixed per-phase placements, made
	// by the shared engine (place.Engine.Decide) once every core type has
	// been measured for the phase.
	decisions map[int]*place.Decision
	// probing is true while the probe policy is steering this task to an
	// unmeasured core type; the placement pass leaves probing tasks alone.
	probing bool
	// wantMask is the mask this manager last requested for the task (0 =
	// never reassigned), used to count real switches and damp flapping.
	wantMask uint64
}

// prevType maps a task's last requested mask back to a core type for the
// engine's hysteresis: HasPrev only when the mask is exactly one type's.
func (ts *taskState) prevType(m *amp.Machine) (amp.CoreTypeID, bool) {
	if ts.wantMask == 0 {
		return 0, false
	}
	for i := range m.Types {
		if ts.wantMask == m.TypeMask(amp.CoreTypeID(i)) {
			return amp.CoreTypeID(i), true
		}
	}
	return 0, false
}

// Manager is the online phase-detection runtime: it implements
// osched.TaskMonitor, sampling every live task's virtualized counters in
// fixed instruction windows and classifying window signatures into phases.
// Everything placement — Algorithm 2 decisions, capacity quotas, spill
// arbitration, ranked fast-slot assignment — is delegated to the shared
// placement engine (internal/place); the manager's own job ends at
// producing IPC estimates and handing the engine claims. One Manager serves
// one kernel (one run); it is not safe for concurrent use, matching the
// kernel's single-threaded event loop.
type Manager struct {
	cfg     Config
	machine *amp.Machine
	hw      *perfcnt.Hardware
	engine  *place.Engine

	seen  int // cursor into kernel.Tasks()
	live  []*taskState
	stats Stats

	// placed and claims are the rebalance passes' per-tick scratch: the
	// engine reads the claims without keeping them, so one pair of buffers
	// serves every tick of the run.
	placed []*taskState
	claims []place.Claim
}

// NewManager builds the runtime for one kernel on the run's placement
// engine, which makes the probe policy's decisions and every arbitration.
// The hardware pool should be the kernel's own (kernel.Hardware) so
// counter contention with any other monitoring stays modeled. Window
// closes, classifications and decisions are traced to the engine's tracer,
// stamped at the kernel's simulated clock.
func NewManager(cfg Config, engine *place.Engine, hw *perfcnt.Hardware) *Manager {
	return &Manager{
		cfg:     cfg.Normalized(),
		machine: engine.Capacity().Machine(),
		hw:      hw,
		engine:  engine,
	}
}

// Stats returns the aggregate monitoring statistics.
func (m *Manager) Stats() Stats { return m.stats }

// OnTick implements osched.TaskMonitor: adopt newly spawned tasks, retire
// exited ones, close matured windows, and apply the reassignment policy.
func (m *Manager) OnTick(k *osched.Kernel, atPs int64) {
	// Adopt tasks spawned since the last tick (kernel task list is
	// append-only).
	tasks := k.Tasks()
	for ; m.seen < len(tasks); m.seen++ {
		t := tasks[m.seen]
		if t.State == osched.TaskExited {
			continue
		}
		m.live = append(m.live, &taskState{
			task:      t,
			cls:       NewClassifier(classifyEps, maxPhases, len(m.machine.Types)),
			phase:     -1,
			decisions: map[int]*place.Decision{},
		})
	}

	// Sample, releasing state for exited tasks in place.
	kept := m.live[:0]
	for _, ts := range m.live {
		if ts.task.State == osched.TaskExited {
			if ts.open {
				m.hw.Release()
				ts.open = false
			}
			continue
		}
		m.sample(k, ts)
		kept = append(kept, ts)
	}
	m.live = kept

	switch m.cfg.Policy {
	case Greedy:
		m.greedyRebalance(k)
	case Probe:
		m.probeRebalance(k)
	}
}

// sample advances one task's windowing: close a matured window (classify,
// run the per-task policy) and open the next. Opening draws an event set
// from the bounded counter pool; when none is free the attempt is deferred
// to the next tick (perfcnt counts the contention).
func (m *Manager) sample(k *osched.Kernel, ts *taskState) {
	t := ts.task
	if ts.open {
		instrs, cycles, memRefs := ts.es.StopFull(&t.Proc.Counters)
		if instrs < m.cfg.WindowInstrs {
			return // window still filling
		}
		// Close: the counter read and classification are charged to the
		// monitored task — the overhead the paper says dynamic schemes
		// cannot avoid.
		m.hw.Release()
		ts.open = false
		k.Penalize(t, sampleCycles)
		m.stats.ChargedCycles += sampleCycles

		if cycles == 0 || t.Migrations != ts.openMigr || t.Core() < 0 {
			m.stats.Discarded++
			if tr := m.engine.Tracer(); tr != nil {
				tr.InstantNow("online", "window.discard", trace.PidTasks, t.Proc.PID)
			}
		} else {
			sig := Signature{
				IPC:     perfcnt.IPC(instrs, cycles),
				MemFrac: float64(memRefs) / float64(instrs),
			}
			coreType := m.machine.Cores[t.Core()].Type
			phase, founded := ts.cls.Classify(sig, coreType)
			ts.phase = phase
			ts.windows++
			m.stats.Windows++
			if founded {
				m.stats.Phases++
			}
			if tr := m.engine.Tracer(); tr != nil {
				tr.InstantNow("online", "window", trace.PidTasks, t.Proc.PID,
					trace.Arg{Key: "phase", Value: phase},
					trace.Arg{Key: "ipc", Value: sig.IPC},
					trace.Arg{Key: "mem_frac", Value: sig.MemFrac},
					trace.Arg{Key: "instrs", Value: instrs},
					trace.Arg{Key: "core_type", Value: m.machine.Types[coreType].Name},
					trace.Arg{Key: "new_phase", Value: founded})
			}
			if ts.windows == 1 {
				ts.ipcEWMA = sig.IPC
			} else {
				ts.ipcEWMA += ipcSmoothing * (sig.IPC - ts.ipcEWMA)
			}
			if m.cfg.Policy == Probe {
				m.probe(k, ts)
			}
		}
	}
	if !ts.open && m.hw.TryAcquire() {
		ts.es = perfcnt.Start(&t.Proc.Counters)
		ts.openMigr = t.Migrations
		ts.open = true
	}
}

// probe drives the sampling policy for one task after a window closed on
// phase ts.phase: steer the task toward the least-measured core type until
// every type has one accepted window, then fix the phase's placement with
// the shared engine's Algorithm 2. Decided tasks are placed by
// probeRebalance.
func (m *Manager) probe(k *osched.Kernel, ts *taskState) {
	phase := ts.phase
	if _, ok := ts.decisions[phase]; ok {
		ts.probing = false
		return
	}
	// Find the least-measured core type; decide once all are covered.
	probeType, probeN := amp.CoreTypeID(0), int(^uint(0)>>1)
	for i := range m.machine.Types {
		if _, n := ts.cls.TypeIPC(phase, amp.CoreTypeID(i)); n < probeN {
			probeType, probeN = amp.CoreTypeID(i), n
		}
	}
	if probeN == 0 {
		ts.probing = true
		apply(k, ts.task, &ts.wantMask, m.machine.TypeMask(probeType), &m.stats)
		return
	}
	f := make([]float64, len(m.machine.Types))
	for i := range f {
		f[i], _ = ts.cls.TypeIPC(phase, amp.CoreTypeID(i))
	}
	dec := m.engine.Decide(f)
	dec.Mem = ts.task.Proc.Img.MemSignature()
	ts.decisions[phase] = &dec
	ts.probing = false
	m.stats.Decisions++
	if tr := m.engine.Tracer(); tr != nil {
		tr.InstantNow("online", "decision", trace.PidTasks, ts.task.Proc.PID,
			trace.Arg{Key: "phase", Value: phase},
			trace.Arg{Key: "choice", Value: m.machine.Types[dec.Choice].Name})
	}
}

// probeRebalance places every decided task through the shared engine's
// capacity arbitration (place.Engine.Arbitrate): per-phase Algorithm 2
// choices are demands, and overflow beyond a type's cycle-capacity share
// spills the cheapest tasks to undersubscribed types.
func (m *Manager) probeRebalance(k *osched.Kernel) {
	if len(m.machine.Types) < 2 {
		return
	}
	placed, claims := m.placed[:0], m.claims[:0]
	for _, ts := range m.live {
		if ts.probing || ts.phase < 0 {
			continue
		}
		dec, ok := ts.decisions[ts.phase]
		if !ok {
			continue
		}
		prev, hasPrev := ts.prevType(m.machine)
		placed = append(placed, ts)
		claims = append(claims, place.Claim{Dec: dec, Prev: prev, HasPrev: hasPrev})
	}
	m.placed, m.claims = placed, claims
	if len(claims) == 0 {
		return
	}
	assigned := m.engine.Arbitrate(claims)
	for i, ts := range placed {
		// Ledger attribution: arbitration overriding the task's own
		// Algorithm 2 choice is a knowing spill, not a misprediction.
		ts.task.Proc.SetSpilled(assigned[i] != claims[i].Dec.Choice)
		apply(k, ts.task, &ts.wantMask, m.machine.TypeMask(assigned[i]), &m.stats)
	}
}

// apply requests an affinity mask for a task on behalf of a kernel-side
// runtime, counting only real changes: want holds the mask the runtime
// last requested for the task.
func apply(k *osched.Kernel, t *osched.Task, want *uint64, mask uint64, stats *Stats) {
	if mask == 0 || mask == *want {
		return
	}
	*want = mask
	if t.Affinity != mask {
		stats.Switches++
		k.SetAffinity(t, mask)
	}
}

// greedyRebalance ranks scored tasks by smoothed IPC and hands the ranking
// to the shared engine's fast-slot assignment (place.Engine.AssignRanked):
// the fast type's capacity share goes to the top ranks, the rest to the
// slowest type, with a hysteresis band at the quota boundary.
func (m *Manager) greedyRebalance(k *osched.Kernel) {
	cap := m.engine.Capacity()
	if cap.FastType() == cap.SlowType() {
		return // symmetric machine: nothing to place
	}
	scored := m.placed[:0]
	for _, ts := range m.live {
		if ts.windows > 0 {
			scored = append(scored, ts)
		}
	}
	m.placed = scored
	if len(scored) == 0 {
		return
	}
	slices.SortStableFunc(scored, func(a, b *taskState) int {
		return cmp.Compare(b.ipcEWMA, a.ipcEWMA) // descending IPC
	})
	claims := m.claims[:0]
	for _, ts := range scored {
		prev, hasPrev := ts.prevType(m.machine)
		claims = append(claims, place.Claim{Prev: prev, HasPrev: hasPrev})
	}
	m.claims = claims
	assigned := m.engine.AssignRanked(claims)
	for i, ts := range scored {
		apply(k, ts.task, &ts.wantMask, m.machine.TypeMask(assigned[i]), &m.stats)
	}
}
