package online

import (
	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/osched"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/trace"
)

// Hybrid is the marks+windows hybrid runtime — the paper's §VI-B "simple
// feedback mechanism" grown into a full placement policy on top of the
// shared engine (internal/place):
//
//   - phase *boundaries* come from static marks (instrumented binaries), so
//     placement switches exactly where behavior changes — no window-blur
//     misprediction, the static technique's strength;
//   - per-(phase, core-type) IPC *estimates* come from monitor windows that
//     keep refreshing for the lifetime of the process, so a phase whose
//     behavior drifts (input-dependent working sets, cache contention) is
//     re-decided from current evidence — the dynamic technique's strength;
//   - every placement goes through the shared engine: Algorithm 2 fixes
//     each phase's choice, and capacity arbitration spills overflow, so
//     the hybrid herds on neither memory- nor compute-dominant mixes.
//
// The runtime spans both hook planes: a per-process mark hook (Hook) feeds
// boundary transitions and closes measurement windows exactly at phase
// edges, while the kernel-side TaskMonitor tick matures long windows,
// charges monitoring overhead, and re-applies arbitrated masks machine-wide.
// One Hybrid serves one kernel; it is not safe for concurrent use, matching
// the kernel's single-threaded event loop.
type Hybrid struct {
	cfg     Config
	machine *amp.Machine
	hw      *perfcnt.Hardware
	engine  *place.Engine
	stats   Stats

	seen      int // cursor into kernel.Tasks()
	taskByPID map[int]*osched.Task
	states    []*hybridState // first-mark order (deterministic passes)
}

// hybridState is one process's bookkeeping, created at its first mark and
// held by its hook.
type hybridState struct {
	pid  int
	proc *exec.Process
	task *osched.Task // nil until the first monitor tick after spawn

	// cur is the mark-declared current phase type.
	cur phase.Type
	// table holds the refreshed per-(phase, core-type) IPC estimates and
	// the engine decisions derived from them.
	table *place.Table
	// phases records which phase types were entered at least once.
	phases map[phase.Type]bool

	// Open measurement window (the same discipline as the online manager:
	// a window spanning a migration is discarded).
	es       perfcnt.EventSet
	open     bool
	openMigr int

	probing  bool
	wantMask uint64
	exited   bool
}

// NewHybrid builds the hybrid runtime for one kernel on the run's
// placement engine, which makes every decision and arbitration. The
// hardware pool should be the kernel's own so counter contention stays
// modeled. Of cfg, the hybrid consumes WindowInstrs and Hybrid.Drift; the
// policy is unused (marks classify, the engine places).
// Boundary window closes, re-decisions and drift-damped refreshes are
// traced to the engine's tracer, stamped at the kernel's simulated clock.
func NewHybrid(cfg Config, engine *place.Engine, hw *perfcnt.Hardware) *Hybrid {
	return &Hybrid{
		cfg:       cfg.Normalized(),
		machine:   engine.Capacity().Machine(),
		hw:        hw,
		engine:    engine,
		taskByPID: map[int]*osched.Task{},
	}
}

// Stats returns the aggregate monitoring statistics.
func (m *Hybrid) Stats() Stats { return m.stats }

// Hook returns the per-process mark hook of one image's process. The
// simulator installs it on every spawned process of a hybrid run.
func (m *Hybrid) Hook(img *exec.Image) exec.MarkHook {
	return &hybridHook{m: m, img: img}
}

// hybridHook adapts one process's mark stream onto the shared runtime.
type hybridHook struct {
	m   *Hybrid
	img *exec.Image
	st  *hybridState // nil until the process's first mark
}

// state returns the process's runtime state, creating it at the first mark.
func (h *hybridHook) state(p *exec.Process) *hybridState {
	if h.st == nil {
		h.st = &hybridState{
			pid:    p.PID,
			proc:   p,
			task:   h.m.taskByPID[p.PID],
			cur:    phase.Untyped,
			table:  place.NewTable(len(h.m.machine.Types)),
			phases: map[phase.Type]bool{},
		}
		h.m.states = append(h.m.states, h.st)
	}
	return h.st
}

// OnMark implements exec.MarkHook: a phase boundary. On a real transition
// the measurement window closes exactly at the edge (attributed to the
// phase being exited), and the hook either reads the new phase's
// arbitrated mask from the engine or steers toward the least-measured
// core type while the phase is still unmeasured. A same-phase re-mark
// (mark-dense steady-state loops) leaves the window open: it has no
// cross-phase blur to guard against, and closing there would throttle
// evidence to the boundary-window floor.
func (h *hybridHook) OnMark(p *exec.Process, markID, coreID int) exec.MarkAction {
	m := h.m
	st := h.state(p)
	pt := h.img.MarkType(markID)
	if pt == st.cur {
		return exec.MarkAction{}
	}
	if st.open {
		m.closeWindow(st, coreID, false)
	}
	st.cur = pt
	if pt == phase.Untyped {
		m.engine.Leave(st.pid)
		p.SetSpilled(false)
		st.probing = false
		return exec.MarkAction{}
	}
	if !st.phases[pt] {
		st.phases[pt] = true
		m.stats.Phases++
	}
	if dec := st.table.DecisionOf(int(pt)); dec != nil {
		st.probing = false
		mask, spilled := m.engine.Place(st.pid, *dec)
		p.SetSpilled(spilled)
		return m.request(st, mask)
	}
	// Unmeasured phase: probe. Not a capacity claim until decided.
	m.engine.Leave(st.pid)
	p.SetSpilled(false)
	st.probing = true
	ct := st.table.LeastMeasured(int(pt), st.pid)
	mask := m.machine.TypeMask(ct)
	// Reopen immediately when the probe target includes the current core —
	// the window then measures the steered type from its first instruction.
	if !st.open && st.task != nil && mask&(1<<uint(coreID)) != 0 && m.hw.TryAcquire() {
		st.es = perfcnt.Start(&p.Counters)
		st.openMigr = st.task.Migrations
		st.open = true
	}
	return m.request(st, mask)
}

// OnExit implements exec.MarkHook.
func (h *hybridHook) OnExit(p *exec.Process) {
	m, st := h.m, h.st
	if st == nil {
		return
	}
	if st.open {
		m.hw.Release()
		st.open = false
	}
	m.engine.Leave(st.pid)
	st.exited = true
}

// request resolves a mark's affinity action, counting only real changes.
func (m *Hybrid) request(st *hybridState, mask uint64) exec.MarkAction {
	if mask == 0 {
		return exec.MarkAction{}
	}
	if mask != st.wantMask {
		st.wantMask = mask
		if st.task == nil || st.task.Affinity != mask {
			m.stats.Switches++
		}
	}
	return exec.MarkAction{Mask: mask}
}

// closeWindow settles one measurement window. atTick windows matured on the
// kernel tick and are charged sampleCycles through the caller; boundary
// windows (atTick false) close inside the mark and ride its payload cost.
// The sample is attributed to the phase the window ran under (st.cur at
// close time) on the core it ran on.
func (m *Hybrid) closeWindow(st *hybridState, coreID int, atTick bool) {
	instrs, cycles := st.es.Stop(&st.proc.Counters)
	m.hw.Release()
	st.open = false
	minInstrs := uint64(perfcnt.MinSampleInstrs)
	if atTick {
		minInstrs = m.cfg.WindowInstrs
	}
	if st.task == nil || st.task.Migrations != st.openMigr || cycles == 0 ||
		st.cur == phase.Untyped || instrs < minInstrs || coreID < 0 {
		m.stats.Discarded++
		if tr := m.engine.Tracer(); tr != nil {
			tr.InstantNow("online", "window.discard", trace.PidTasks, st.pid)
		}
		return
	}
	ct := m.machine.Cores[coreID].Type
	if tr := m.engine.Tracer(); tr != nil {
		tr.InstantNow("online", "window", trace.PidTasks, st.pid,
			trace.Arg{Key: "phase", Value: int(st.cur)},
			trace.Arg{Key: "ipc", Value: perfcnt.IPC(instrs, cycles)},
			trace.Arg{Key: "instrs", Value: instrs},
			trace.Arg{Key: "core_type", Value: m.machine.Types[ct].Name},
			trace.Arg{Key: "at_tick", Value: atTick})
	}
	m.record(st, st.cur, ct, perfcnt.IPC(instrs, cycles))
}

// record adds one accepted sample and refreshes the phase's decision: the
// first time every core type is covered the decision is founded; later
// windows keep the estimate current and re-decide from the new means —
// unless drift damping (HybridConfig.Drift) is on and the means have moved
// at most ε since the standing decision, in which case the sample only
// sharpens the estimate and the decision (and its arbitration claim)
// stands untouched. With ε = 0 the damping branch never fires, so the
// undamped hybrid is reproduced bit for bit.
func (m *Hybrid) record(st *hybridState, pt phase.Type, ct amp.CoreTypeID, ipc float64) {
	key := int(pt)
	st.table.Add(key, ct, ipc)
	m.stats.Windows++
	if !st.table.Ready(key) {
		return
	}
	first := st.table.DecisionOf(key) == nil
	if !first && m.cfg.Hybrid.Drift > 0 && st.table.Drift(key) <= m.cfg.Hybrid.Drift {
		m.stats.Damped++
		if tr := m.engine.Tracer(); tr != nil {
			tr.InstantNow("online", "damped", trace.PidTasks, st.pid,
				trace.Arg{Key: "phase", Value: key},
				trace.Arg{Key: "drift", Value: st.table.Drift(key)},
				trace.Arg{Key: "threshold", Value: m.cfg.Hybrid.Drift})
		}
		if st.cur == pt {
			st.probing = false
			m.engine.Enter(st.pid, *st.table.DecisionOf(key))
		}
		return
	}
	dec := m.engine.Decide(st.table.Means(key))
	dec.Mem = st.proc.Img.MemSignature()
	st.table.SetDecision(key, dec)
	if first {
		m.stats.Decisions++
	} else {
		m.stats.Refreshes++
	}
	if tr := m.engine.Tracer(); tr != nil {
		name := "decision"
		if !first {
			name = "redecide"
		}
		tr.InstantNow("online", name, trace.PidTasks, st.pid,
			trace.Arg{Key: "phase", Value: key},
			trace.Arg{Key: "choice", Value: m.machine.Types[dec.Choice].Name})
	}
	if st.cur == pt {
		st.probing = false
		m.engine.Enter(st.pid, dec)
	}
}

// OnTick implements osched.TaskMonitor: bind freshly spawned tasks, retire
// exited ones, mature long windows, advance probing, and re-apply the
// engine's arbitrated masks machine-wide.
func (m *Hybrid) OnTick(k *osched.Kernel, atPs int64) {
	tasks := k.Tasks()
	for ; m.seen < len(tasks); m.seen++ {
		t := tasks[m.seen]
		m.taskByPID[t.Proc.PID] = t
	}

	kept := m.states[:0]
	for _, st := range m.states {
		if st.task == nil {
			st.task = m.taskByPID[st.pid]
		}
		if st.exited || (st.task != nil && st.task.State == osched.TaskExited) {
			if st.open {
				m.hw.Release()
				st.open = false
			}
			m.engine.Leave(st.pid)
			continue
		}
		if st.task != nil {
			m.sample(k, st)
		}
		kept = append(kept, st)
	}
	m.states = kept

	// Placement pass: every decided, non-probing task re-reads its
	// arbitrated mask, so boundary decisions made since the last tick
	// propagate to tasks that are between marks.
	for _, st := range m.states {
		if st.task == nil || st.probing || st.cur == phase.Untyped {
			continue
		}
		dec := st.table.DecisionOf(int(st.cur))
		if dec == nil {
			continue
		}
		mask, spilled := m.engine.Place(st.pid, *dec)
		st.proc.SetSpilled(spilled)
		apply(k, st.task, &st.wantMask, mask, &m.stats)
	}
}

// sample matures one task's tick window and keeps probing moving through
// long sections: a window that retired WindowInstrs closes (charged to the
// monitored task, like the online detector's), and an undecided current
// phase is steered to its next unmeasured core type without waiting for
// the next mark.
func (m *Hybrid) sample(k *osched.Kernel, st *hybridState) {
	if st.open {
		instrs, _ := st.es.Stop(&st.proc.Counters)
		if instrs >= m.cfg.WindowInstrs {
			k.Penalize(st.task, sampleCycles)
			m.stats.ChargedCycles += sampleCycles
			m.closeWindow(st, st.task.Core(), true)
			if st.cur != phase.Untyped && st.table.DecisionOf(int(st.cur)) == nil {
				st.probing = true
				apply(k, st.task, &st.wantMask, m.machine.TypeMask(st.table.LeastMeasured(int(st.cur), st.pid)), &m.stats)
			}
		}
	}
	if !st.open && st.cur != phase.Untyped && m.hw.TryAcquire() {
		st.es = perfcnt.Start(&st.proc.Counters)
		st.openMigr = st.task.Migrations
		st.open = true
	}
}
