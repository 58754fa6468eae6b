// Package tuning implements the paper's dynamic analysis and section-to-core
// assignment (§II-B): the runtime logic embedded in phase marks.
//
// Each process carries one Tuner (the paper's marks are inlined into the
// binary; the Tuner is their shared state). The first executions of each
// phase type are *representative sections*: the tuner steers them across
// core types and measures their IPC through the performance-counter
// interface. Once every core type has a sample for a phase type, the
// assignment is fixed with Algorithm 2 and every later mark of that type
// reduces to an affinity switch — no further monitoring, which is where the
// paper's "negligible overhead" comes from.
package tuning

import (
	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/place"
)

// Config parameterizes the tuner.
type Config struct {
	// Delta is the paper's IPC threshold δ in Algorithm 2. The run driver
	// builds the run's placement engine from it; the tuner itself decides
	// through that engine and never reads it.
	Delta float64
	// MaxMonitorCycles bounds one monitoring window: a section still being
	// monitored after this many cycles yields its sample early, and the
	// tuner moves on to probing the next core type within the same section
	// (long sections contain many representative sub-sections). Zero
	// disables the bound — the strict reading of the paper, where samples
	// close only at the next phase mark.
	MaxMonitorCycles uint64
	// PinSingleCore pins decided phase types to the single chosen core
	// instead of all cores of its type. The paper's Algorithm 2 returns one
	// core; pinning to the core's *type* lets the OS balance within the
	// type (see DESIGN.md). The type pin is the default;
	// experiments.AblationPinMode compares both.
	PinSingleCore bool
	// Spill enables capacity-aware spill arbitration: decided phase types
	// register their measured per-type rates as claims with the run's
	// placement engine, and masks come from the engine's
	// capacity arbitration instead of a raw type pin. This is the ablation
	// that fixes static pin-to-type herding on memory-dominant workloads
	// (every task's Algorithm 2 choice lands on the slow cores while fast
	// cores idle); see place.Engine.Arbitrate. Implies type-level pinning
	// (PinSingleCore is ignored).
	Spill bool
}

// DefaultConfig is the headline configuration. The paper's Table 2 row uses
// δ = 0.15 on its hardware; our simulated platform's DRAM-bound IPC gap is
// ~0.15 uncontended but compresses to ~0.10 under shared-L2 contention, so
// the equivalent operating point (below the contended memory gap, above
// compute noise) is δ = 0.06. Fig. 6's sweep explores the whole range.
// One sample per core type suffices because Select treats near-ties
// robustly; more samples delay decisions past the last phase mark of
// low-alternation programs.
func DefaultConfig() Config {
	return Config{
		Delta:            0.06,
		MaxMonitorCycles: 40000,
	}
}

// monitorState is an in-flight representative-section measurement.
type monitorState struct {
	active   bool
	ptype    phase.Type
	coreType amp.CoreTypeID
	es       perfcnt.EventSet
}

// Tuner is the per-process runtime. It implements exec.MarkHook.
type Tuner struct {
	cfg   Config
	hw    *perfcnt.Hardware
	marks markTable

	// engine is the run's placement engine (one per kernel): every
	// decision is its Decide, every mask its TypeMask, and under
	// Config.Spill every mask comes out of its arbitration.
	engine *place.Engine

	// table accumulates representative-section IPC per (phase type, core
	// type) and holds each phase type's Decision once it is fixed.
	table *place.Table
	cur   phase.Type
	mon   monitorState

	// SwitchRequests counts affinity calls issued (diagnostics; actual
	// migrations are counted by the kernel).
	SwitchRequests int
	// SamplesTaken counts accepted monitoring samples.
	SamplesTaken int
}

// markTable resolves mark IDs to phase types; exec.Image satisfies it.
type markTable interface {
	MarkType(id int) phase.Type
}

// NewTuner builds the runtime for one process. engine is the run's
// placement engine, shared by every tuner of the kernel; its tracer
// records the tuner's decisions.
func NewTuner(cfg Config, engine *place.Engine, hw *perfcnt.Hardware, marks markTable) *Tuner {
	return &Tuner{
		cfg:    cfg,
		hw:     hw,
		marks:  marks,
		engine: engine,
		table:  place.NewTable(len(engine.Machine().Types)),
		cur:    phase.Untyped,
	}
}

// maskFor resolves a decided phase type's affinity mask: the engine's
// arbitrated mask under spill, the fixed pin otherwise. The ledger learns
// whether arbitration parked the process off its chosen type, so asymmetry
// loss under a knowing spill is charged to the spill category.
func (tu *Tuner) maskFor(p *exec.Process, dec *place.Decision) uint64 {
	if !tu.cfg.Spill {
		mask := tu.engine.TypeMask(dec.Choice)
		if tu.cfg.PinSingleCore {
			mask &= -mask // the type's lowest-numbered core
		}
		return mask
	}
	mask, spilled := tu.engine.Place(p.PID, *dec)
	p.SetSpilled(spilled)
	return mask
}

// OnMark implements exec.MarkHook: the executable payload of a phase mark.
func (tu *Tuner) OnMark(p *exec.Process, markID int, coreID int) exec.MarkAction {
	pt := tu.marks.MarkType(markID)

	// A mark ends the section being monitored, whatever its type.
	if tu.mon.active {
		tu.finishMonitor(p)
	}

	if pt == tu.cur {
		return exec.MarkAction{} // no transition: nothing to do
	}
	tu.cur = pt

	if dec := tu.table.DecisionOf(int(pt)); dec != nil {
		tu.SwitchRequests++
		return exec.MarkAction{Mask: tu.maskFor(p, dec)}
	}
	// An undecided phase is not a capacity claim — probing overrides
	// arbitration until the decision lands.
	if tu.cfg.Spill {
		tu.engine.Leave(p.PID)
		p.SetSpilled(false)
	}
	return tu.probe(p, pt)
}

// probe steers a representative section of an undecided phase type to the
// core type with the fewest samples and starts monitoring there if a
// counter event set is free. If none is free it still steers, and samples
// next time (the paper waits on counters; the deferral is counted by
// perfcnt). Ties resolve round-robin from a PID-derived offset so that
// concurrently monitoring processes spread their representative sections
// across core types instead of all probing type 0 first (which would herd
// every fresh process onto the fast pair).
func (tu *Tuner) probe(p *exec.Process, pt phase.Type) exec.MarkAction {
	ct := tu.table.LeastMeasured(int(pt), p.PID+tu.SamplesTaken)
	if tu.hw.TryAcquire() {
		tu.mon = monitorState{active: true, ptype: pt, coreType: ct, es: perfcnt.Start(&p.Counters)}
	}
	tu.SwitchRequests++
	return exec.MarkAction{Mask: tu.engine.TypeMask(ct)}
}

// finishMonitor closes the active measurement and records the sample,
// fixing the phase type's decision once every core type has one.
func (tu *Tuner) finishMonitor(p *exec.Process) {
	instrs, cycles := tu.mon.es.Stop(&p.Counters)
	tu.hw.Release()
	mon := tu.mon
	tu.mon = monitorState{}
	if instrs < perfcnt.MinSampleInstrs || cycles == 0 {
		return // too short to be a representative measurement
	}
	key := int(mon.ptype)
	if tu.table.DecisionOf(key) != nil {
		return
	}
	tu.table.Add(key, mon.coreType, perfcnt.IPC(instrs, cycles))
	tu.SamplesTaken++
	if tu.table.Ready(key) {
		tu.decide(p, mon.ptype)
	}
}

// decide fixes the section-to-core assignment for a phase type from its
// mean representative IPC per core type.
func (tu *Tuner) decide(p *exec.Process, pt phase.Type) {
	dec := tu.engine.Decide(tu.table.Means(int(pt)))
	if tu.cfg.Spill {
		// Attach the image's shared-cache signature so contention-priced
		// arbitration can project crowding costs. Inert (never read) when
		// the engine's pricing is off.
		dec.Mem = p.Img.MemSignature()
	}
	tu.table.SetDecision(int(pt), dec)
}

// OnExit implements exec.MarkHook: release any held event set and withdraw
// the process's capacity claim.
func (tu *Tuner) OnExit(p *exec.Process) {
	if tu.mon.active {
		tu.finishMonitor(p)
	}
	if tu.cfg.Spill {
		tu.engine.Leave(p.PID)
	}
}

// OnQuantum implements exec.QuantumHook: bounded monitoring windows. When
// the active window has run long enough, its sample is recorded and — if the
// phase type is still undecided — the next core type is probed immediately,
// inside the same section. Once the decision lands, the section is steered
// to its assigned cores without waiting for the next phase mark.
func (tu *Tuner) OnQuantum(p *exec.Process, coreID int) exec.MarkAction {
	if tu.cfg.MaxMonitorCycles == 0 || !tu.mon.active {
		return exec.MarkAction{}
	}
	_, cycles := tu.mon.es.Stop(&p.Counters)
	if cycles < tu.cfg.MaxMonitorCycles {
		return exec.MarkAction{}
	}
	pt := tu.mon.ptype
	tu.finishMonitor(p)
	if dec := tu.table.DecisionOf(int(pt)); dec != nil {
		tu.SwitchRequests++
		return exec.MarkAction{Mask: tu.maskFor(p, dec)}
	}
	return tu.probe(p, pt)
}

// Decided reports whether the phase type has a fixed assignment.
func (tu *Tuner) Decided(pt phase.Type) bool {
	return tu.table.DecisionOf(int(pt)) != nil
}

// AllCores is the mark hook of the paper's time-overhead runs (§IV-B2):
// every mark issues an affinity call naming all cores, so marks run and
// the affinity API is exercised, but placement never changes. Its value
// is the machine's all-cores mask (amp.Machine.AllMask).
type AllCores uint64

// OnMark implements exec.MarkHook.
func (m AllCores) OnMark(*exec.Process, int, int) exec.MarkAction {
	return exec.MarkAction{Mask: uint64(m)}
}

// OnExit implements exec.MarkHook; the hook holds nothing.
func (AllCores) OnExit(*exec.Process) {}
