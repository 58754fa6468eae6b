package tuning

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/place"
)

// fakeMarks is a markTable over a fixed mapping.
type fakeMarks map[int]phase.Type

func (f fakeMarks) MarkType(id int) phase.Type { return f[id] }

func quad() *amp.Machine { return amp.Quad2Fast2Slow() }

// newTuner builds a tuner on an unpriced engine of its own at cfg.Delta.
func newTuner(cfg Config, m *amp.Machine, hw *perfcnt.Hardware, marks markTable) *Tuner {
	return NewTuner(cfg, place.NewEngine(m, cfg.Delta, place.Config{}), hw, marks)
}

func TestSelectMemoryBoundPicksSlow(t *testing.T) {
	m := quad()
	// f[fast]=0.4, f[slow]=0.7: gap 0.3 > δ=0.15 -> slow.
	got := place.Select(m, []float64{0.4, 0.7}, 0.15)
	if got != amp.SlowType {
		t.Errorf("Select = %d, want slow", got)
	}
}

func TestSelectComputeBoundTiePicksFast(t *testing.T) {
	m := quad()
	// Equal IPC: tie-break puts the faster type first; no jump happens.
	got := place.Select(m, []float64{0.9, 0.9}, 0.15)
	if got != amp.FastType {
		t.Errorf("Select = %d, want fast on IPC tie", got)
	}
}

func TestSelectSmallGapStays(t *testing.T) {
	m := quad()
	// Gap below δ: stay at the lowest-IPC candidate (fast here).
	got := place.Select(m, []float64{0.8, 0.9}, 0.15)
	if got != amp.FastType {
		t.Errorf("Select = %d, want fast (gap 0.1 < 0.15)", got)
	}
}

func TestSelectHugeDeltaNeverJumps(t *testing.T) {
	m := quad()
	got := place.Select(m, []float64{0.2, 0.9}, 10)
	if got != amp.FastType {
		t.Errorf("Select = %d, want fast (δ too large to jump)", got)
	}
}

func TestSelectZeroDeltaAlwaysMax(t *testing.T) {
	m := quad()
	got := place.Select(m, []float64{0.5, 0.500001}, 0)
	if got != amp.SlowType {
		t.Errorf("Select = %d, want slow (any gap clears δ=0)", got)
	}
}

func TestSelectMonotoneInDelta(t *testing.T) {
	// As δ grows, the selected candidate's IPC can only go down (fewer
	// jumps are allowed).
	m := quad()
	f := []float64{0.4, 0.7}
	prev := 1e9
	for _, d := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		sel := place.Select(m, f, d)
		if f[sel] > prev {
			t.Errorf("δ=%g selected higher-IPC candidate than smaller δ", d)
		}
		prev = f[sel]
	}
}

func TestSelectEmpty(t *testing.T) {
	if got := place.Select(quad(), nil, 0.1); got != 0 {
		t.Errorf("Select(empty) = %d, want 0", got)
	}
}

// runMark drives the tuner with a synthetic process that accumulates the
// given per-section counters. The process's image is irrelevant to the
// tuner; only counters matter.
func newProc() *exec.Process {
	return &exec.Process{}
}

// choice returns a decided phase type's Algorithm 2 core type.
func choice(tu *Tuner, pt phase.Type) amp.CoreTypeID {
	return tu.table.DecisionOf(int(pt)).Choice
}

// enter lands the process in decided phase type pt through a real
// transition from the other type of a two-type mark table, returning the
// mark's mask.
func enter(tu *Tuner, p *exec.Process, pt phase.Type) uint64 {
	tu.OnMark(p, int(1-pt), 0)
	return tu.OnMark(p, int(pt), 0).Mask
}

func TestTunerDecidesAfterSampling(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(8)
	marks := fakeMarks{0: 0, 1: 1}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	tu := newTuner(cfg, m, hw, marks)
	p := newProc()

	// First mark of type 0: tuner should steer to some core type and start
	// monitoring.
	act := tu.OnMark(p, 0, 0)
	if act.Mask == 0 {
		t.Fatal("no steering mask on first encounter")
	}
	// Simulate a compute section: equal IPC on both types. Section 1 runs
	// on whatever type was probed; feed counters accordingly.
	p.Counters.Add(1000, 1000) // IPC 1.0

	// Next mark (type 1) closes the section and records a sample.
	act = tu.OnMark(p, 1, 0)
	if act.Mask == 0 {
		t.Fatal("no steering mask for second phase type")
	}
	p.Counters.Add(1000, 2500) // IPC 0.4 for the type-1 section

	// Alternate until both types are decided.
	for i := 0; i < 20 && (!tu.Decided(0) || !tu.Decided(1)); i++ {
		tu.OnMark(p, 0, 0)
		p.Counters.Add(1000, 1000)
		tu.OnMark(p, 1, 0)
		p.Counters.Add(1000, 2500)
	}
	if !tu.Decided(0) || !tu.Decided(1) {
		t.Fatalf("tuner never decided: 0=%v 1=%v after sampling", tu.Decided(0), tu.Decided(1))
	}
	if tu.SamplesTaken < 4 {
		t.Errorf("samples taken = %d, want >= 4 (2 types x 2 core types)", tu.SamplesTaken)
	}
}

func TestTunerDecidedMarksJustSwitch(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(8)
	marks := fakeMarks{0: 0, 1: 1}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	tu := newTuner(cfg, m, hw, marks)
	p := newProc()
	for i := 0; i < 30 && (!tu.Decided(0) || !tu.Decided(1)); i++ {
		tu.OnMark(p, 0, 0)
		p.Counters.Add(1000, 1000)
		tu.OnMark(p, 1, 0)
		p.Counters.Add(1000, 2500)
	}
	if !tu.Decided(0) {
		t.Fatal("type 0 undecided")
	}
	// After decisions, event sets must all be released.
	if hw.InUse() != 0 {
		t.Errorf("event sets still held after decisions: %d", hw.InUse())
	}
	// A decided mark returns the decision mask without acquiring counters.
	before := hw.Defers()
	act := tu.OnMark(p, 0, 0)
	if act.Mask == 0 {
		t.Error("decided mark did not return a mask")
	}
	if hw.InUse() != 0 || hw.Defers() != before {
		t.Error("decided mark touched counter hardware")
	}
}

func TestTunerComputePinsFastMemoryPinsSlow(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(8)
	marks := fakeMarks{0: 0, 1: 1}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	cfg.Delta = 0.15
	tu := newTuner(cfg, m, hw, marks)
	p := newProc()
	// Compute section: IPC 1.0 on both types. Memory section: IPC 0.4 fast,
	// 0.7 slow. The probe order is internal; feed IPC by probed type.
	feed := func(pt phase.Type) {
		probed := tu.mon.coreType
		switch {
		case pt == 0:
			p.Counters.Add(1000, 1000)
		case probed == amp.FastType:
			p.Counters.Add(1000, 2500) // 0.4
		default:
			p.Counters.Add(1000, 1429) // ~0.7
		}
	}
	cur := phase.Type(0)
	for i := 0; i < 40 && (!tu.Decided(0) || !tu.Decided(1)); i++ {
		tu.OnMark(p, int(cur), 0)
		feed(cur)
		cur = 1 - cur
	}
	if got := choice(tu, 0); got != amp.FastType {
		t.Errorf("compute phase assigned to %d, want fast", got)
	}
	if got := choice(tu, 1); got != amp.SlowType {
		t.Errorf("memory phase assigned to %d, want slow", got)
	}
	// Masks: type pin by default.
	if mask := enter(tu, p, 0); mask != m.TypeMask(amp.FastType) {
		t.Errorf("compute mask = %b, want fast type mask", mask)
	}
}

func TestTunerPinSingleCore(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(8)
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	cfg.PinSingleCore = true
	tu := newTuner(cfg, m, hw, fakeMarks{0: 0, 1: 1})
	p := newProc()
	for i := 0; i < 30 && !tu.Decided(0); i++ {
		tu.OnMark(p, 0, 0)
		p.Counters.Add(1000, 1000)
		tu.OnMark(p, 1, 0)
		p.Counters.Add(1000, 1000)
	}
	mask := enter(tu, p, 0)
	if cores := amp.MaskCores(mask, m.NumCores()); len(cores) != 1 || cores[0] != m.CoresOfType(choice(tu, 0))[0] {
		t.Errorf("single-core pin selected cores %v, want the first core of the chosen type", cores)
	}
}

func TestAllCoresMode(t *testing.T) {
	m := quad()
	hook := AllCores(m.AllMask())
	p := newProc()
	for i := 0; i < 10; i++ {
		if act := hook.OnMark(p, i%2, 0); act.Mask != m.AllMask() {
			t.Fatalf("all-cores hook returned mask %b, want all", act.Mask)
		}
	}
	if _, ok := exec.MarkHook(hook).(exec.QuantumHook); ok {
		t.Error("all-cores hook has quantum callbacks; overhead runs must not monitor")
	}
}

func TestSameTypeMarkIsNoop(t *testing.T) {
	m := quad()
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	tu := newTuner(cfg, m, perfcnt.NewHardware(8), fakeMarks{0: 0, 1: 0})
	p := newProc()
	tu.OnMark(p, 0, 0)
	p.Counters.Add(1000, 1000)
	req := tu.SwitchRequests
	// Mark 1 has the same phase type: it must not issue a new affinity call
	// (it does close the monitoring section).
	if act := tu.OnMark(p, 1, 0); act.Mask != 0 {
		t.Error("same-type mark issued an affinity call")
	}
	if tu.SwitchRequests != req {
		t.Error("same-type mark counted as switch request")
	}
}

func TestShortSectionsRejected(t *testing.T) {
	m := quad()
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 1000
	tu := newTuner(cfg, m, perfcnt.NewHardware(8), fakeMarks{0: 0, 1: 1})
	p := newProc()
	tu.OnMark(p, 0, 0)
	p.Counters.Add(10, 10) // far below MinSectionInstrs
	tu.OnMark(p, 1, 0)
	if tu.SamplesTaken != 0 {
		t.Error("short section accepted as sample")
	}
}

func TestCounterContentionDefersMonitoring(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(1)
	if !hw.TryAcquire() { // hog the only slot
		t.Fatal("setup: could not hog slot")
	}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	tu := newTuner(cfg, m, hw, fakeMarks{0: 0, 1: 1})
	p := newProc()
	act := tu.OnMark(p, 0, 0)
	if act.Mask == 0 {
		t.Error("deferred monitoring still must steer the section")
	}
	p.Counters.Add(1000, 1000)
	tu.OnMark(p, 1, 0)
	if tu.SamplesTaken != 0 {
		t.Error("sample recorded without a counter slot")
	}
	if hw.Defers() == 0 {
		t.Error("contention not recorded")
	}
	hw.Release()
}

func TestOnExitReleasesEventSet(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(4)
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	tu := newTuner(cfg, m, hw, fakeMarks{0: 0})
	p := newProc()
	tu.OnMark(p, 0, 0)
	if hw.InUse() != 1 {
		t.Fatalf("monitoring did not acquire a slot")
	}
	p.Counters.Add(5000, 5000)
	tu.OnExit(p)
	if hw.InUse() != 0 {
		t.Error("OnExit leaked the event set")
	}
	if tu.SamplesTaken != 1 {
		t.Error("exit-closed section not recorded as sample")
	}
}

// driveMemDecision alternates a tuner between two phase types until both
// decide, feeding memory-bound counters (higher IPC on the slow type) for
// type 0 and compute counters for type 1.
func driveMemDecision(t *testing.T, tu *Tuner, p *exec.Process) {
	t.Helper()
	cur := phase.Type(0)
	for i := 0; i < 40 && (!tu.Decided(0) || !tu.Decided(1)); i++ {
		tu.OnMark(p, int(cur), 0)
		if cur == 0 {
			if tu.mon.coreType == amp.FastType {
				p.Counters.Add(1000, 2500) // 0.4
			} else {
				p.Counters.Add(1000, 1429) // ~0.7
			}
		} else {
			p.Counters.Add(1000, 1000)
		}
		cur = 1 - cur
	}
	if !tu.Decided(0) || !tu.Decided(1) {
		t.Fatal("tuner never decided both phase types")
	}
}

// TestTunerSpillArbitratesHerd is the capacity-aware static runtime: three
// processes whose memory phase all prefers the quad's slow pair share one
// placement engine, and the engine must spill one of them to the idle fast
// cores (quota for 3 tasks is fast 2 / slow 1, band 1) instead of herding
// all three onto the slow type as the plain pin-to-type runtime does.
func TestTunerSpillArbitratesHerd(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(16)
	marks := fakeMarks{0: 0, 1: 1}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	cfg.Delta = 0.15
	cfg.Spill = true
	eng := place.NewEngine(m, cfg.Delta, place.Config{})

	slowMask := m.TypeMask(amp.SlowType)
	masks := map[uint64]int{}
	for pid := 1; pid <= 3; pid++ {
		tu := NewTuner(cfg, eng, hw, marks)
		p := &exec.Process{PID: pid}
		driveMemDecision(t, tu, p)
		if c := choice(tu, 0); c != amp.SlowType {
			t.Fatalf("pid %d: memory phase decision %d, want slow", pid, c)
		}
		// Land the process in its memory phase (via the compute phase, so
		// the mark is a real transition) and read the arbitrated mask.
		tu.OnMark(p, 1, 0)
		act := tu.OnMark(p, 0, 0)
		if act.Mask == 0 {
			t.Fatalf("pid %d: decided mark returned no mask", pid)
		}
		masks[act.Mask]++
	}
	if masks[slowMask] == 3 {
		t.Fatalf("all three memory tasks herded onto the slow pair despite spill: %v", masks)
	}
	if masks[m.TypeMask(amp.FastType)] == 0 {
		t.Fatalf("no task spilled to the idle fast cores: %v", masks)
	}
}

// TestTunerWithoutSpillHerds is the control: on the same shared engine the
// plain runtime pins every memory phase to the slow type (the herding the
// spill ablation fixes). Pinning versus claiming is the only difference.
func TestTunerWithoutSpillHerds(t *testing.T) {
	m := quad()
	hw := perfcnt.NewHardware(16)
	marks := fakeMarks{0: 0, 1: 1}
	cfg := DefaultConfig()
	cfg.MinSectionInstrs = 10
	cfg.Delta = 0.15
	eng := place.NewEngine(m, cfg.Delta, place.Config{})
	slowMask := m.TypeMask(amp.SlowType)
	for pid := 1; pid <= 3; pid++ {
		tu := NewTuner(cfg, eng, hw, marks)
		p := &exec.Process{PID: pid}
		driveMemDecision(t, tu, p)
		tu.OnMark(p, 1, 0)
		if act := tu.OnMark(p, 0, 0); act.Mask != slowMask {
			t.Fatalf("pid %d: plain runtime mask %b, want slow herd %b", pid, act.Mask, slowMask)
		}
	}
}
