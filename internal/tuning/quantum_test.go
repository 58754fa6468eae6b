package tuning

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
)

// TestOnQuantumClosesLongSections verifies the bounded-monitoring extension:
// a section that never reaches another mark still yields samples and a
// decision via end-of-quantum callbacks.
func TestOnQuantumClosesLongSections(t *testing.T) {
	m := amp.Quad2Fast2Slow()
	hw := perfcnt.NewHardware(0)
	cfg := DefaultConfig()
	cfg.MaxMonitorCycles = 1000
	tu := newTuner(cfg, m, hw, fakeMarks{0: 0})
	p := &exec.Process{}

	// One mark starts monitoring; the section then runs "forever" with only
	// quantum callbacks.
	act := tu.OnMark(p, 0, 0)
	if act.Mask == 0 {
		t.Fatal("no probe mask")
	}
	for i := 0; i < 10 && !tu.Decided(0); i++ {
		// Simulate a quantum of compute-ish execution (equal IPC per type).
		p.Counters.Add(2000, 2000)
		tu.OnQuantum(p, 0)
	}
	if !tu.Decided(0) {
		t.Fatal("quantum-closed sections never produced a decision")
	}
	if got := choice(tu, 0); got != amp.FastType {
		t.Errorf("compute-like section assigned to %d, want fast", got)
	}
	if hw.InUse() != 0 {
		t.Error("event set leaked after decision")
	}
}

// TestOnQuantumRespectsBound verifies short sections are left alone.
func TestOnQuantumRespectsBound(t *testing.T) {
	m := amp.Quad2Fast2Slow()
	cfg := DefaultConfig()
	cfg.MaxMonitorCycles = 1000000
	tu := newTuner(cfg, m, perfcnt.NewHardware(0), fakeMarks{0: 0})
	p := &exec.Process{}
	tu.OnMark(p, 0, 0)
	p.Counters.Add(100, 100) // far below the bound
	if act := tu.OnQuantum(p, 0); act.Mask != 0 {
		t.Error("quantum closed a section below the bound")
	}
	if tu.SamplesTaken != 0 {
		t.Error("sample recorded below the bound")
	}
}

// TestOnQuantumDisabled verifies MaxMonitorCycles=0 reverts to the strict
// paper reading.
func TestOnQuantumDisabled(t *testing.T) {
	m := amp.Quad2Fast2Slow()
	cfg := DefaultConfig()
	cfg.MaxMonitorCycles = 0
	tu := newTuner(cfg, m, perfcnt.NewHardware(0), fakeMarks{0: 0})
	p := &exec.Process{}
	tu.OnMark(p, 0, 0)
	p.Counters.Add(1e9, 1e9)
	if act := tu.OnQuantum(p, 0); act.Mask != 0 {
		t.Error("disabled bound still acted")
	}
}

// TestOnQuantumSteersDecidedSections verifies that after the decision the
// quantum hook pins the remainder of the current section.
func TestOnQuantumSteersDecidedSections(t *testing.T) {
	m := amp.Quad2Fast2Slow()
	cfg := DefaultConfig()
	cfg.MaxMonitorCycles = 1000
	tu := newTuner(cfg, m, perfcnt.NewHardware(0), fakeMarks{0: 0})
	p := &exec.Process{}
	tu.OnMark(p, 0, 0)
	var lastMask uint64
	for i := 0; i < 10; i++ {
		// Memory-like: higher IPC when probed on the slow type.
		if tu.mon.active && tu.mon.coreType == amp.SlowType {
			p.Counters.Add(2000, 4100) // IPC ~0.49
		} else {
			p.Counters.Add(2000, 6000) // IPC ~0.33
		}
		if act := tu.OnQuantum(p, 0); act.Mask != 0 {
			lastMask = act.Mask
		}
	}
	if !tu.Decided(0) {
		t.Fatal("no decision")
	}
	if choice(tu, 0) != amp.SlowType {
		t.Errorf("memory-like section assigned %d, want slow", choice(tu, 0))
	}
	if lastMask != m.TypeMask(amp.SlowType) {
		t.Errorf("last steering mask = %b, want slow type mask", lastMask)
	}
}
