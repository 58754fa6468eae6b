package online

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/osched"
	"phasetune/internal/place"
)

// hybridKernel boots a quad kernel and a hybrid runtime on it, spawns one
// process carrying the hybrid's hook for a two-mark image (mark 0 types
// phase 0, mark 1 phase 1), and binds the task with one tick.
func hybridKernel(t *testing.T) (*osched.Kernel, *Hybrid, *exec.Process, *hybridHook) {
	t.Helper()
	machine := amp.Quad2Fast2Slow()
	k, err := osched.NewKernel(machine, exec.DefaultCostModel(), osched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := place.NewEngine(machine, 0.06, place.Config{})
	m := NewHybrid(DefaultConfig(), eng, k.Hardware)
	img := &exec.Image{Marks: []instrument.Mark{{ID: 0, Type: 0}, {ID: 1, Type: 1}}}
	h := m.Hook(img).(*hybridHook)
	p := &exec.Process{PID: 1, Img: img, Hook: h}
	k.Spawn(p, "alt", 0, 0)
	m.OnTick(k, 0)
	return k, m, p, h
}

// TestHybridStateLifetime pins where a hybrid process's state lives: its
// hook creates it at the first mark, and an exit — before any mark, or
// between ticks — leaves no event set and no engine claim behind.
func TestHybridStateLifetime(t *testing.T) {
	t.Run("exit before first mark", func(t *testing.T) {
		k, m, p, h := hybridKernel(t)
		h.OnExit(p)
		m.OnTick(k, 0)
		if h.st != nil || len(m.states) != 0 {
			t.Errorf("unmarked process left state: hook %v, %d states", h.st, len(m.states))
		}
		if mask := m.engine.MaskFor(p.PID); mask != 0 {
			t.Errorf("unmarked process holds an engine claim (mask %b)", mask)
		}
		if n := m.hw.InUse(); n != 0 {
			t.Errorf("unmarked process holds %d event sets", n)
		}
	})

	t.Run("exit between ticks", func(t *testing.T) {
		k, m, p, h := hybridKernel(t)
		h.OnMark(p, 0, 0) // first mark: phase 0 is unmeasured, so it probes
		if h.st == nil || len(m.states) != 1 {
			t.Fatalf("first mark made no state: hook %v, %d states", h.st, len(m.states))
		}
		h.st.table.SetDecision(1, m.engine.Decide([]float64{1.0, 0.5}))
		h.OnMark(p, 1, 0) // phase 1 is decided: the engine holds a claim
		m.OnTick(k, 0)    // the tick opens a window on the current phase
		if m.engine.MaskFor(p.PID) == 0 || m.hw.InUse() != 1 {
			t.Fatalf("setup: claim mask %b, %d event sets in use; want a claim and one",
				m.engine.MaskFor(p.PID), m.hw.InUse())
		}

		h.OnExit(p)
		if n := m.hw.InUse(); n != 0 {
			t.Errorf("exit left %d event sets in use", n)
		}
		if mask := m.engine.MaskFor(p.PID); mask != 0 {
			t.Errorf("exit left an engine claim (mask %b)", mask)
		}
		m.OnTick(k, 0)
		if len(m.states) != 0 {
			t.Errorf("%d states remain after the exited process's tick", len(m.states))
		}
	})
}
