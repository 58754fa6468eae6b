package online

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/osched"
	"phasetune/internal/place"
	"phasetune/internal/prog"
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

// tickWatch ticks a hybrid and records, after every tick, how many
// spawned tasks still wait in its task map and whether that ever exceeded
// the kernel's live tasks.
type tickWatch struct {
	*Hybrid
	ticks, maxPending, overLive int
}

func (w *tickWatch) OnTick(k *osched.Kernel, atPs int64) {
	w.Hybrid.OnTick(k, atPs)
	w.ticks++
	n := len(w.taskByPID)
	w.maxPending = max(w.maxPending, n)
	if n > k.Live() {
		w.overLive++
	}
}

// TestHybridTaskMapBounded runs an open arrival stream of hybrid
// processes, every other one of an image that never marks, so it exits
// before a first mark. The tasks waiting for a binding must stay live
// ones: after every tick the map holds no more entries than the kernel has
// live tasks, and it is empty once every process has exited.
func TestHybridTaskMapBounded(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	k, err := osched.NewKernel(machine, cm, osched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewHybrid(DefaultConfig(), place.NewEngine(machine, 0.06, place.Config{}), k.Hardware)
	watch := &tickWatch{Hybrid: m}
	k.Monitor = watch

	image := func(name string, marked bool) *exec.Image {
		b := prog.NewBuilder(name)
		main := b.Proc("main")
		for id, mix := range []prog.BlockMix{{IntALU: 30}, {Load: 12, WorkingSetKB: 256, Locality: 0.5}} {
			if marked {
				main.Emit(isa.Instruction{Op: isa.PhaseMark, MarkID: id})
			}
			main.Loop(200, func(pb *prog.ProcBuilder) { pb.Straight(mix) })
		}
		main.Ret()
		p := b.MustBuild()
		bin := &instrument.Binary{Prog: p, Marks: []instrument.Mark{{ID: 0, Type: 0}, {ID: 1, Type: 1}}}
		img, err := exec.NewImage(p, bin, cm)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	images := []*exec.Image{image("marked", true), image("plain", false)}
	const jobs = 80
	for i := 0; i < jobs; i++ {
		img := images[i%2]
		k.At(osched.SecToPs(0.03*float64(i)), func(k *osched.Kernel) {
			p := exec.NewProcess(k.NextPID(), img, &k.Cost, uint64(i)+1, m.Hook(img))
			k.Spawn(p, img.Name, i, 0)
		})
	}
	k.Run(60)
	if k.Live() != 0 || len(k.Tasks()) != jobs || m.Stats().Phases == 0 {
		t.Fatalf("setup: %d of %d tasks spawned, %d live at the end, %d phases entered",
			len(k.Tasks()), jobs, k.Live(), m.Stats().Phases)
	}
	if watch.overLive > 0 || len(m.taskByPID) != 0 {
		t.Errorf("task map outgrew the live tasks at %d of %d ticks and holds %d tasks after every exit",
			watch.overLive, watch.ticks, len(m.taskByPID))
	}
	if watch.maxPending >= jobs/4 {
		t.Errorf("task map peaked at %d of %d spawned tasks", watch.maxPending, jobs)
	}
}
