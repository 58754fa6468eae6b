package osched

import (
	"math"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/prog"
)

func computeProgram(trips float64) *prog.Program {
	b := prog.NewBuilder("compute")
	b.Proc("main").Loop(trips, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 16, IntMul: 4})
	}).Ret()
	return b.MustBuild()
}

func memoryProgram(trips float64) *prog.Program {
	b := prog.NewBuilder("memory")
	b.Proc("main").Loop(trips, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{Load: 14, Store: 6, IntALU: 2, WorkingSetKB: 256 * 1024, Locality: 0.2})
	}).Ret()
	return b.MustBuild()
}

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := NewKernel(amp.Quad2Fast2Slow(), exec.DefaultCostModel(), Config{})
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	return k
}

func spawnProg(t *testing.T, k *Kernel, p *prog.Program, seed uint64) *Task {
	t.Helper()
	img, err := exec.NewImage(p, nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	proc := exec.NewProcess(k.NextPID(), img, &k.Cost, seed, nil)
	return k.Spawn(proc, p.Name, -1, 0)
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	k := newKernel(t)
	task := spawnProg(t, k, computeProgram(500), 1)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatalf("RunUntilDone: %v", err)
	}
	if task.State != TaskExited {
		t.Fatalf("task state = %v, want exited", task.State)
	}
	if task.CompletionPs <= task.ArrivalPs {
		t.Errorf("completion %d <= arrival %d", task.CompletionPs, task.ArrivalPs)
	}
	if k.Live() != 0 {
		t.Errorf("live = %d, want 0", k.Live())
	}
	if k.TotalInstructions() != task.Proc.Counters.Instructions {
		t.Errorf("kernel instr %d != process instr %d", k.TotalInstructions(), task.Proc.Counters.Instructions)
	}
}

func TestManyTasksAllComplete(t *testing.T) {
	k := newKernel(t)
	var tasks []*Task
	for i := 0; i < 12; i++ {
		var p *prog.Program
		if i%2 == 0 {
			p = computeProgram(300)
		} else {
			p = memoryProgram(300)
		}
		tasks = append(tasks, spawnProg(t, k, p, uint64(i+1)))
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatalf("RunUntilDone: %v", err)
	}
	for i, task := range tasks {
		if task.State != TaskExited {
			t.Errorf("task %d did not exit", i)
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []int64 {
		k := newKernel(t)
		var tasks []*Task
		for i := 0; i < 8; i++ {
			tasks = append(tasks, spawnProg(t, k, memoryProgram(200), uint64(i+1)))
		}
		if err := k.RunUntilDone(1e7); err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, task := range tasks {
			out = append(out, task.CompletionPs)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAffinityRestrictsPlacement(t *testing.T) {
	k := newKernel(t)
	img, err := exec.NewImage(computeProgram(500), nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	// Pin to slow cores only (mask 0b1100).
	proc := exec.NewProcess(k.NextPID(), img, &k.Cost, 1, nil)
	task := k.Spawn(proc, "pinned", -1, 0b1100)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	_ = task
	// With only slow cores allowed, runtime must match the slow-core clock:
	// compare against an unpinned copy that lands on fast core 0.
	k2 := newKernel(t)
	proc2 := exec.NewProcess(k2.NextPID(), img, &k2.Cost, 1, nil)
	free := k2.Spawn(proc2, "free", -1, 0)
	if err := k2.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	pinnedTime := task.CompletionPs - task.ArrivalPs
	freeTime := free.CompletionPs - free.ArrivalPs
	ratio := float64(pinnedTime) / float64(freeTime)
	if ratio < 1.4 || ratio > 1.6 {
		t.Errorf("slow-pinned/free time ratio = %.3f, want about 1.5", ratio)
	}
}

func TestLoadBalancingSpreadsTasks(t *testing.T) {
	k := newKernel(t)
	for i := 0; i < 8; i++ {
		spawnProg(t, k, computeProgram(3000), uint64(i+1))
	}
	k.Run(5)
	// After several balance intervals, no core should hold more than half
	// the live tasks while another sits empty.
	lens := k.QueueLengths()
	max, min := 0, 1<<30
	for _, l := range lens {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if max-min > 2 {
		t.Errorf("queue imbalance %v after balancing", lens)
	}
}

func TestThroughputSamples(t *testing.T) {
	k := newKernel(t)
	for i := 0; i < 4; i++ {
		spawnProg(t, k, computeProgram(40000), uint64(i+1))
	}
	k.Run(5)
	samples := k.Samples()
	if len(samples) < 3 {
		t.Fatalf("got %d samples over 5s with 1s interval", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Instructions < samples[i-1].Instructions {
			t.Error("cumulative instruction samples decreased")
		}
		if samples[i].AtPs <= samples[i-1].AtPs {
			t.Error("sample timestamps not increasing")
		}
	}
}

func TestOnExitSpawnsNextJob(t *testing.T) {
	k := newKernel(t)
	img, err := exec.NewImage(computeProgram(100), nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	spawned := 0
	k.OnExit = func(k *Kernel, done *Task) {
		if spawned < 3 {
			spawned++
			proc := exec.NewProcess(k.NextPID(), img, &k.Cost, uint64(spawned+10), nil)
			k.Spawn(proc, "next", done.Slot, 0)
		}
	}
	proc := exec.NewProcess(k.NextPID(), img, &k.Cost, 1, nil)
	k.Spawn(proc, "first", 0, 0)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	if spawned != 3 {
		t.Errorf("chained spawns = %d, want 3", spawned)
	}
	if len(k.Tasks()) != 4 {
		t.Errorf("total tasks = %d, want 4", len(k.Tasks()))
	}
	// Arrivals must be non-decreasing.
	tasks := k.Tasks()
	for i := 1; i < len(tasks); i++ {
		if tasks[i].ArrivalPs < tasks[i-1].ArrivalPs {
			t.Error("later spawn has earlier arrival")
		}
	}
}

func TestBalancerPullsFromBackloggedCore(t *testing.T) {
	// Spawn one unpinned task (lands on core 0), one unpinned (core 1),
	// then two tasks pinned to core 0: its queue reaches 3 while cores 2-3
	// sit empty. The balancer must pull the movable task off core 0.
	k := newKernel(t)
	img, err := exec.NewImage(computeProgram(30000), nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, affinity uint64, seed uint64) *Task {
		p := exec.NewProcess(k.NextPID(), img, &k.Cost, seed, nil)
		return k.Spawn(p, name, -1, affinity)
	}
	free := mk("free", 0, 1)
	mk("other", 0, 2)
	mk("pin1", 0b0001, 3)
	mk("pin2", 0b0001, 4)
	k.Run(2)
	if free.Migrations == 0 {
		t.Error("movable task never pulled from the backlogged core")
	}
	if free.core == 0 {
		t.Error("movable task still on the backlogged core")
	}
}

// pingPongHook alternates affinity between core sets on every mark.
type pingPongHook struct {
	masks []uint64
	i     int
}

func (h *pingPongHook) OnMark(p *exec.Process, markID, coreID int) exec.MarkAction {
	h.i++
	return exec.MarkAction{Mask: h.masks[h.i%len(h.masks)]}
}
func (h *pingPongHook) OnExit(p *exec.Process) {}

// markedProgram hand-crafts an instrumented image: a loop whose body starts
// with a phase mark, so the hook fires every iteration.
func markedImage(t *testing.T, k *Kernel) *exec.Image {
	t.Helper()
	p := &prog.Program{
		Name: "marked",
		Procs: []*prog.Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.PhaseMark, MarkID: 0, Bytes: 73},
				{Op: isa.IntALU}, {Op: isa.IntALU}, {Op: isa.IntALU},
				{Op: isa.Branch, Target: 0, TripCount: 400, TakenProb: 0.99},
				{Op: isa.Ret},
			},
		}},
	}
	bin := &instrument.Binary{
		Prog:  p,
		Marks: []instrument.Mark{{ID: 0, Type: 0}},
	}
	img, err := exec.NewImage(p, bin, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestHookMigrationsCountedAndCharged(t *testing.T) {
	k := newKernel(t)
	img := markedImage(t, k)
	hook := &pingPongHook{masks: []uint64{0b0001, 0b0100}}
	p := exec.NewProcess(k.NextPID(), img, &k.Cost, 1, hook)
	task := k.Spawn(p, "pingpong", -1, 0)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	// 400 marks alternating between disjoint single-core masks: every mark
	// whose mask excludes the current core forces a migration.
	if task.Migrations < 100 {
		t.Errorf("migrations = %d, want hundreds from ping-pong affinity", task.Migrations)
	}
	// Each migration costs CoreSwitchCycles of wall time; the runtime must
	// exceed the no-switch execution noticeably.
	k2 := newKernel(t)
	img2 := markedImage(t, k2)
	p2 := exec.NewProcess(k2.NextPID(), img2, &k2.Cost, 1, nil)
	ref := k2.Spawn(p2, "ref", -1, 0b0001)
	if err := k2.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	if task.CompletionPs <= ref.CompletionPs {
		t.Error("ping-pong run not slower than pinned run despite switch costs")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := newKernel(t)
	spawnProg(t, k, computeProgram(1e6), 1) // very long program
	k.Run(2)
	if k.NowSec() > 2.3 {
		t.Errorf("clock ran to %.2fs past the 2s horizon", k.NowSec())
	}
	if k.Live() != 1 {
		t.Errorf("long task finished unexpectedly")
	}
}

func TestFastCoreFinishesFirst(t *testing.T) {
	// Two identical compute tasks, one pinned fast, one pinned slow.
	k := newKernel(t)
	img, err := exec.NewImage(computeProgram(2000), nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	pf := exec.NewProcess(k.NextPID(), img, &k.Cost, 5, nil)
	fastTask := k.Spawn(pf, "fast", -1, 0b0001)
	ps := exec.NewProcess(k.NextPID(), img, &k.Cost, 5, nil)
	slowTask := k.Spawn(ps, "slow", -1, 0b0100)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	if fastTask.CompletionPs >= slowTask.CompletionPs {
		t.Errorf("fast-pinned task (%d) not earlier than slow-pinned (%d)",
			fastTask.CompletionPs, slowTask.CompletionPs)
	}
}

func TestSecPsConversions(t *testing.T) {
	if SecToPs(1.5) != 1500000000000 {
		t.Errorf("SecToPs(1.5) = %d", SecToPs(1.5))
	}
	if PsToSec(2e12) != 2 {
		t.Errorf("PsToSec(2e12) = %g", PsToSec(2e12))
	}
}

// clockedQuad returns the quad machine with every clock scaled so its
// slowest core type runs slowHz cycles per second (nominal ratios kept).
func clockedQuad(slowHz float64) *amp.Machine {
	m := amp.Quad2Fast2Slow()
	slowGHz := m.Types[len(m.Types)-1].FreqGHz
	for i := range m.Types {
		m.Types[i].CyclesPerSec = slowHz * m.Types[i].FreqGHz / slowGHz
	}
	return m
}

// TestConfigValidateRejectsStallingPeriods pins the one stall a machine
// can still bring: a slowest core type that retires less than one cycle
// per fixed timeslice is refused, by Validate and by NewKernel, while one
// cycle per timeslice passes.
func TestConfigValidateRejectsStallingPeriods(t *testing.T) {
	cases := []struct {
		name string
		m    *amp.Machine
		ok   bool
	}{
		{"default", amp.Quad2Fast2Slow(), true},
		{"timeslice half a slow cycle", clockedQuad(0.5 / TimesliceSec), false},
		{"timeslice one slow cycle", clockedQuad(1 / TimesliceSec), true},
		{"slow clock NaN", clockedQuad(math.NaN()), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Config{}.Validate(tc.m)
			if (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
			if _, kerr := NewKernel(tc.m, exec.DefaultCostModel(), Config{}); (kerr == nil) != tc.ok {
				t.Fatalf("NewKernel error = %v, want ok=%v", kerr, tc.ok)
			}
		})
	}
}

// BenchmarkKernelOpenArrivals times an open run's event loop: 300 short
// jobs admitted by timers registered up front in arrival order, as sim
// admits an arrival schedule, on an overcommitted quad kernel (arrivals
// outpace the four cores, so queues run several deep).
func BenchmarkKernelOpenArrivals(b *testing.B) {
	cost := exec.DefaultCostModel()
	imgs := make([]*exec.Image, 2)
	for i, p := range []*prog.Program{computeProgram(2e3), memoryProgram(1e3)} {
		img, err := exec.NewImage(p, nil, cost)
		if err != nil {
			b.Fatal(err)
		}
		imgs[i] = img
	}
	const jobs = 300
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := NewKernel(amp.Quad2Fast2Slow(), cost, Config{})
		if err != nil {
			b.Fatal(err)
		}
		k.Overcommit = true
		for j := 0; j < jobs; j++ {
			img := imgs[j%len(imgs)]
			seed := uint64(j + 1)
			k.At(SecToPs(0.0002*float64(j)), func(k *Kernel) {
				k.Spawn(exec.NewProcess(k.NextPID(), img, &k.Cost, seed, nil), img.Prog.Name, j, 0)
			})
		}
		k.Run(0.0002 * jobs) // admit every job
		if err := k.RunUntilDone(1e4); err != nil {
			b.Fatal(err)
		}
		if len(k.Tasks()) != jobs || k.PeakLive() <= 4 {
			b.Fatalf("%d of %d jobs admitted, peak %d live: not overcommitted", len(k.Tasks()), jobs, k.PeakLive())
		}
	}
}
