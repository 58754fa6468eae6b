package osched

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/isa"
	"phasetune/internal/prog"
	"phasetune/internal/trace"
)

// loopProgram builds a long-running straight-line loop.
func loopProgram(t *testing.T, trips int32) *prog.Program {
	t.Helper()
	p := &prog.Program{
		Name: "loop",
		Procs: []*prog.Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.IntALU}, {Op: isa.IntALU}, {Op: isa.IntALU},
				{Op: isa.Branch, Target: 0, TripCount: trips, TakenProb: 0.99},
				{Op: isa.Ret},
			},
		}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

type tickCounter struct {
	ticks int
	atPs  []int64
}

func (c *tickCounter) OnTick(k *Kernel, atPs int64) {
	c.ticks++
	c.atPs = append(c.atPs, atPs)
}

// TestMonitorTickPeriod checks the monitor hook fires at its own period,
// independent of sampling and balancing.
func TestMonitorTickPeriod(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	k, err := NewKernel(machine, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mon := &tickCounter{}
	k.Monitor = mon

	img, err := exec.NewImage(loopProgram(t, 2_000_000), nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(exec.NewProcess(k.NextPID(), img, &cm, 1, nil), "loop", -1, 0)
	k.Run(5.0)

	if mon.ticks < 49 || mon.ticks > 50 {
		t.Fatalf("monitor ticked %d times over 5s at %gs period, want 49-50", mon.ticks, MonitorIntervalSec)
	}
	for i := 1; i < len(mon.atPs); i++ {
		if d := mon.atPs[i] - mon.atPs[i-1]; d != SecToPs(MonitorIntervalSec) {
			t.Fatalf("tick %d interval %d ps, want %d", i, d, SecToPs(MonitorIntervalSec))
		}
	}
}

// TestMonitorDisabledWithoutMonitor checks no monitor events fire when no
// monitor is installed (the zero-cost default for every non-dynamic run).
func TestMonitorDisabledWithoutMonitor(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	k, err := NewKernel(machine, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := exec.NewImage(loopProgram(t, 100_000), nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn(exec.NewProcess(k.NextPID(), img, &cm, 1, nil), "loop", -1, 0)
	k.Run(2.0) // would panic dereferencing a nil monitor if events fired
}

// affinitySetter pins the first task to the last core at the first tick.
type affinitySetter struct {
	applied bool
	mask    uint64
}

func (a *affinitySetter) OnTick(k *Kernel, atPs int64) {
	if a.applied {
		return
	}
	for _, task := range k.Tasks() {
		if task.State != TaskExited {
			k.SetAffinity(task, a.mask)
			a.applied = true
			return
		}
	}
}

// TestSetAffinityFromMonitor checks an external SetAffinity moves the task:
// after the monitor pins it to one core, every later burst runs there, and
// the move is charged as a migration.
func TestSetAffinityFromMonitor(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	k, err := NewKernel(machine, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	k.Trace = trace.New()
	target := machine.NumCores() - 1
	setter := &affinitySetter{mask: amp.CoreMask(target)}
	k.Monitor = setter

	img, err := exec.NewImage(loopProgram(t, 3_000_000), nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	task := k.Spawn(exec.NewProcess(k.NextPID(), img, &cm, 1, nil), "loop", -1, 0)
	k.Run(0.21)
	if !setter.applied {
		t.Fatal("monitor never fired")
	}
	pinnedAt := k.NowPs()
	k.Run(3.0)
	var afterPin []int
	for _, b := range tracedBursts(t, k.Trace) {
		if b.start > pinnedAt {
			afterPin = append(afterPin, b.core)
		}
	}

	if task.Affinity != setter.mask {
		t.Fatalf("affinity %b, want %b", task.Affinity, setter.mask)
	}
	if task.Migrations == 0 {
		t.Fatal("external reassignment did not count a migration")
	}
	if len(afterPin) == 0 {
		t.Fatal("no bursts observed after pinning")
	}
	for _, core := range afterPin {
		if core != target {
			t.Fatalf("burst ran on core %d after pinning to %d", core, target)
		}
	}
}

// TestPenalizeChargesCycles checks Penalize slows the task down by exactly
// the charged cycles without touching its virtualized counters.
func TestPenalizeChargesCycles(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()

	runWith := func(charge int64) (completionPs int64, instrs uint64) {
		k, err := NewKernel(machine, cm, Config{})
		if err != nil {
			t.Fatal(err)
		}
		img, err := exec.NewImage(loopProgram(t, 50_000), nil, cm)
		if err != nil {
			t.Fatal(err)
		}
		task := k.Spawn(exec.NewProcess(k.NextPID(), img, &cm, 1, nil), "loop", -1, amp.CoreMask(0))
		if charge > 0 {
			k.Penalize(task, charge)
		}
		if err := k.RunUntilDone(1e6); err != nil {
			t.Fatal(err)
		}
		return task.CompletionPs, task.Proc.Counters.Instructions
	}

	base, baseInstr := runWith(0)
	charged, chargedInstr := runWith(1000)
	if chargedInstr != baseInstr {
		t.Fatalf("penalty changed virtualized counters: %d vs %d instructions", chargedInstr, baseInstr)
	}
	extra := charged - base
	want := 1000 * machine.Types[0].PsPerCycle()
	if extra != want {
		t.Fatalf("penalty cost %d ps, want %d", extra, want)
	}
}
