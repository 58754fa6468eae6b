package osched

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/trace"
)

// burst is one dispatch burst as the kernel's trace records it.
type burst struct {
	core, pid  int
	start, end int64
}

// tracedBursts reads the burst spans back out of a traced run, in
// dispatch order.
func tracedBursts(t *testing.T, tr *trace.Tracer) []burst {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string      `json:"name"`
			Ts   json.Number `json:"ts"`
			Dur  json.Number `json:"dur"`
			Tid  int         `json:"tid"`
			Args struct {
				Task int `json:"task"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Stamps are microseconds with exactly six decimals: whole ps.
	ps := func(n json.Number) int64 {
		whole, frac, _ := strings.Cut(n.String(), ".")
		v, err := strconv.ParseInt(whole+frac, 10, 64)
		if err != nil {
			t.Fatalf("trace stamp %q: %v", n, err)
		}
		return v
	}
	var out []burst
	for _, e := range doc.TraceEvents {
		if e.Name == "burst" {
			start := ps(e.Ts)
			out = append(out, burst{core: e.Tid - trace.CoreTid(0), pid: e.Args.Task, start: start, end: start + ps(e.Dur)})
		}
	}
	return out
}

// TestNoOverlappingBursts replays the regression that motivated arrival
// events: a single process must never occupy two cores in overlapping
// simulated intervals, even while its affinity ping-pongs.
func TestNoOverlappingBursts(t *testing.T) {
	k := newKernel(t)
	k.Trace = trace.New()
	img := markedImage(t, k)
	hook := &pingPongHook{masks: []uint64{0b0001, 0b0100}}
	p := exec.NewProcess(k.NextPID(), img, &k.Cost, 1, hook)
	k.Spawn(p, "pingpong", -1, 0)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	bursts := tracedBursts(t, k.Trace)
	for i := 1; i < len(bursts); i++ {
		if bursts[i].start < bursts[i-1].end {
			t.Fatalf("burst %d starts at %d before burst %d ends at %d",
				i, bursts[i].start, i-1, bursts[i-1].end)
		}
	}
	if len(bursts) < 100 {
		t.Fatalf("only %d bursts traced", len(bursts))
	}
}

// TestTimeConservation: a task's completion time equals the sum of its burst
// durations plus queueing gaps; with a single task there are no gaps beyond
// spawn, so wall time equals busy time.
func TestTimeConservation(t *testing.T) {
	k := newKernel(t)
	k.Trace = trace.New()
	task := spawnProg(t, k, computeProgram(2000), 1)
	if err := k.RunUntilDone(1e6); err != nil {
		t.Fatal(err)
	}
	var busyPs int64
	for _, b := range tracedBursts(t, k.Trace) {
		busyPs += b.end - b.start
	}
	wall := task.CompletionPs - task.ArrivalPs
	if wall != busyPs {
		t.Errorf("wall %d != busy %d for a lone task", wall, busyPs)
	}
}

// TestKernelInstructionConservation: the kernel's cumulative instruction
// counter equals the sum of per-process counters.
func TestKernelInstructionConservation(t *testing.T) {
	k := newKernel(t)
	var tasks []*Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, spawnProg(t, k, memoryProgram(200), uint64(i+1)))
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, task := range tasks {
		sum += task.Proc.Counters.Instructions
	}
	if sum != k.TotalInstructions() {
		t.Errorf("kernel total %d != task sum %d", k.TotalInstructions(), sum)
	}
}

// TestAffinityAlwaysRespected: with tracing, every burst of an affinity-
// restricted task must run on an allowed core.
func TestAffinityAlwaysRespected(t *testing.T) {
	k := newKernel(t)
	k.Trace = trace.New()
	img, err := exec.NewImage(computeProgram(3000), nil, k.Cost)
	if err != nil {
		t.Fatal(err)
	}
	p := exec.NewProcess(k.NextPID(), img, &k.Cost, 1, nil)
	k.Spawn(p, "pinned", -1, 0b1010)
	for i := 0; i < 5; i++ {
		spawnProg(t, k, computeProgram(3000), uint64(i+10))
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, b := range tracedBursts(t, k.Trace) {
		if b.pid != p.PID {
			continue
		}
		ran++
		if 0b1010&(1<<uint(b.core)) == 0 {
			t.Fatalf("pinned task ran on disallowed core %d", b.core)
		}
	}
	if ran == 0 {
		t.Fatal("pinned task never ran")
	}
}

// overcommitKernel builds a quad kernel with the proportional-share
// overcommit dispatcher on.
func overcommitKernel(t *testing.T) *Kernel {
	t.Helper()
	k := newKernel(t)
	k.Overcommit = true
	return k
}

// quantumCheck is a mark hook whose quantum callback runs the check at the
// end of every slice the task spends on a core.
type quantumCheck func()

func (quantumCheck) OnMark(*exec.Process, int, int) exec.MarkAction { return exec.MarkAction{} }
func (quantumCheck) OnExit(*exec.Process)                           {}
func (c quantumCheck) OnQuantum(*exec.Process, int) exec.MarkAction {
	c()
	return exec.MarkAction{}
}

// TestOvercommitNoCoreRunsTwoTasks: under heavy oversubscription with
// shortened slices, each core's bursts must still never overlap in
// simulated time — time multiplexing shares the core, it never doubles it.
func TestOvercommitNoCoreRunsTwoTasks(t *testing.T) {
	k := overcommitKernel(t)
	k.Trace = trace.New()
	for i := 0; i < 16; i++ {
		spawnProg(t, k, computeProgram(800), uint64(i+1))
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	lastEnd := map[int]int64{}
	for _, b := range tracedBursts(t, k.Trace) {
		if b.start < lastEnd[b.core] {
			t.Fatalf("core %d burst starts at %d before previous ends at %d",
				b.core, b.start, lastEnd[b.core])
		}
		lastEnd[b.core] = b.end
	}
	if k.OvercommitSlices() == 0 {
		t.Error("16 tasks on 4 cores produced no shortened slices")
	}
}

// TestOvercommitEveryJobCompletesUnderCapacity: jobs arriving under total
// capacity (staggered admissions, short programs) must all run to
// completion — overcommit time-multiplexes transients, it never starves.
func TestOvercommitEveryJobCompletesUnderCapacity(t *testing.T) {
	k := overcommitKernel(t)
	var tasks []*Task
	for i := 0; i < 10; i++ {
		i := i
		k.At(SecToPs(float64(i)*0.002), func(k *Kernel) {
			img, err := exec.NewImage(computeProgram(400), nil, k.Cost)
			if err != nil {
				t.Error(err)
				return
			}
			proc := exec.NewProcess(k.NextPID(), img, &k.Cost, uint64(i+1), nil)
			tasks = append(tasks, k.Spawn(proc, "staggered", i, 0))
		})
	}
	k.Run(0.05) // fire all admission timers
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 10 {
		t.Fatalf("admitted %d tasks, want 10", len(tasks))
	}
	for i, task := range tasks {
		if task.State != TaskExited {
			t.Errorf("task %d state = %v, want exited", i, task.State)
		}
	}
	if k.PeakLive() < 5 {
		t.Errorf("peak live %d never exceeded the 4 cores", k.PeakLive())
	}
}

// TestOvercommitScaleInvariant: the per-type scale factor stays in (0, 1],
// and whenever a type is oversubscribed, demand × scale never exceeds its
// core count — the proportional-share capacity invariant, checked at every
// slice end of a loaded run.
func TestOvercommitScaleInvariant(t *testing.T) {
	k := overcommitKernel(t)
	types := len(k.Machine.Types)
	checks := 0
	check := quantumCheck(func() {
		checks++
		for typ := 0; typ < types; typ++ {
			f := k.OvercommitScale(amp.CoreTypeID(typ))
			if !(f > 0 && f <= 1) {
				t.Fatalf("type %d scale %g out of (0,1]", typ, f)
			}
			demand := k.RunnableOfType(amp.CoreTypeID(typ))
			capacity := len(k.Machine.CoresOfType(amp.CoreTypeID(typ)))
			if shares := float64(demand) * f; shares > float64(capacity)+1e-9 {
				t.Fatalf("type %d: %d runnable × scale %g = %g shares on %d cores",
					typ, demand, f, shares, capacity)
			}
		}
	})
	prog := memoryProgram(120)
	for i := 0; i < 12; i++ {
		img, err := exec.NewImage(prog, nil, k.Cost)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn(exec.NewProcess(k.NextPID(), img, &k.Cost, uint64(i+1), check), prog.Name, -1, 0)
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	if checks == 0 || k.OvercommitSlices() == 0 {
		t.Fatalf("%d slice ends checked, %d shortened slices; want an oversubscribed run", checks, k.OvercommitSlices())
	}
}

// TestOvercommitDisabledChargesNothing: with the dispatcher off, the same
// oversubscribed workload must shorten zero slices — the kernel switch, and
// the guarantee that closed-system runs are untouched by the subsystem.
func TestOvercommitDisabledChargesNothing(t *testing.T) {
	k := newKernel(t)
	for i := 0; i < 12; i++ {
		spawnProg(t, k, computeProgram(400), uint64(i+1))
	}
	if err := k.RunUntilDone(1e7); err != nil {
		t.Fatal(err)
	}
	if n := k.OvercommitSlices(); n != 0 {
		t.Errorf("disabled overcommit shortened %d slices", n)
	}
	if k.PeakLive() != 12 {
		t.Errorf("peak live %d, want 12", k.PeakLive())
	}
}
