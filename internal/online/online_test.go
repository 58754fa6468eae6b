package online_test

import (
	"reflect"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// --- Classifier -----------------------------------------------------------

func TestClassifierStableSignaturesOneCluster(t *testing.T) {
	cl := online.NewClassifier(0.25, 6, 2)
	for i := 0; i < 50; i++ {
		ph, founded := cl.Classify(online.Signature{IPC: 2.9, MemFrac: 0.16}, amp.FastType)
		if ph != 0 {
			t.Fatalf("window %d classified to phase %d, want 0", i, ph)
		}
		if founded != (i == 0) {
			t.Fatalf("window %d founded=%v", i, founded)
		}
	}
	if cl.NumPhases() != 1 {
		t.Fatalf("NumPhases = %d, want 1", cl.NumPhases())
	}
}

func TestClassifierSeparatesMemFromCompute(t *testing.T) {
	cl := online.NewClassifier(0.25, 6, 2)
	cpu, _ := cl.Classify(online.Signature{IPC: 2.9, MemFrac: 0.16}, amp.FastType)
	mem, _ := cl.Classify(online.Signature{IPC: 0.3, MemFrac: 0.75}, amp.FastType)
	if cpu == mem {
		t.Fatalf("compute and memory signatures merged into one phase")
	}
	// The same phase observed on the other core type with a different IPC
	// must NOT found a new phase: cross-type IPC difference is asymmetry,
	// not phase change.
	mem2, founded := cl.Classify(online.Signature{IPC: 0.45, MemFrac: 0.75}, amp.SlowType)
	if founded || mem2 != mem {
		t.Fatalf("slow-core observation of the memory phase founded a new cluster (phase %d vs %d)", mem2, mem)
	}
	ipcSlow, n := cl.TypeIPC(mem, amp.SlowType)
	if n != 1 || ipcSlow != 0.45 {
		t.Fatalf("slow-type IPC stat = (%v, %d), want (0.45, 1)", ipcSlow, n)
	}
}

func TestClassifierRespectsMaxPhases(t *testing.T) {
	cl := online.NewClassifier(0.01, 3, 2)
	for i := 0; i < 20; i++ {
		cl.Classify(online.Signature{IPC: 0.2 + 0.3*float64(i), MemFrac: 0.05 * float64(i%10)}, amp.FastType)
	}
	if cl.NumPhases() > 3 {
		t.Fatalf("NumPhases = %d exceeds cap 3", cl.NumPhases())
	}
}

// --- Convergence: dynamic placement == static Algorithm 2 -----------------

// stableProgram builds a single-phase program: the same block mix repeated,
// so its runtime behavior is one stable phase.
func stableProgram(t *testing.T, name string, mix prog.BlockMix, trips float64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(name)
	pb := b.Proc("main")
	b.SetEntry("main")
	pb.Loop(trips, func(pb *prog.ProcBuilder) { pb.Straight(mix) })
	pb.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// isolatedIPC measures the program's IPC on every core type in isolation —
// the exact input the paper's Algorithm 2 consumes.
func isolatedIPC(t *testing.T, p *prog.Program, cm exec.CostModel, machine *amp.Machine) []float64 {
	t.Helper()
	img, err := exec.NewImage(p, nil, cm)
	if err != nil {
		t.Fatal(err)
	}
	pars := exec.ParamsFor(cm, machine)
	out := make([]float64, len(pars))
	for i := range pars {
		proc := exec.NewProcess(1, img, &cm, 7, nil)
		es := perfcnt.Start(&proc.Counters)
		proc.RunIsolated(&pars[i], machine.CoresOfType(pars[i].Type)[0], machine.L2s[0].SizeKB, 0)
		instrs, cycles := es.Stop(&proc.Counters)
		out[i] = perfcnt.IPC(instrs, cycles)
	}
	return out
}

// TestProbeConvergesToAlgorithm2 is the convergence property the showdown
// rests on: on a phase-stable program, the online probe detector's final
// placement must equal the assignment static Algorithm 2 computes from
// isolated per-core-type IPC.
func TestProbeConvergesToAlgorithm2(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	ocfg := online.DefaultConfig()
	ocfg.Policy = online.Probe

	cases := []struct {
		name string
		mix  prog.BlockMix
	}{
		{"memstable", prog.BlockMix{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94}},
		{"cpustable", prog.BlockMix{IntALU: 30, IntMul: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := stableProgram(t, tc.name, tc.mix, 20000)
			tcfg := tuning.DefaultConfig()
			want := machine.TypeMask(place.Select(machine, isolatedIPC(t, p, cm, machine), tcfg.Delta))

			bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: tc.name}, Prog: p}
			w := &workload.Workload{Slots: [][]*workload.Benchmark{{bench}}}
			res, err := sim.Run(sim.RunConfig{
				Machine: machine, Cost: &cm,
				Workload: w, DurationSec: 60, Mode: sim.Dynamic, Tuning: tcfg, Online: ocfg, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Online == nil || res.Online.Decisions == 0 {
				t.Fatalf("online detector made no placement decisions (stats %+v)", res.Online)
			}
			got := res.Tasks[0].FinalAffinity
			if got != want {
				t.Fatalf("final placement mask = %b, want %b (Algorithm 2 on isolated IPC %v)",
					got, want, isolatedIPC(t, p, cm, machine))
			}
		})
	}
}

// --- Counter contention under periodic sampling ---------------------------

// TestBoundedCounterPoolDefersSampling covers the perfcnt Hardware
// contention path under periodic sampling: with fewer event sets than
// monitored tasks, window-open attempts defer (and are counted), the
// detector still makes progress, and the pool never over-releases.
func TestBoundedCounterPoolDefersSampling(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	sched := osched.Config{CounterSlots: 2}

	mix := prog.BlockMix{IntALU: 20, IntMul: 4, Load: 4, Store: 2, WorkingSetKB: 64, Locality: 0.98}
	var slots [][]*workload.Benchmark
	for i := 0; i < 6; i++ {
		name := "contend" + string(rune('a'+i))
		bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: name},
			Prog: stableProgram(t, name, mix, 50000)}
		slots = append(slots, []*workload.Benchmark{bench})
	}
	res, err := sim.Run(sim.RunConfig{
		Machine: machine, Cost: &cm, Sched: &sched,
		Workload:    &workload.Workload{Slots: slots},
		DurationSec: 40, Mode: sim.Dynamic, Tuning: tuning.DefaultConfig(), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CounterDefers == 0 {
		t.Fatalf("expected counter deferrals with 2 event sets and 6 monitored tasks")
	}
	if res.Online == nil || res.Online.Windows == 0 {
		t.Fatalf("detector made no progress under contention (stats %+v)", res.Online)
	}
}

// TestUnboundedPoolNoDefers is the control: with the default unlimited
// pool, periodic sampling never defers.
func TestUnboundedPoolNoDefers(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	mix := prog.BlockMix{IntALU: 20, Load: 4, WorkingSetKB: 64, Locality: 0.98}
	bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: "solo"},
		Prog: stableProgram(t, "solo", mix, 20000)}
	res, err := sim.Run(sim.RunConfig{
		Machine: machine, Cost: &cm,
		Workload:    &workload.Workload{Slots: [][]*workload.Benchmark{{bench}}},
		DurationSec: 30, Mode: sim.Dynamic, Tuning: tuning.DefaultConfig(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CounterDefers != 0 {
		t.Fatalf("unexpected deferrals %d with an unbounded pool", res.CounterDefers)
	}
}

// --- Oracle ---------------------------------------------------------------

// equakeImage instruments 183.equake, which alternates CPU and DRAM
// phases, for the quad machine's oracle tests.
func equakeImage(t *testing.T) (*amp.Machine, exec.CostModel, phase.Options, *exec.Image) {
	t.Helper()
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	suite, err := workload.Suite(cm, machine)
	if err != nil {
		t.Fatal(err)
	}
	var equake *workload.Benchmark
	for _, b := range suite {
		if b.Name() == "183.equake" {
			equake = b
		}
	}
	topts := phase.Options{K: 2, MinBlockInstrs: 5}
	a, err := sim.Analyze(equake.Prog, topts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := a.Instrument(transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true}, cm)
	if err != nil {
		t.Fatal(err)
	}
	return machine, cm, topts, art.Image
}

// TestOracleDecisionsSplitTypes checks the oracle computes opposite
// placements for a memory-bound and a compute-bound phase of an
// alternating benchmark (the discriminating signal of the whole paper),
// with the spill-pricing rates and per-phase signature filled in, and
// that a contention-priced engine fixes the same decisions: pricing
// changes arbitration, never Decide.
func TestOracleDecisionsSplitTypes(t *testing.T) {
	machine, cm, topts, img := equakeImage(t)
	// equake's oracle assignment must use both core types.
	decs, err := online.OracleDecisions(img, topts, cm, place.NewEngine(machine, 0.06, place.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[amp.CoreTypeID]bool{}
	for _, dec := range decs {
		distinct[dec.Choice] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("oracle decisions %v use %d distinct core types, want both", decs, len(distinct))
	}
	priced, err := online.OracleDecisions(img, topts, cm,
		place.NewEngine(machine, 0.06, place.Config{Contention: &place.ContentionConfig{}}))
	if err != nil {
		t.Fatal(err)
	}
	for pt, dec := range decs {
		if len(dec.Rates) != len(machine.Types) || dec.Mem == nil {
			t.Errorf("phase %d: decision %+v lacks rates or signature", pt, dec)
		}
		if got := priced[pt]; !reflect.DeepEqual(got, dec) {
			t.Errorf("phase %d: priced-engine decision %+v, unpriced %+v", pt, got, dec)
		}
	}
}

// TestOracleHookClaimsOnlyOnPricedEngine pins the oracle's two placement
// modes: on an unpriced engine a mark pins the chosen type without a
// capacity claim; on a contention-priced engine the mark claims capacity
// and the mask comes out of arbitration, until exit withdraws the claim.
func TestOracleHookClaimsOnlyOnPricedEngine(t *testing.T) {
	machine, cm, topts, img := equakeImage(t)
	for _, cfg := range []place.Config{{}, {Contention: &place.ContentionConfig{}}} {
		eng := place.NewEngine(machine, 0.06, cfg)
		decs, err := online.OracleDecisions(img, topts, cm, eng)
		if err != nil {
			t.Fatal(err)
		}
		markID := -1
		for id := 0; id < img.NumMarks() && markID == -1; id++ {
			if _, ok := decs[img.MarkType(id)]; ok {
				markID = id
			}
		}
		if markID == -1 {
			t.Fatal("no mark of equake's image has an oracle decision")
		}
		hook := online.NewOracleHook(eng, img, decs)
		p := exec.NewProcess(1, img, &cm, 7, hook)
		mask := hook.OnMark(p, markID, 0).Mask
		if !eng.Priced() {
			if want := eng.TypeMask(decs[img.MarkType(markID)].Choice); mask != want {
				t.Errorf("unpriced: mark mask %#x, want the chosen type's %#x", mask, want)
			}
			if got := eng.MaskFor(p.PID); got != 0 {
				t.Errorf("unpriced: mark claimed capacity (MaskFor = %#x)", got)
			}
			continue
		}
		if got := eng.MaskFor(p.PID); got == 0 || got != mask {
			t.Errorf("priced: MaskFor = %#x after a mark that returned %#x, want the claim's mask", got, mask)
		}
		hook.OnExit(p)
		if got := eng.MaskFor(p.PID); got != 0 {
			t.Errorf("priced: OnExit left a claim (MaskFor = %#x)", got)
		}
	}
}
