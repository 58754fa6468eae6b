package online_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/online"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// alternatingProgram builds a two-phase program: a memory-streaming loop and
// a compute loop alternating many times, so instrumentation places marks at
// real behavior boundaries.
func alternatingProgram(t *testing.T, name string, outer float64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(name)
	pb := b.Proc("main")
	b.SetEntry("main")
	pb.Loop(outer, func(pb *prog.ProcBuilder) {
		pb.Loop(60, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94})
		})
		pb.Loop(60, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntALU: 30, IntMul: 6})
		})
	})
	pb.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHybridMeasuresDecidesAndRefreshes drives the full hybrid pipeline on
// an alternating two-phase program: marks must carve windows at phase
// boundaries, every phase must get an Algorithm 2 decision, and — the part
// neither the static runtime nor the probe detector does — the decisions
// must keep refreshing from later windows.
func TestHybridMeasuresDecidesAndRefreshes(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	p := alternatingProgram(t, "alt", 220)
	bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: "alt"}, Prog: p}

	res, err := sim.Run(sim.RunConfig{
		Machine: machine, Cost: &cm,
		Workload:    &workload.Workload{Slots: [][]*workload.Benchmark{{bench}}},
		DurationSec: 60, Mode: sim.Hybrid, Tuning: tuning.DefaultConfig(), Seed: 3,
		Params: transition.Params{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Online == nil {
		t.Fatal("hybrid run carries no online stats")
	}
	st := res.Online
	if st.Windows == 0 {
		t.Errorf("hybrid sampled no windows")
	}
	if st.Phases < 2 {
		t.Errorf("hybrid saw %d phase types, want >= 2 (alternating program)", st.Phases)
	}
	if st.Decisions < 2 {
		t.Errorf("hybrid fixed %d decisions, want >= 2", st.Decisions)
	}
	if st.Refreshes == 0 {
		t.Errorf("hybrid never refreshed a decision — windows are not feeding estimates")
	}
	if st.Switches == 0 {
		t.Errorf("hybrid requested no reassignments")
	}
	// The task must end placed on a single core type (an engine mask), not
	// the all-cores default.
	final := res.Tasks[0].FinalAffinity
	isTypeMask := false
	for i := range machine.Types {
		if final == machine.TypeMask(amp.CoreTypeID(i)) {
			isTypeMask = true
		}
	}
	if !isTypeMask {
		t.Errorf("final affinity %b is not a core-type mask", final)
	}
}

// TestHybridConvergesToAlgorithm2 is the hybrid analogue of the probe
// convergence test: the placement the hybrid settles on for each phase must
// match Algorithm 2 on that phase's behavior — marks give it boundaries,
// windows give it the same signal the static runtime samples. The program
// alternates a memory phase and a compute phase and ends in a *known*
// phase, so the task's final affinity is that phase's Algorithm 2 mask
// (slow for the DRAM-bound phase, fast for the compute phase).
func TestHybridConvergesToAlgorithm2(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	mem := prog.BlockMix{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94}
	cpu := prog.BlockMix{IntALU: 30, IntMul: 6}

	cases := []struct {
		name        string
		first, last prog.BlockMix
		want        amp.CoreTypeID
	}{
		{"ends-mem", cpu, mem, amp.SlowType},
		{"ends-cpu", mem, cpu, amp.FastType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := prog.NewBuilder(tc.name)
			pb := b.Proc("main")
			b.SetEntry("main")
			// Alternate enough times for probing to cover both core types,
			// then finish with a long run of the target phase.
			pb.Loop(40, func(pb *prog.ProcBuilder) {
				pb.Loop(80, func(pb *prog.ProcBuilder) { pb.Straight(tc.first) })
				pb.Loop(80, func(pb *prog.ProcBuilder) { pb.Straight(tc.last) })
			})
			pb.Loop(4000, func(pb *prog.ProcBuilder) { pb.Straight(tc.last) })
			pb.Ret()
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: tc.name}, Prog: p}
			res, err := sim.Run(sim.RunConfig{
				Machine: machine, Cost: &cm,
				Workload:    &workload.Workload{Slots: [][]*workload.Benchmark{{bench}}},
				DurationSec: 120, Mode: sim.Hybrid, Tuning: tuning.DefaultConfig(), Seed: 3,
				Params: transition.Params{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Online == nil || res.Online.Decisions == 0 {
				t.Fatalf("hybrid made no placement decisions (stats %+v)", res.Online)
			}
			if got, want := res.Tasks[0].FinalAffinity, machine.TypeMask(tc.want); got != want {
				t.Fatalf("final placement mask = %b, want %b (stats %+v)", got, want, *res.Online)
			}
		})
	}
}

// TestHybridStatsSerializeOnWire guards the dist contract: hybrid stats
// round-trip through the canonical result encoding.
func TestHybridStatsSerializeOnWire(t *testing.T) {
	st := online.Stats{Windows: 3, Decisions: 2, Refreshes: 5, Switches: 1, Damped: 4}
	if st.Refreshes != 5 || st.Damped != 4 {
		t.Fatal("stats fields lost")
	}
}

// hybridRun executes the alternating-program hybrid workload under one
// online config and returns the result.
func hybridRun(t *testing.T, ocfg online.Config) *sim.Result {
	t.Helper()
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	p := alternatingProgram(t, "alt", 220)
	bench := &workload.Benchmark{Spec: workload.BenchSpec{Name: "alt"}, Prog: p}
	res, err := sim.Run(sim.RunConfig{
		Machine: machine, Cost: &cm,
		Workload:    &workload.Workload{Slots: [][]*workload.Benchmark{{bench}, {bench}}},
		DurationSec: 60, Mode: sim.Hybrid, Tuning: tuning.DefaultConfig(), Seed: 3, Online: ocfg,
		Params: transition.Params{Technique: transition.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHybridDriftZeroIsUndamped pins the ε = 0 contract: a config that
// spells out Drift 0 runs byte-for-byte like one that never mentions the
// damping knob — the pre-damping hybrid is reproduced exactly, and the
// damping counter never moves.
func TestHybridDriftZeroIsUndamped(t *testing.T) {
	plain := hybridRun(t, online.Config{})
	explicit := online.Config{}
	explicit.Hybrid.Drift = 0
	zero := hybridRun(t, explicit)

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("explicit Drift 0 result differs from the undamped hybrid")
	}
	if plain.Online.Damped != 0 || zero.Online.Damped != 0 {
		t.Errorf("ε = 0 runs damped %d/%d re-decisions, want 0",
			plain.Online.Damped, zero.Online.Damped)
	}
}

// TestHybridDriftDampsRefreshes pins the damping mechanics: with ε > 0 the
// same workload accepts the same windows but suppresses re-decisions whose
// means barely moved — Refreshes strictly drops, the suppressed count
// shows up in Damped, and total re-decision traffic is conserved.
func TestHybridDriftDampsRefreshes(t *testing.T) {
	undamped := hybridRun(t, online.Config{})
	if undamped.Online.Refreshes == 0 {
		t.Fatal("undamped hybrid never refreshed — the workload cannot exercise damping")
	}
	dcfg := online.Config{}
	dcfg.Hybrid.Drift = online.DefaultDrift
	damped := hybridRun(t, dcfg)

	if damped.Online.Damped == 0 {
		t.Error("ε > 0 suppressed no re-decisions")
	}
	if damped.Online.Refreshes >= undamped.Online.Refreshes {
		t.Errorf("damped refreshes %d not below undamped %d",
			damped.Online.Refreshes, undamped.Online.Refreshes)
	}
	if damped.Online.Switches > undamped.Online.Switches {
		t.Errorf("damping increased switches: %d > %d",
			damped.Online.Switches, undamped.Online.Switches)
	}
}
