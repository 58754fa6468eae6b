package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/ledger"
	"phasetune/internal/prog"
	"phasetune/internal/prog/progtest"
	"phasetune/internal/rng"
)

// nestedProgram calls a procedure holding two nested counted loops and a
// random branch from a long counted outer loop, so a run stops inside
// calls and rewrites loop counters many times each.
func nestedProgram(outer float64) *prog.Program {
	b := prog.NewBuilder("nested")
	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(outer, func(pb *prog.ProcBuilder) {
		pb.CallProc("kernel")
	}).Ret()
	b.Proc("kernel").Loop(7, func(pb *prog.ProcBuilder) {
		pb.Loop(5, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntALU: 6, Load: 2, WorkingSetKB: 512, Locality: 0.5})
		})
		pb.IfElse(0.3, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntMul: 4})
		}, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntALU: 2})
		})
	}).Ret()
	return b.MustBuild()
}

// nestedImage builds nestedProgram(outer) under the default cost model.
func nestedImage(t testing.TB, outer float64) *Image {
	img, err := NewImage(nestedProgram(outer), nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// chainImage holds the chain shapes a fused step must get right: a
// fallthrough preheader into a single-block counted loop, so the chain
// crosses the loop's edge and ends at the same block, its own guard (with
// two trips the guard fails on every entry, with three it passes once);
// a chain that ends in a call; and chains from both arms of a branch that
// end in the return at exit.
func chainImage(t testing.TB) *Image {
	b := prog.NewBuilder("chains")
	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(400, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 3})
		pb.Loop(2, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{Load: 2, WorkingSetKB: 8192, Locality: 0.4})
		})
		pb.Straight(prog.BlockMix{IntALU: 1})
		pb.Loop(3, func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntMul: 2}) })
		pb.Straight(prog.BlockMix{IntMul: 2})
		pb.CallProc("leaf")
	})
	main.IfElse(0.5, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{FPAdd: 1})
	}, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{FPMul: 1})
	})
	main.Straight(prog.BlockMix{FPAdd: 2}).Ret()
	b.Proc("leaf").Straight(prog.BlockMix{Store: 1, WorkingSetKB: 64, Locality: 0.9}).Ret()
	img, err := NewImage(b.MustBuild(), nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// jumpCycleImage never exits: two mark-free blocks jump to each other, so
// only the length cap ends their chains.
func jumpCycleImage(t testing.TB) *Image {
	p := &prog.Program{Name: "jumpcycle", Procs: []*prog.Procedure{{Name: "main", Instrs: []isa.Instruction{
		{Op: isa.IntALU}, {Op: isa.Jump, Target: 2},
		{Op: isa.IntMul}, {Op: isa.Jump, Target: 0},
	}}}}
	img, err := NewImage(p, nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// midMarkImage is an instrumented image whose marks sit where chains
// would otherwise run through: block M (mark 0) inside a counted loop's
// fallthrough path, and block M2 (mark 1) on its exit.
//
//	A: intalu intalu; jump A2   A2: intmul; jump M
//	M: mark 0; load load; jump B   B: intalu; jump L
//	L: intalu; branch A trips=400   M2: mark 1; fpadd; jump E   E: fpadd; ret
func midMarkImage(t testing.TB) *Image {
	mem := isa.MemRef{WorkingSetKB: 4096, Locality: 0.5, StrideB: 8}
	p := &prog.Program{Name: "midmark", Procs: []*prog.Procedure{{Name: "main", Instrs: []isa.Instruction{
		{Op: isa.IntALU}, {Op: isa.IntALU}, {Op: isa.Jump, Target: 3},
		{Op: isa.IntMul}, {Op: isa.Jump, Target: 5},
		{Op: isa.PhaseMark, MarkID: 0}, {Op: isa.Load, Mem: mem}, {Op: isa.Load, Mem: mem}, {Op: isa.Jump, Target: 9},
		{Op: isa.IntALU}, {Op: isa.Jump, Target: 11},
		{Op: isa.IntALU}, {Op: isa.Branch, Target: 0, TakenProb: 1 - 1.0/400, TripCount: 400},
		{Op: isa.PhaseMark, MarkID: 1}, {Op: isa.FPAdd}, {Op: isa.Jump, Target: 16},
		{Op: isa.FPAdd}, {Op: isa.Ret},
	}}}}
	bin := &instrument.Binary{Prog: p, Marks: []instrument.Mark{{ID: 0, Type: 1}, {ID: 1, Type: 0}}}
	img, err := NewImage(p, bin, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// diamondImage runs three phase-body diamonds, as workload.emitPhaseBody
// emits them (a head ending in a random branch, two arms and a join ending
// in the counted back edge), inside a long outer loop, so slices end
// inside them, on their last trips and between them: an even one, one
// with a nil else arm, and one that always takes its then arm.
func diamondImage(t testing.TB) *Image {
	b := prog.NewBuilder("diamonds")
	main := b.Proc("main")
	b.SetEntry("main")
	then := func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntMul: 3, Load: 1, WorkingSetKB: 8192, Locality: 0.4})
	}
	els := func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{FPAdd: 5}) }
	main.Loop(150, func(pb *prog.ProcBuilder) {
		for _, d := range []struct {
			trips, pThen float64
			els          func(*prog.ProcBuilder)
		}{{40, 0.5, els}, {25, 0.5, nil}, {9, 1, els}} {
			pb.Loop(d.trips, func(pb *prog.ProcBuilder) {
				pb.Straight(prog.BlockMix{IntALU: 6, Store: 1, WorkingSetKB: 256, Locality: 0.9})
				pb.IfElse(d.pThen, then, d.els)
			})
		}
	}).Ret()
	img, err := NewImage(b.MustBuild(), nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// callLoopImage runs two phase loops the way workload.Generate emits a
// Helper phase, each a counted loop whose body calls a procedure holding
// the phase-body diamond, inside a long outer loop, so slices end inside
// the callees, on the loops' last trips and between them.
func callLoopImage(t testing.TB) *Image {
	b := prog.NewBuilder("callloops")
	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(150, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 3})
		pb.Loop(40, func(pb *prog.ProcBuilder) { pb.CallProc("mem") })
		pb.Loop(25, func(pb *prog.ProcBuilder) { pb.CallProc("fp") })
	}).Ret()
	for _, name := range []string{"mem", "fp"} {
		b.Proc(name).Straight(prog.BlockMix{IntALU: 6, Load: 2, WorkingSetKB: 8192, Locality: 0.4}).
			IfElse(0.5, func(pb *prog.ProcBuilder) {
				pb.Straight(prog.BlockMix{IntMul: 3, Load: 1, WorkingSetKB: 256, Locality: 0.9})
			}, func(pb *prog.ProcBuilder) {
				pb.Straight(prog.BlockMix{FPAdd: 5})
			}).Ret()
	}
	img, err := NewImage(b.MustBuild(), nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDiamondArmsFollowTheirShapes pins which blocks RunLane runs as
// diamond loops: both arms of every diamond loop that crosses its counted
// edge (trips ≥ 2; the join ends in a branch, so it heads no chain), the
// same two arms when the diamond sits in a procedure the loop calls from
// its only call site, and no block of a one-trip loop, of a loop whose
// head or arm holds a mark, of a call loop whose callee has two call
// sites or a mark at its entry or return site, or of a body of another
// shape. TestSuiteHelperLoopsAreDiamonds pins the suite's call loops.
func TestDiamondArmsFollowTheirShapes(t *testing.T) {
	arms := func(img *Image) int {
		n := 0
		for i := range img.blocks {
			if img.blocks[i].diamond {
				n++
			}
		}
		return n
	}
	for _, p := range append(progtest.Diamonds(), progtest.CallLoops()...) {
		img, err := NewImage(p, nil, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		want := 2
		switch p.Name {
		case "diamond-trips1", "diamond-markhead", "diamond-markarm",
			"callloop-twosites", "callloop-markentry", "callloop-markreturn", "callloop-recursive", "callloop-selfloop":
			want = 0
		}
		if got := arms(img); got != want {
			t.Errorf("%s: %d diamond arms, want %d", p.Name, got, want)
		}
	}
	for _, tc := range []struct {
		img  *Image
		want int
	}{
		{diamondImage(t), 6}, {callLoopImage(t), 4},
		{nestedImage(t, 5), 0}, {chainImage(t), 0}, {jumpCycleImage(t), 0}, {midMarkImage(t), 0},
	} {
		if got := arms(tc.img); got != tc.want {
			t.Errorf("%s: %d diamond arms, want %d", tc.img.Name, got, tc.want)
		}
	}
}

// TestChainsFollowTheirShapes pins the chains the fixtures above exist
// for, naming their first and last blocks by procedure and instruction
// index, so that TestRunLaneMatchesStepLoop runs the shapes it claims to.
func TestChainsFollowTheirShapes(t *testing.T) {
	type chain struct {
		head, last string
		edges      int
		crosses    bool
	}
	chains := func(img *Image) map[string]chain {
		// name maps a global block id to "procedure:instruction index".
		var name []string
		for _, g := range img.Graphs {
			for _, blk := range g.Blocks {
				name = append(name, fmt.Sprintf("%s:%d", g.ProcName, blk.Start))
			}
		}
		got := map[string]chain{}
		for b, info := range img.blocks {
			if info.chainLast >= 0 {
				got[name[b]] = chain{name[b], name[info.chainLast], int(info.chainEdges), info.chainLoop >= 0}
			}
		}
		return got
	}
	for _, tc := range []struct {
		img  *Image
		want []chain
	}{
		// main: 0 preheader, 3 two-trip loop, 6 its exit block, 7
		// three-trip loop, 10 pre-call block, 12 call, 13 outer latch, 14
		// if-head, 15 else arm, 17 then arm, 18 exit block. The chain at 10
		// calls leaf, returns from it to the latch, crosses the latch's
		// edge and ends at the two-trip loop, its second counted edge.
		{chainImage(t), []chain{
			{"main:0", "main:3", 2, true}, {"main:6", "main:7", 2, true}, {"main:10", "main:3", 5, true},
			{"main:15", "main:18", 1, false}, {"main:17", "main:18", 1, false},
		}},
		{jumpCycleImage(t), []chain{{"main:0", "main:0", maxChainEdges, false}, {"main:2", "main:2", maxChainEdges, false}}},
		{midMarkImage(t), []chain{{"main:0", "main:3", 1, false}, {"main:9", "main:3", 3, true}}},
		// main: 0 preamble, 3 the call to mem; mem and fp: 0 the diamond's
		// head, 9 its else arm, 15 its then arm. The preamble's chain ends
		// in mem; each arm's chain returns, crosses its loop's edge and calls
		// its procedure again.
		{callLoopImage(t), []chain{
			{"main:0", "mem:0", 2, false},
			{"mem:9", "mem:0", 4, true}, {"mem:15", "mem:0", 4, true},
			{"fp:9", "fp:0", 4, true}, {"fp:15", "fp:0", 4, true},
		}},
	} {
		got := chains(tc.img)
		if len(got) != len(tc.want) {
			t.Errorf("%s: chains %v, want %v", tc.img.Name, got, tc.want)
		}
		for _, w := range tc.want {
			if got[w.head] != w {
				t.Errorf("%s: chain at %s is %+v, want %+v", tc.img.Name, w.head, got[w.head], w)
			}
		}
	}
}

// stepLoop is the reference RunLane must match: Step, with its per-step
// float pricing, until the budget is spent, the process exits or a mark
// requests an affinity change.
func stepLoop(p *Process, par *CoreParams, shareKB float64, budget int64) (used int64, res StepResult) {
	for used < budget {
		res = p.Step(par, 0, shareKB)
		used += res.Cycles
		if res.Exited || res.WantMask != 0 {
			break
		}
	}
	return used, res
}

// BenchmarkStepPlain times one Step on the nested fixture's fast core: the
// interpreter's float reference path.
func BenchmarkStepPlain(b *testing.B) {
	img := nestedImage(b, 1e9)
	cm := DefaultCostModel()
	ps := ParamsFor(cm, amp.Quad2Fast2Slow())
	p := NewProcess(1, img, &cm, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(&ps[0], 0, 4096)
	}
}

// BenchmarkRunLane times the kernel's step loop, RunLane, on the nested
// fixture's slow core in 100,000-cycle bursts. It reports ns per simulated
// thousand instructions.
func BenchmarkRunLane(b *testing.B) {
	img := nestedImage(b, 1e9)
	cm := DefaultCostModel()
	ps := ParamsFor(cm, amp.Quad2Fast2Slow())
	p := NewProcess(1, img, &cm, 1, nil)
	lane := p.Lane(&ps[1], 4096, ps[0].PsPerCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunLane(lane, 0, 100_000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(p.Counters.Instructions)/1000), "ns/kinstr")
}

// BenchmarkRunLaneDiamond times RunLane on the diamond fixture: the shape
// of a generated inline phase loop, which RunLane runs as one inner loop.
func BenchmarkRunLaneDiamond(b *testing.B) { benchRunLaneRestarting(b, diamondImage(b)) }

// BenchmarkRunLaneCallLoop times RunLane on the call-loop fixture: the
// shape of a generated Helper phase loop, which RunLane runs as one inner
// loop once chains cross the call and the return.
func BenchmarkRunLaneCallLoop(b *testing.B) { benchRunLaneRestarting(b, callLoopImage(b)) }

// benchRunLaneRestarting times RunLane on img's slow core in
// 100,000-cycle bursts, restarting the process when it exits. It reports
// ns per simulated thousand instructions.
func benchRunLaneRestarting(b *testing.B, img *Image) {
	cm := DefaultCostModel()
	ps := ParamsFor(cm, amp.Quad2Fast2Slow())
	p := NewProcess(1, img, &cm, 1, nil)
	lane := p.Lane(&ps[1], 4096, ps[0].PsPerCycle)
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Exited() {
			instrs += p.Counters.Instructions
			p = NewProcess(1, img, &cm, uint64(i), nil)
		}
		p.RunLane(lane, 0, 100_000)
	}
	instrs += p.Counters.Instructions
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(instrs)/1000), "ns/kinstr")
}

// maskHook requests an affinity change at every other phase mark, so a
// run meets marks that stop it and marks that do not.
type maskHook struct{ marks int }

func (h *maskHook) OnMark(p *Process, markID, coreID int) MarkAction {
	h.marks++
	return MarkAction{Mask: uint64(h.marks%2) << 1}
}
func (h *maskHook) OnExit(p *Process) {}

// TestRunLaneMatchesStepLoop drives two processes of one image through
// the same random slice budgets on the slow core: one by RunLane on the
// image's lane, as the kernel runs, with its fused chains and diamond
// loops (the corpus's diamonds and call loops among the images), and one
// by the Step loop, one block per step with float pricing. Every call must return
// the same cycles and stopping step, and after every slice the two must
// agree on counters, program counter, stack, loop counters, rng state and
// the ledger work they charged (which pins the table's fastest-clock
// counterfactual to Step's). The jump cycle never exits, so each run
// stops after 200 slices.
func TestRunLaneMatchesStepLoop(t *testing.T) {
	ps := ParamsFor(DefaultCostModel(), amp.Quad2Fast2Slow())
	slow, fastPs := &ps[1], ps[0].PsPerCycle
	images := []*Image{
		nestedImage(t, 300), instrumentedImage(t), chainImage(t), jumpCycleImage(t), midMarkImage(t), diamondImage(t),
		callLoopImage(t),
	}
	for _, p := range append(progtest.Diamonds(), progtest.CallLoops()...) {
		// The marked diamonds' and call loops' marks all have id 0.
		img, err := NewImage(p, &instrument.Binary{Prog: p, Marks: []instrument.Mark{{ID: 0, Type: 1}}}, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	for _, img := range images {
		cm := DefaultCostModel()
		for seed := uint64(1); seed <= 8; seed++ {
			run := NewProcess(1, img, &cm, seed, &maskHook{})
			ref := NewProcess(1, img, &cm, seed, &maskHook{})
			for _, q := range []*Process{run, ref} {
				q.Work = ledger.NewCollector(1, fastPs).Work()
			}
			lane := run.Lane(slow, 4096, fastPs)
			if ran, res := run.RunLane(lane, 0, 0); ran != 0 || res != (StepResult{}) {
				t.Fatalf("RunLane with no budget ran %d cycles to %+v", ran, res)
			}
			budgets := rng.New(seed)
			for slice := 0; slice < 200 && !run.Exited(); slice++ {
				where := fmt.Sprintf("%s seed %d slice %d", img.Name, seed, slice)
				budget := int64(1 + budgets.Intn(12000))
				for used := int64(0); used < budget && !run.Exited(); {
					ranRun, resRun := run.RunLane(lane, 0, budget-used)
					ranRef, resRef := stepLoop(ref, slow, 4096, budget-used)
					if ranRun != ranRef || resRun != resRef {
						t.Fatalf("%s: RunLane ran %d cycles to %+v, step loop %d to %+v", where, ranRun, resRun, ranRef, resRef)
					}
					used += ranRun
				}
				if run.Counters != ref.Counters || run.pc != ref.pc || !slices.Equal(run.stack, ref.stack) ||
					!slices.Equal(run.loopCounts, ref.loopCounts) || *run.rand != *ref.rand ||
					run.MarksExecuted != ref.MarksExecuted || run.Exited() != ref.Exited() {
					t.Fatalf("%s: RunLane left pc %d stack %v loops %v counters %+v, step loop pc %d stack %v loops %v counters %+v",
						where, run.pc, run.stack, run.loopCounts, run.Counters, ref.pc, ref.stack, ref.loopCounts, ref.Counters)
				}
				if work, got := run.Work.Drain(), ref.Work.Drain(); !slices.Equal(work, got) {
					t.Fatalf("%s: RunLane charged ledger work %+v, step loop %+v", where, work, got)
				}
			}
		}
	}
}

// TestBranchThresholdMatchesFloat64 checks that the integer branch draw
// takes a branch on exactly the draws where the float draw it replaced
// does: at the edges of each threshold and on a million random draws.
func TestBranchThresholdMatchesFloat64(t *testing.T) {
	a, b := 0.1, 0.2
	const draws = 1 << 53
	for _, p := range []float64{
		0, math.SmallestNonzeroFloat64, 1.0 / draws, 0.25, a + b, 1 - 1.0/draws, 1,
		math.NaN(), -0.5, 1.5,
	} {
		th := branchThreshold(p)
		edge := math.Ceil(p * draws)
		for _, x := range []float64{edge - 1, edge, draws - 1} {
			if !(x >= 0 && x < draws) {
				continue
			}
			u := uint64(x)
			if want, got := float64(u)/draws < p, u < th; got != want {
				t.Errorf("p=%g: draw %d taken %v, float draw %v", p, u, got, want)
			}
		}
		floats, ints := rng.New(uint64(th)+1), rng.New(uint64(th)+1)
		for i := 0; i < 1_000_000; i++ {
			if want, got := floats.Float64() < p, ints.Uint64()>>11 < th; got != want {
				t.Fatalf("p=%g: random draw %d taken %v, float draw %v", p, i, got, want)
			}
		}
	}
}
