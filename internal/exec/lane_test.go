package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/ledger"
	"phasetune/internal/prog"
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
// image's lane, as the kernel runs, and one by the Step loop, with its
// float pricing. Every call must return the same cycles and stopping step,
// and after every slice the two must agree on counters, program counter,
// stack, loop counters, rng state and the ledger work they charged (which
// pins the table's fastest-clock counterfactual to Step's).
func TestRunLaneMatchesStepLoop(t *testing.T) {
	ps := ParamsFor(DefaultCostModel(), amp.Quad2Fast2Slow())
	slow, fastPs := &ps[1], ps[0].PsPerCycle
	for _, img := range []*Image{nestedImage(t, 300), instrumentedImage(t)} {
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
			for slice := 0; !run.Exited(); slice++ {
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
