package exec_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/isa"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/prog/progtest"
	"phasetune/internal/rng"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// at names a basic block as (procedure index, block index in its CFG).
type at struct{ proc, block int }

// reference is an interpreter written against prog.Program and its CFGs
// alone, with none of the image's flattening (global ids, successor ids,
// dense loop indexes, integer branch thresholds, cost tables): one block
// per step, a call stack of return blocks, a counter per counted back
// edge, branches drawn as rng.Float64() < p, and float pricing.
type reference struct {
	graphs  []*cfg.Graph
	cm      exec.CostModel
	par     *exec.CoreParams
	shareKB float64
	rand    *rng.Source

	pc       at
	stack    []at
	loops    map[at]int32
	exited   bool
	counters perfcnt.Counters
}

func newReference(p *prog.Program, cm exec.CostModel, par *exec.CoreParams, shareKB float64, seed uint64) (*reference, error) {
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, err
	}
	return &reference{graphs: graphs, cm: cm, par: par, shareKB: shareKB, rand: rng.New(seed),
		pc: at{p.Entry, graphs[p.Entry].BlockOf(0)}, loops: map[at]int32{}}, nil
}

// step executes the block at r.pc and returns the cycles it cost.
func (r *reference) step() int64 {
	g := r.graphs[r.pc.proc]
	b := g.Blocks[r.pc.block]
	var cycles float64
	var instrs, memRefs, marks int64
	syscall := false
	for _, in := range b.Instrs {
		if in.Op == isa.PhaseMark {
			marks++
			continue
		}
		cycles += r.cm.CPI[in.Op]
		instrs++
		if in.Op.IsMemory() {
			memRefs++
		}
		syscall = syscall || in.Op == isa.Syscall
	}
	if memRefs > 0 {
		prof := phase.BlockProfile(b)
		l1miss := float64(memRefs) * prof.L1MissFraction()
		cycles += float64(l1miss * (r.par.L2HitCycles + float64(prof.MissRatio(r.shareKB)*r.par.MemCycles)))
	}
	if syscall {
		cycles += r.cm.SyscallCycles
	}
	ic := int64(cycles)
	if ic < 1 && instrs > 0 {
		ic = 1
	}
	r.counters.Add(uint64(instrs+marks*r.cm.MarkInstrs), uint64(ic+marks*r.cm.MarkCycles))
	r.counters.AddMem(uint64(memRefs))

	last := b.Instrs[len(b.Instrs)-1]
	to := func(instr int) at { return at{r.pc.proc, g.BlockOf(instr)} }
	switch last.Op {
	case isa.Branch:
		var taken bool
		if last.TripCount > 0 {
			r.loops[r.pc]++
			if taken = r.loops[r.pc] < last.TripCount; !taken {
				delete(r.loops, r.pc)
			}
		} else {
			taken = r.rand.Float64() < last.TakenProb
		}
		if taken {
			r.pc = to(last.Target)
		} else {
			r.pc = to(b.End)
		}
	case isa.Jump:
		r.pc = to(last.Target)
	case isa.Call:
		r.stack = append(r.stack, to(b.End))
		r.pc = at{last.Target, r.graphs[last.Target].BlockOf(0)}
	case isa.Ret:
		if len(r.stack) == 0 {
			r.exited = true
			break
		}
		r.pc = r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
	default:
		r.pc = to(b.End)
	}
	return ic + marks*r.cm.MarkCycles
}

// randomBudgets returns RunLane budgets below maxBudget drawn from seed;
// half of them are one cycle, which runs exactly one block, so the
// (proc, block) visit sequence is compared block by block.
func randomBudgets(seed uint64, maxBudget int) func() int64 {
	budgets := rng.New(seed)
	return func() int64 {
		budget := int64(1)
		if budgets.Intn(2) == 0 {
			budget += int64(budgets.Intn(maxBudget))
		}
		return budget
	}
}

// lockstep runs p as an uninstrumented image through RunLane and through
// the reference, with random budgets below maxBudget (randomBudgets).
func lockstep(t *testing.T, p *prog.Program, seed uint64, calls int, maxBudget int) {
	t.Helper()
	img, err := exec.NewImage(p, nil, exec.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	lockstepImage(t, img, seed, calls, randomBudgets(^seed, maxBudget))
}

// lockstepImage runs img through RunLane and its program through the
// reference, on the slow core of the quad machine, for up to calls
// RunLane calls with the budgets next returns. After every call both
// must agree on cycles, next block, call stack, loop counters, counters
// (phase marks included), rng state and exit.
func lockstepImage(t *testing.T, img *exec.Image, seed uint64, calls int, next func() int64) {
	t.Helper()
	cm := exec.DefaultCostModel()
	par := &exec.ParamsFor(cm, amp.Quad2Fast2Slow())[1]
	const shareKB = 2048
	p := img.Prog
	ref, err := newReference(p, cm, par, shareKB, seed)
	if err != nil {
		t.Fatal(err)
	}
	// gid maps a block to the global id the image should give it: the
	// procedures' blocks laid end to end in procedure order.
	starts := make([]int32, len(ref.graphs)+1)
	for i, g := range ref.graphs {
		starts[i+1] = starts[i] + int32(len(g.Blocks))
	}
	gid := func(a at) int32 { return starts[a.proc] + int32(a.block) }

	run := exec.NewProcess(1, img, &cm, seed, nil)
	lane := run.Lane(par, shareKB, par.PsPerCycle)
	for call := 0; call < calls && !run.Exited(); call++ {
		budget := next()
		used, res := run.RunLane(lane, 0, budget)
		var refUsed int64
		for refUsed < budget && !ref.exited {
			refUsed += ref.step()
		}
		where := fmt.Sprintf("%s seed %d call %d (budget %d)", p.Name, seed, call, budget)
		pc, stack, loopCount, rand := exec.ControlState(run)
		refStack := make([]int32, len(ref.stack))
		for i, a := range ref.stack {
			refStack[i] = gid(a)
		}
		if used != refUsed || res.Exited != ref.exited || pc != gid(ref.pc) || !slices.Equal(stack, refStack) {
			t.Fatalf("%s: RunLane ran %d cycles to block %d stack %v exited %v; reference %d cycles to %v = block %d stack %v exited %v",
				where, used, pc, stack, res.Exited, refUsed, ref.pc, gid(ref.pc), refStack, ref.exited)
		}
		if run.Counters != ref.counters || rand != *ref.rand {
			t.Fatalf("%s: RunLane counters %+v, reference %+v (or the branch rng drifted)", where, run.Counters, ref.counters)
		}
		for pi, g := range ref.graphs {
			for bi, b := range g.Blocks {
				if last := b.Instrs[len(b.Instrs)-1]; last.Op != isa.Branch || last.TripCount == 0 {
					continue
				}
				a := at{pi, bi}
				if got, want := loopCount(gid(a)), ref.loops[a]; got != want {
					t.Fatalf("%s: counted edge %v at trip %d, reference %d", where, a, got, want)
				}
			}
		}
	}
}

// TestInterpreterMatchesReference runs every benchgen suite program, and
// the small builder programs of the decoder's fuzz corpus (diamond loops
// among them), through RunLane and the reference interpreter in lockstep.
// The suite also runs as the instrumented images campaigns execute, under
// the loop technique (Loop[45]) and the most mark-dense basic-block one
// (BB[10,0]). Neither marks a block of a phase-loop diamond, so the
// diamonds that hold a mark in their head or then arm come from the
// corpus: they must run block by block, with the mark charged.
func TestInterpreterMatchesReference(t *testing.T) {
	suite, instrumented := instrumentedSuite(t)
	for _, b := range suite {
		lockstep(t, b.Prog, 1, 400, 40000)
	}
	for _, images := range instrumented {
		for _, img := range images {
			lockstepImage(t, img, 1, 400, randomBudgets(^uint64(1), 40000))
		}
	}
	for _, p := range progtest.Programs() {
		for seed := uint64(1); seed <= 4; seed++ {
			lockstep(t, p, seed, 1000, 5000)
		}
	}
}

// instrumentedSuite returns the benchgen suite on the quad machine and
// its images instrumented under the loop technique (Loop[45]) and the
// most mark-dense basic-block one (BB[10,0]), one list per technique in
// suite order.
func instrumentedSuite(t *testing.T) ([]*workload.Benchmark, [][]*exec.Image) {
	t.Helper()
	cm := exec.DefaultCostModel()
	suite, err := workload.Suite(cm, amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]*exec.Image
	for _, params := range []transition.Params{
		sim.BestParams(),
		{Technique: transition.BasicBlock, MinSize: 10, PropagateThroughUntyped: true},
	} {
		marks := 0
		var images []*exec.Image
		for _, b := range suite {
			a, err := sim.Analyze(b.Prog, phase.Options{}.Normalized(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			art, err := a.Instrument(params, cm)
			if err != nil {
				t.Fatal(err)
			}
			marks += art.Image.NumMarks()
			images = append(images, art.Image)
		}
		if marks == 0 {
			t.Errorf("%+v: the instrumented suite holds no marks", params)
		}
		out = append(out, images)
	}
	return suite, out
}

// TestSuiteHelperLoopsAreDiamonds pins that RunLane runs every Helper
// phase loop of the suite as a diamond loop: the procedure the loop calls
// holds two diamond arms, in the uninstrumented image and under Loop[45]
// and BB[10,0].
func TestSuiteHelperLoopsAreDiamonds(t *testing.T) {
	suite, instrumented := instrumentedSuite(t)
	helpers := 0
	for i, b := range suite {
		plain, err := exec.NewImage(b.Prog, nil, exec.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		images := []*exec.Image{plain}
		for _, imgs := range instrumented {
			images = append(images, imgs[i])
		}
		for pi, ph := range b.Spec.Phases() {
			if !ph.Helper {
				continue
			}
			helpers++
			name := fmt.Sprintf("phase%d_%s", pi, ph.Kind)
			for ti, img := range images {
				if got := exec.DiamondArms(img)[name]; got != 2 {
					t.Errorf("%s image %d: helper %s holds %d diamond arms, want 2", b.Name(), ti, name, got)
				}
			}
		}
	}
	if helpers == 0 {
		t.Error("the suite has no Helper phase")
	}
}

// TestDiamondSliceEnds runs each diamond loop and call loop program in
// lockstep with slices that end where the inner loop's guards must stop
// it: a budget of one cycle throughout, and a first slice that ends
// mid-loop or within a cycle of where the loop's last trip starts (its
// counted edge then falls through), followed by random slices.
func TestDiamondSliceEnds(t *testing.T) {
	cm := exec.DefaultCostModel()
	par := &exec.ParamsFor(cm, amp.Quad2Fast2Slow())[1]
	for _, p := range append(progtest.Diamonds(), progtest.CallLoops()...) {
		for seed := uint64(1); seed <= 3; seed++ {
			img, err := exec.NewImage(p, nil, cm)
			if err != nil {
				t.Fatal(err)
			}
			lockstepImage(t, img, seed, 100_000, func() int64 { return 1 })
			last := lastTripCycles(t, p, cm, par, seed)
			for _, first := range []int64{last / 2, last - 1, last, last + 1} {
				if first < 1 {
					continue
				}
				budgets := randomBudgets(seed, 3000)
				next := func() int64 {
					if b := first; b > 0 {
						first = 0
						return b
					}
					return budgets()
				}
				lockstepImage(t, img, seed, 1000, next)
			}
		}
	}
}

// lastTripCycles returns the cycles the reference runs p for before the
// last trip of the first counted loop to reach its final trip begins: the
// first point where a counted edge's counter stands at its trip count
// less one.
func lastTripCycles(t *testing.T, p *prog.Program, cm exec.CostModel, par *exec.CoreParams, seed uint64) int64 {
	t.Helper()
	ref, err := newReference(p, cm, par, 2048, seed)
	if err != nil {
		t.Fatal(err)
	}
	var used int64
	for !ref.exited {
		used += ref.step()
		for a, n := range ref.loops {
			b := ref.graphs[a.proc].Blocks[a.block]
			if n == b.Instrs[len(b.Instrs)-1].TripCount-1 {
				return used
			}
		}
	}
	return used
}

// FuzzInterpreterMatchesReference decodes a program and runs it through
// RunLane and the reference interpreter in lockstep. Programs the decoder
// or image build refuses are skipped.
func FuzzInterpreterMatchesReference(f *testing.F) {
	for _, data := range progtest.Corpus() {
		f.Add(data, uint64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		p, err := prog.Decode(bytes.NewReader(data))
		if err != nil || p.NumInstrs() > 4096 {
			return
		}
		if _, err := exec.NewImage(p, nil, exec.DefaultCostModel()); err != nil {
			return
		}
		lockstep(t, p, seed, 200, 5000)
	})
}
