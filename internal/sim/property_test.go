package sim

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/isa"
	"phasetune/internal/osched"
	"phasetune/internal/place"
	"phasetune/internal/prog"
	"phasetune/internal/rng"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
)

// randomProgram generates a structurally random (but always valid) program:
// nested loops, conditionals, calls, and mixed block kinds.
func randomProgram(r *rng.Source, id int) *prog.Program {
	b := prog.NewBuilder("rand")
	nHelpers := r.Intn(3)
	for h := 0; h < nHelpers; h++ {
		hp := b.Proc(helperName(h))
		emitRandomBody(r, hp, 2, nil)
		hp.Ret()
	}
	main := b.Proc("main")
	b.SetEntry("main")
	var helpers []string
	for h := 0; h < nHelpers; h++ {
		helpers = append(helpers, helperName(h))
	}
	emitRandomBody(r, main, 3, helpers)
	main.Ret()
	return b.MustBuild()
}

func helperName(i int) string { return string(rune('a'+i)) + "helper" }

// emitRandomBody emits a random structured body with bounded nesting.
func emitRandomBody(r *rng.Source, pb *prog.ProcBuilder, depth int, helpers []string) {
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		switch choice := r.Intn(5); {
		case choice == 0 && depth > 0:
			trips := 2 + r.Intn(30)
			pb.Loop(float64(trips), func(pb *prog.ProcBuilder) {
				emitRandomBody(r, pb, depth-1, helpers)
			})
		case choice == 1 && depth > 0:
			emitIf(r, pb, depth, helpers)
		case choice == 2 && len(helpers) > 0:
			pb.CallProc(helpers[r.Intn(len(helpers))])
		default:
			pb.Straight(randomMix(r))
		}
	}
}

func emitIf(r *rng.Source, pb *prog.ProcBuilder, depth int, helpers []string) {
	pb.IfElse(r.Float64(),
		func(pb *prog.ProcBuilder) { emitRandomBody(r, pb, depth-1, helpers) },
		func(pb *prog.ProcBuilder) { pb.Straight(randomMix(r)) },
	)
}

func randomMix(r *rng.Source) prog.BlockMix {
	if r.Intn(2) == 0 {
		return prog.BlockMix{
			IntALU: 5 + r.Intn(30), IntMul: r.Intn(8),
			FPAdd: r.Intn(10),
			Load:  r.Intn(4), WorkingSetKB: 16, Locality: 0.99,
		}
	}
	return prog.BlockMix{
		Load: 4 + r.Intn(16), Store: r.Intn(8), IntALU: r.Intn(10),
		WorkingSetKB: 256 * float64(1+r.Intn(24)), Locality: 0.9 + 0.08*r.Float64(),
	}
}

// TestRandomProgramsSurviveFullPipeline pushes random programs through every
// stage: CFG invariants, all three marking techniques, instrumentation,
// image building, and bounded tuned execution.
func TestRandomProgramsSurviveFullPipeline(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	pars := exec.ParamsFor(cost, machine)
	techniques := []transition.Params{
		{Technique: transition.BasicBlock, MinSize: 10, Lookahead: 1, PropagateThroughUntyped: true},
		{Technique: transition.Interval, MinSize: 30, PropagateThroughUntyped: true},
		{Technique: transition.Loop, MinSize: 30, PropagateThroughUntyped: true},
	}

	const trials = 40
	r := rng.New(20260610)
	for i := 0; i < trials; i++ {
		p := randomProgram(r, i)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid program: %v", i, err)
		}
		graphs, err := cfg.BuildAll(p)
		if err != nil {
			t.Fatalf("trial %d: CFG: %v", i, err)
		}
		// CFG invariant: every instruction belongs to exactly one block.
		for pi, g := range graphs {
			covered := 0
			for _, blk := range g.Blocks {
				covered += blk.NumInstrs()
			}
			if covered != len(p.Procs[pi].Instrs) {
				t.Fatalf("trial %d proc %d: blocks cover %d of %d instrs",
					i, pi, covered, len(p.Procs[pi].Instrs))
			}
		}
		for _, params := range techniques {
			img := instrumentFor(t, p, params, cost).Image
			// Execute bounded with a tuner attached; must not panic or hang.
			kern, err := osched.NewKernel(machine, cost, osched.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tcfg := tuning.DefaultConfig()
			tu := tuning.NewTuner(tcfg, place.NewEngine(machine, tcfg.Delta, place.Config{}), kern.Hardware, img)
			proc := exec.NewProcess(1, img, &cost, uint64(i)+7, tu)
			var cycles int64
			for !proc.Exited() && cycles < 3_000_000 {
				res := proc.Step(&pars[0], 0, 4096)
				cycles += res.Cycles
			}
		}
	}
}

// TestRandomProgramsDeterministicExecution verifies the whole pipeline is a
// pure function of the seed for arbitrary programs.
func TestRandomProgramsDeterministicExecution(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	pars := exec.ParamsFor(cost, machine)
	r := rng.New(77)
	for i := 0; i < 10; i++ {
		p := randomProgram(r, i)
		img, err := exec.NewImage(p, nil, cost)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (uint64, uint64) {
			proc := exec.NewProcess(1, img, &cost, 1234, nil)
			proc.RunIsolated(&pars[0], 0, 4096, 2_000_000)
			return proc.Counters.Instructions, proc.Counters.Cycles
		}
		i1, c1 := run()
		i2, c2 := run()
		if i1 != i2 || c1 != c2 {
			t.Fatalf("trial %d: nondeterministic execution: %d/%d vs %d/%d", i, i1, c1, i2, c2)
		}
	}
}

// TestMarkExecutionsMatchTransitions: on instrumented random programs, the
// dynamic mark count equals the number of times control crossed a marked
// edge — which is at most the total block executions.
func TestMarkCostsAccounted(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	pars := exec.ParamsFor(cost, machine)
	r := rng.New(31)
	for i := 0; i < 10; i++ {
		p := randomProgram(r, i)
		img := instrumentFor(t, p, transition.Params{
			Technique: transition.BasicBlock, MinSize: 10, PropagateThroughUntyped: true,
		}, cost).Image
		proc := exec.NewProcess(1, img, &cost, 5, nil)
		proc.RunIsolated(&pars[0], 0, 4096, 2_000_000)
		wantInstr := proc.MarksExecuted * uint64(cost.MarkInstrs)
		if proc.Counters.Instructions < wantInstr {
			t.Fatalf("trial %d: counters %d below mark instructions %d",
				i, proc.Counters.Instructions, wantInstr)
		}
	}
}

// TestRandomMarkedImagesValid checks instrumentation invariants over random
// programs: marks appear exactly once, targets stay in range, and byte
// accounting is exact.
func TestRandomMarkedImagesValid(t *testing.T) {
	cost := exec.DefaultCostModel()
	r := rng.New(99)
	for i := 0; i < 25; i++ {
		p := randomProgram(r, i)
		art := instrumentFor(t, p, transition.Params{
			Technique: transition.BasicBlock, MinSize: 10, PropagateThroughUntyped: true,
		}, cost)
		img, stats := art.Image, art.Stats
		seen := map[int]int{}
		bytes := 0
		for _, pr := range img.Prog.Procs {
			for _, in := range pr.Instrs {
				bytes += in.SizeBytes()
				if in.Op == isa.PhaseMark {
					seen[in.MarkID]++
				}
			}
		}
		if len(seen) != stats.Marks {
			t.Fatalf("trial %d: %d distinct marks in code, stats say %d", i, len(seen), stats.Marks)
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: mark %d appears %d times", i, id, n)
			}
		}
		if bytes != stats.NewBytes {
			t.Fatalf("trial %d: byte accounting %d vs %d", i, bytes, stats.NewBytes)
		}
	}
}
