package summarize

import (
	"testing"

	"phasetune/internal/cfg"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
)

// fixture builds a program with a compute loop, a memory loop, and a helper
// procedure called from the memory loop, plus the CFGs, call graph, and a
// hand-made typing (compute blocks type 0, memory blocks type 1).
func fixture(t *testing.T) (*prog.Program, []*cfg.Graph, *cfg.CallGraph, *phase.Typing) {
	t.Helper()
	b := prog.NewBuilder("fix")
	helper := b.Proc("helper")
	helper.Straight(prog.BlockMix{Load: 12, Store: 4, WorkingSetKB: 32768, Locality: 0.3}).Ret()

	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(40, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 18, IntMul: 4})
	})
	main.Loop(40, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{Load: 10, Store: 4, IntALU: 2, WorkingSetKB: 32768, Locality: 0.3})
		pb.CallProc("helper")
	})
	main.Ret()
	p := b.MustBuild()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	cg := cfg.BuildCallGraph(p, graphs)

	// Type by inspection: memory-op blocks -> 1, pure compute -> 0.
	ty := &phase.Typing{K: 2, Types: map[phase.BlockKey]phase.Type{}}
	for pi, g := range graphs {
		for _, blk := range g.Blocks {
			if blk.Kind != cfg.KindNormal || blk.NumInstrs() < 5 {
				continue
			}
			m := blk.Mix()
			if m.MemOps() > 0 {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 1
			} else {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 0
			}
		}
	}
	return p, graphs, cg, ty
}

func TestTypeMapDominant(t *testing.T) {
	m := typeMap{}
	m.add(0, 5)
	m.add(1, 15)
	info := m.dominant()
	if info.Type != 1 {
		t.Errorf("dominant = %d, want 1", info.Type)
	}
	if info.Strength != 0.75 {
		t.Errorf("strength = %g, want 0.75", info.Strength)
	}
}

func TestTypeMapDominantEmpty(t *testing.T) {
	if info := (typeMap{}).dominant(); info.Type != phase.Untyped {
		t.Errorf("empty map dominant = %d, want Untyped", info.Type)
	}
}

func TestTypeMapIgnoresUntypedAndNonPositive(t *testing.T) {
	m := typeMap{}
	m.add(phase.Untyped, 100)
	m.add(0, 0)
	m.add(0, -5)
	if len(m) != 0 {
		t.Errorf("map accumulated invalid entries: %v", m)
	}
}

func TestTypeMapTieBreaksDeterministically(t *testing.T) {
	m := typeMap{}
	m.add(1, 10)
	m.add(0, 10)
	if info := m.dominant(); info.Type != 0 {
		t.Errorf("tie broken to %d, want 0 (smaller ID)", info.Type)
	}
}

func TestSummarizeIntervalsTypesLoops(t *testing.T) {
	_, graphs, _, ty := fixture(t)
	g := graphs[1] // main
	ivs := g.Intervals()
	infos := SummarizeIntervals(g, 1, ty, DefaultWeights(), ivs)
	// Every interval containing a typed loop body must carry that type.
	loops := g.NaturalLoops()
	of := cfg.IntervalOf(g, ivs)
	for _, l := range loops {
		want := ty.TypeOf(phase.BlockKey{Proc: 1, Block: l.Header})
		if want == phase.Untyped {
			continue
		}
		iv := of[l.Header]
		if iv == -1 {
			t.Fatalf("loop header %d not in an interval", l.Header)
		}
		if got := infos[iv].Type; got != want {
			t.Errorf("interval %d (loop header %d) typed %d, want %d", iv, l.Header, got, want)
		}
	}
}

func TestSummarizeLoopsTypes(t *testing.T) {
	p, graphs, cg, ty := fixture(t)
	sum := SummarizeLoops(p, graphs, cg, ty, DefaultWeights())
	mainLoops := sum.Loops[1]
	if len(mainLoops) != 2 {
		t.Fatalf("main has %d summarized loops, want 2", len(mainLoops))
	}
	types := map[phase.Type]int{}
	for _, li := range mainLoops {
		types[li.Info.Type]++
		if !li.InT {
			t.Errorf("top-level loop (header %d) not in T", li.Loop.Header)
		}
		if li.Info.Strength <= 0.5 {
			t.Errorf("loop strength = %g, want > 0.5 for homogeneous loops", li.Info.Strength)
		}
	}
	if types[0] != 1 || types[1] != 1 {
		t.Errorf("loop types = %v, want one compute and one memory", types)
	}
}

func TestProcSummaryUsesCalleeAtCallSites(t *testing.T) {
	p, graphs, cg, ty := fixture(t)
	sum := SummarizeLoops(p, graphs, cg, ty, DefaultWeights())
	// helper is pure memory: its summary must be type 1.
	if got := sum.Procs[0].Info.Type; got != 1 {
		t.Errorf("helper summary type = %d, want 1", got)
	}
	if sum.Procs[0].Weight <= 0 {
		t.Error("helper weight not positive")
	}
	// main mixes both but the memory loop contains a call to a memory
	// helper, weighting type 1 above type 0 at equal nesting.
	if got := sum.Procs[1].Info.Type; got != 1 {
		t.Errorf("main summary type = %d, want 1 (memory loop + callee dominate)", got)
	}
}

// nestedFixture builds same-type nested loops to exercise elimination.
func nestedFixture(t *testing.T, innerType, outerType phase.Type) ([]*cfg.Graph, *Summary) {
	t.Helper()
	b := prog.NewBuilder("nest")
	main := b.Proc("main")
	mixFor := func(ty phase.Type) prog.BlockMix {
		if ty == 0 {
			return prog.BlockMix{IntALU: 10}
		}
		return prog.BlockMix{Load: 10, WorkingSetKB: 32768, Locality: 0.3}
	}
	main.Loop(10, func(pb *prog.ProcBuilder) {
		pb.Straight(mixFor(outerType))
		pb.Loop(30, func(pb *prog.ProcBuilder) {
			pb.Straight(mixFor(innerType))
			pb.Straight(mixFor(innerType)) // weight the inner loop heavily
		})
	})
	main.Ret()
	p := b.MustBuild()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatal(err)
	}
	cg := cfg.BuildCallGraph(p, graphs)
	ty := &phase.Typing{K: 2, Types: map[phase.BlockKey]phase.Type{}}
	for pi, g := range graphs {
		for _, blk := range g.Blocks {
			if blk.Kind != cfg.KindNormal || blk.NumInstrs() < 5 {
				continue
			}
			if blk.Mix().MemOps() > 0 {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 1
			} else {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 0
			}
		}
	}
	return graphs, SummarizeLoops(p, graphs, cg, ty, DefaultWeights())
}

func TestEliminationMergesSameTypeNest(t *testing.T) {
	_, sum := nestedFixture(t, 1, 1)
	var inT, notInT int
	for _, li := range sum.Loops[0] {
		if li.InT {
			inT++
			if li.Loop.Parent != -1 {
				t.Error("inner loop survived elimination despite same-type parent")
			}
		} else {
			notInT++
		}
	}
	if inT != 1 || notInT != 1 {
		t.Errorf("inT=%d notInT=%d, want outer only in T", inT, notInT)
	}
}

func TestEliminationKeepsDifferentTypeNest(t *testing.T) {
	_, sum := nestedFixture(t, 1, 0)
	// Inner loop is heavily weighted memory; outer's dominant type is the
	// inner's (nesting weights), so elimination may still merge. What must
	// hold: at least one loop remains in T and the inner loop's type is 1.
	innerSeen := false
	for _, li := range sum.Loops[0] {
		if li.Loop.Parent != -1 {
			innerSeen = true
			if li.Info.Type != 1 {
				t.Errorf("inner loop type = %d, want 1", li.Info.Type)
			}
		}
	}
	if !innerSeen {
		t.Fatal("no nested loop summarized")
	}
	inT := 0
	for _, li := range sum.Loops[0] {
		if li.InT {
			inT++
		}
	}
	if inT == 0 {
		t.Error("no loops survive in T")
	}
}

func TestRecursiveProgramConverges(t *testing.T) {
	b := prog.NewBuilder("rec")
	f := b.Proc("f")
	g := b.Proc("g")
	b.SetEntry("f")
	f.Loop(5, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 10})
		pb.IfElse(0.3, func(pb *prog.ProcBuilder) { pb.CallProc("g") }, nil)
	})
	f.Ret()
	g.Straight(prog.BlockMix{Load: 10, WorkingSetKB: 16384, Locality: 0.4})
	g.CallProc("f")
	g.Ret()
	p := b.MustBuild()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatal(err)
	}
	cg := cfg.BuildCallGraph(p, graphs)
	ty := &phase.Typing{K: 2, Types: map[phase.BlockKey]phase.Type{}}
	for pi, gg := range graphs {
		for _, blk := range gg.Blocks {
			if blk.Kind != cfg.KindNormal || blk.NumInstrs() < 3 {
				continue
			}
			if blk.Mix().MemOps() > 0 {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 1
			} else {
				ty.Types[phase.BlockKey{Proc: pi, Block: blk.ID}] = 0
			}
		}
	}
	sum := SummarizeLoops(p, graphs, cg, ty, DefaultWeights())
	for pi := range graphs {
		if sum.Procs[pi].Weight <= 0 {
			t.Errorf("proc %d has non-positive weight", pi)
		}
	}
}

func TestWeightsNest(t *testing.T) {
	w := DefaultWeights()
	if w.nest(0) != 1 {
		t.Errorf("nest(0) = %g, want 1", w.nest(0))
	}
	if w.nest(2) != 16 {
		t.Errorf("nest(2) = %g, want 16 with base 4", w.nest(2))
	}
	flat := Weights{NestBase: 1}
	if flat.nest(3) != 1 {
		t.Errorf("base-1 nest(3) = %g, want 1", flat.nest(3))
	}
}

func TestStrengthRange(t *testing.T) {
	_, graphs, cg, ty := fixture(t)
	_ = cg
	for pi, g := range graphs {
		ivs := g.Intervals()
		for _, info := range SummarizeIntervals(g, pi, ty, DefaultWeights(), ivs) {
			if info.Type == phase.Untyped {
				continue
			}
			if info.Strength < 0 || info.Strength > 1 {
				t.Errorf("strength %g outside [0,1]", info.Strength)
			}
		}
	}
}
