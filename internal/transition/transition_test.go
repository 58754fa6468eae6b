package transition

import (
	"testing"

	"phasetune/internal/cfg"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/summarize"
)

// fixture: compute loop then memory loop in main, memory helper called from
// the memory loop. Blocks >= 5 instructions are typed by memory ops.
func fixture(t *testing.T) (*prog.Program, []*cfg.Graph, *cfg.CallGraph, *phase.Typing, *summarize.Summary) {
	t.Helper()
	b := prog.NewBuilder("fix")
	helper := b.Proc("helper")
	helper.Straight(prog.BlockMix{Load: 12, Store: 4, WorkingSetKB: 32768, Locality: 0.3}).Ret()

	main := b.Proc("main")
	b.SetEntry("main")
	main.Straight(prog.BlockMix{IntALU: 16})
	main.Loop(40, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 30, IntMul: 10})
	})
	main.Loop(40, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{Load: 24, Store: 10, IntALU: 6, WorkingSetKB: 32768, Locality: 0.3})
		pb.CallProc("helper")
	})
	// Second compute phase so the plan contains transitions in both
	// directions (memory -> compute and compute -> memory).
	main.Loop(40, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 26, IntMul: 8})
	})
	main.Ret()
	p := b.MustBuild()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
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
	sum := summarize.SummarizeLoops(p, graphs, cg, ty, summarize.DefaultWeights())
	return p, graphs, cg, ty, sum
}

func planFor(t *testing.T, params Params) (*Plan, []*cfg.Graph) {
	t.Helper()
	p, graphs, cg, ty, sum := fixture(t)
	_ = p
	plan, err := ComputePlan(p, graphs, cg, ty, sum, params)
	if err != nil {
		t.Fatalf("ComputePlan(%v): %v", params.Name(), err)
	}
	return plan, graphs
}

func TestBasicBlockPlanFindsTransition(t *testing.T) {
	plan, graphs := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	if plan.NumMarks() == 0 {
		t.Fatal("no marks for a program with two phases")
	}
	// Both phase types must appear as mark targets.
	seen := map[phase.Type]bool{}
	for _, s := range plan.Sites {
		seen[s.Type] = true
		// Every mark's target block must carry the mark's type.
		if got := plan.RegionTypes[phase.BlockKey{Proc: s.Proc, Block: s.To}]; got != s.Type {
			t.Errorf("mark at %d->%d types %d but region type is %d", s.From, s.To, s.Type, got)
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("mark target types = %v, want both 0 and 1", seen)
	}
	_ = graphs
}

func TestMarksOnlyOnTypeChanges(t *testing.T) {
	plan, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	for _, s := range plan.Sites {
		src := plan.RegionTypes[phase.BlockKey{Proc: s.Proc, Block: s.From}]
		if src == s.Type && src != phase.Untyped {
			t.Errorf("mark on non-transition edge %d->%d (both type %d)", s.From, s.To, src)
		}
	}
}

func TestMinSizeReducesMarks(t *testing.T) {
	small, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 5, PropagateThroughUntyped: true})
	large, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 100, PropagateThroughUntyped: true})
	if large.NumMarks() > small.NumMarks() {
		t.Errorf("min size 100 yields %d marks > min size 5 yields %d", large.NumMarks(), small.NumMarks())
	}
}

func TestLookaheadNeverAddsMarks(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		base, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
		la, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, Lookahead: depth, PropagateThroughUntyped: true})
		if la.NumMarks() > base.NumMarks() {
			t.Errorf("lookahead %d yields %d marks > naive %d", depth, la.NumMarks(), base.NumMarks())
		}
	}
}

func TestIntervalPlan(t *testing.T) {
	plan, graphs := planFor(t, Params{Technique: Interval, MinSize: 30, PropagateThroughUntyped: true})
	if plan.NumMarks() == 0 {
		t.Fatal("interval technique produced no marks")
	}
	// Interval marks must never land inside a loop body: the paper's point
	// is that intervals capture small loops whole. Every mark target that is
	// a loop block must be the loop header.
	for _, s := range plan.Sites {
		g := graphs[s.Proc]
		for _, l := range g.NaturalLoops() {
			if l.Contains(s.To) && s.To != l.Header && l.Contains(s.From) {
				t.Errorf("interval mark inside loop: edge %d->%d in loop headed %d", s.From, s.To, l.Header)
			}
		}
	}
}

func TestLoopPlanMarksLoopBoundaries(t *testing.T) {
	plan, graphs := planFor(t, Params{Technique: Loop, MinSize: 30, PropagateThroughUntyped: true})
	if plan.NumMarks() == 0 {
		t.Fatal("loop technique produced no marks")
	}
	// No mark may sit on an edge wholly inside one marked loop.
	for _, s := range plan.Sites {
		g := graphs[s.Proc]
		for _, l := range g.NaturalLoops() {
			if l.Contains(s.From) && l.Contains(s.To) && s.To != l.Header {
				t.Errorf("loop-technique mark inside loop body: %d->%d", s.From, s.To)
			}
		}
	}
}

func TestLoopRequiresSummary(t *testing.T) {
	p, graphs, cg, ty, _ := fixture(t)
	if _, err := ComputePlan(p, graphs, cg, ty, nil, Params{Technique: Loop, MinSize: 30}); err == nil {
		t.Error("loop technique accepted nil summary")
	}
}

func TestNilTypingRejected(t *testing.T) {
	p, graphs, cg, _, sum := fixture(t)
	if _, err := ComputePlan(p, graphs, cg, nil, sum, Params{Technique: BasicBlock, MinSize: 10}); err == nil {
		t.Error("nil typing accepted")
	}
}

func TestParamsName(t *testing.T) {
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Technique: BasicBlock, MinSize: 15, Lookahead: 2}, "BB[15,2]"},
		{Params{Technique: Interval, MinSize: 45}, "Int[45]"},
		{Params{Technique: Loop, MinSize: 60}, "Loop[60]"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestFallthroughFlag(t *testing.T) {
	plan, graphs := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	for _, s := range plan.Sites {
		g := graphs[s.Proc]
		isFall := g.Blocks[s.From].End == g.Blocks[s.To].Start
		if s.Fallthrough != isFall {
			t.Errorf("site %d->%d fallthrough = %v, layout says %v", s.From, s.To, s.Fallthrough, isFall)
		}
	}
}

func TestDeterministicSiteOrder(t *testing.T) {
	a, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	b, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs: %+v vs %+v", i, a.Sites[i], b.Sites[i])
		}
	}
}

func TestPropagationReducesOrEqualMarks(t *testing.T) {
	with, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: true})
	without, _ := planFor(t, Params{Technique: BasicBlock, MinSize: 10, PropagateThroughUntyped: false})
	// Without propagation, untyped-source edges are skipped entirely, so
	// the count can only be <=.
	if without.NumMarks() > with.NumMarks() {
		t.Errorf("no-propagation marks %d > propagation marks %d", without.NumMarks(), with.NumMarks())
	}
}

func TestTechniqueString(t *testing.T) {
	if BasicBlock.String() != "BB" || Interval.String() != "Int" || Loop.String() != "Loop" {
		t.Error("technique names wrong")
	}
}

func TestParseTechnique(t *testing.T) {
	for name, want := range map[string]Technique{"bb": BasicBlock, "interval": Interval, "loop": Loop} {
		if got, err := ParseTechnique(name); err != nil || got != want {
			t.Errorf("ParseTechnique(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTechnique("Loop"); err == nil || err.Error() != `unknown technique "Loop"` {
		t.Errorf("ParseTechnique(%q) error %v", "Loop", err)
	}
}
