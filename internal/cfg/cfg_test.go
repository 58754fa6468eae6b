package cfg

import (
	"testing"

	"phasetune/internal/isa"
	"phasetune/internal/prog"
)

// buildProc builds a CFG directly from raw instructions.
func buildProc(t *testing.T, instrs []isa.Instruction) *Graph {
	t.Helper()
	g, err := Build(&prog.Procedure{Name: "p", Instrs: instrs}, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// loopProc is a classic while-loop shape:
//
//	0: intalu            (B0: preheader)
//	1: intalu            (B1: loop header/body start)
//	2: load
//	3: branch -> 1       (back edge)
//	4: intalu            (B2: exit)
//	5: ret
func loopProc(t *testing.T) *Graph {
	return buildProc(t, []isa.Instruction{
		{Op: isa.IntALU},
		{Op: isa.IntALU},
		{Op: isa.Load},
		{Op: isa.Branch, Target: 1, TakenProb: 0.9},
		{Op: isa.IntALU},
		{Op: isa.Ret},
	})
}

func TestBasicBlockBoundaries(t *testing.T) {
	g := loopProc(t)
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(g.Blocks))
	}
	wantRanges := [][2]int{{0, 1}, {1, 4}, {4, 6}}
	for i, w := range wantRanges {
		if g.Blocks[i].Start != w[0] || g.Blocks[i].End != w[1] {
			t.Errorf("block %d = [%d,%d), want [%d,%d)", i, g.Blocks[i].Start, g.Blocks[i].End, w[0], w[1])
		}
	}
}

func TestEdgesAndBackEdgeClassification(t *testing.T) {
	g := loopProc(t)
	// B0->B1 forward, B1->B1 back, B1->B2 forward.
	if !g.BackEdge(1, 1) {
		t.Error("self loop edge not classified as back edge")
	}
	if g.BackEdge(0, 1) {
		t.Error("entry edge misclassified as back edge")
	}
	if g.BackEdge(1, 2) {
		t.Error("exit edge misclassified as back edge")
	}
}

func TestDominators(t *testing.T) {
	g := loopProc(t)
	idom := g.Idom()
	if idom[0] != 0 {
		t.Errorf("idom[entry] = %d, want entry", idom[0])
	}
	if idom[1] != 0 || idom[2] != 1 {
		t.Errorf("idom = %v, want [0 0 1]", idom)
	}
	if !g.Dominates(0, 2) || !g.Dominates(1, 2) || g.Dominates(2, 1) {
		t.Error("Dominates relation incorrect")
	}
}

// diamond builds an if/else diamond:
//
//	0: branch -> 3   (B0)
//	1: intalu        (B1: else)
//	2: jump -> 4
//	3: fpadd         (B2: then)
//	4: intalu        (B3: join)
//	5: ret
func diamond(t *testing.T) *Graph {
	return buildProc(t, []isa.Instruction{
		{Op: isa.Branch, Target: 3, TakenProb: 0.5},
		{Op: isa.IntALU},
		{Op: isa.Jump, Target: 4},
		{Op: isa.FPAdd},
		{Op: isa.IntALU},
		{Op: isa.Ret},
	})
}

func TestDiamondDominators(t *testing.T) {
	g := diamond(t)
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	idom := g.Idom()
	// Join block (B3) is dominated by the branch (B0), not by either arm.
	if idom[3] != 0 {
		t.Errorf("idom[join] = %d, want 0", idom[3])
	}
	for _, e := range g.Edges {
		if e.Back {
			t.Errorf("diamond has no back edges, found %v", e)
		}
	}
}

func TestCallMakesSpecialNode(t *testing.T) {
	g := buildProc(t, []isa.Instruction{
		{Op: isa.IntALU},
		{Op: isa.Call, Target: 0},
		{Op: isa.IntALU},
		{Op: isa.Ret},
	})
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3 (normal, call, normal)", len(g.Blocks))
	}
	if g.Blocks[1].Kind != KindCall || g.Blocks[1].NumInstrs() != 1 {
		t.Errorf("call block kind=%v size=%d, want call node of size 1", g.Blocks[1].Kind, g.Blocks[1].NumInstrs())
	}
	if g.Blocks[1].CalleeProc != 0 {
		t.Errorf("CalleeProc = %d, want 0", g.Blocks[1].CalleeProc)
	}
	if g.Blocks[0].Kind != KindNormal || g.Blocks[2].Kind != KindNormal {
		t.Error("non-call blocks misclassified")
	}
}

func TestSyscallMakesSpecialNode(t *testing.T) {
	g := buildProc(t, []isa.Instruction{
		{Op: isa.Syscall},
		{Op: isa.Ret},
	})
	if g.Blocks[0].Kind != KindSyscall {
		t.Errorf("kind = %v, want syscall", g.Blocks[0].Kind)
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	g := diamond(t)
	rpo := g.RPO()
	if rpo[0] != g.Entry {
		t.Errorf("RPO[0] = %d, want entry %d", rpo[0], g.Entry)
	}
	if len(rpo) != len(g.Blocks) {
		t.Errorf("RPO covers %d blocks, want %d", len(rpo), len(g.Blocks))
	}
}

func TestNaturalLoopsSimple(t *testing.T) {
	g := loopProc(t)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 {
		t.Errorf("loop header = %d, want 1", l.Header)
	}
	if len(l.Blocks) != 1 || l.Blocks[0] != 1 {
		t.Errorf("loop blocks = %v, want [1]", l.Blocks)
	}
	if l.Parent != -1 || l.Depth != 0 {
		t.Errorf("loop nesting = parent %d depth %d, want -1, 0", l.Parent, l.Depth)
	}
}

// nestedLoops builds two nested loops via the builder.
func nestedLoops(t *testing.T) *Graph {
	t.Helper()
	b := prog.NewBuilder("nest")
	main := b.Proc("main")
	main.Loop(5, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 2})
		pb.Loop(20, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{Load: 3, WorkingSetKB: 512, Locality: 0.4})
		})
		pb.Straight(prog.BlockMix{IntALU: 1})
	})
	main.Ret()
	p := b.MustBuild()
	g, err := Build(p.Procs[0], 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestNestedLoopForest(t *testing.T) {
	g := nestedLoops(t)
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	var outer, inner *Loop
	for _, l := range loops {
		if len(l.Blocks) > 1 {
			outer = l
		} else {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("could not identify outer/inner loops: %+v", loops)
	}
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	if inner.Depth != 1 || outer.Depth != 0 {
		t.Errorf("depths inner=%d outer=%d, want 1, 0", inner.Depth, outer.Depth)
	}
	for _, b := range inner.Blocks {
		if !outer.Contains(b) {
			t.Errorf("inner block %d not contained in outer loop", b)
		}
	}
}

func TestLoopDepth(t *testing.T) {
	g := nestedLoops(t)
	depth := LoopDepth(g, g.NaturalLoops())
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 2 {
		t.Errorf("max loop depth = %d, want 2", maxDepth)
	}
}

func TestIntervalsPartition(t *testing.T) {
	for name, g := range map[string]*Graph{
		"loop":    loopProc(t),
		"diamond": diamond(t),
		"nested":  nestedLoops(t),
	} {
		ivs := g.Intervals()
		seen := map[int]int{}
		for _, iv := range ivs {
			for _, b := range iv.Blocks {
				seen[b]++
			}
		}
		for _, b := range g.RPO() {
			if seen[b] != 1 {
				t.Errorf("%s: block %d appears in %d intervals, want exactly 1", name, b, seen[b])
			}
		}
	}
}

func TestIntervalSingleEntry(t *testing.T) {
	g := nestedLoops(t)
	ivs := g.Intervals()
	for _, iv := range ivs {
		// No member other than the header may have a predecessor outside the
		// interval.
		for _, b := range iv.Blocks {
			if b == iv.Header {
				continue
			}
			for _, p := range g.Blocks[b].Preds {
				if !iv.Contains(p) {
					t.Errorf("interval %d: non-header block %d has external pred %d", iv.ID, b, p)
				}
			}
		}
	}
}

func TestIntervalCapturesLoop(t *testing.T) {
	// In a while loop, the interval headed at the loop header contains the
	// whole loop body (paper: "even with 1st order interval graphs, the
	// intervals frequently capture small loops").
	g := loopProc(t)
	ivs := g.Intervals()
	of := IntervalOf(g, ivs)
	if of[1] == -1 {
		t.Fatal("loop body not in any interval")
	}
}

func TestCallGraph(t *testing.T) {
	b := prog.NewBuilder("cg")
	leaf := b.Proc("leaf")
	leaf.Straight(prog.BlockMix{IntALU: 1}).Ret()
	mid := b.Proc("mid")
	mid.CallProc("leaf").Ret()
	main := b.Proc("main")
	b.SetEntry("main")
	main.CallProc("mid").CallProc("leaf").Ret()
	p := b.MustBuild()

	graphs, err := BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	cg := BuildCallGraph(p, graphs)
	if len(cg.Sites) != 3 {
		t.Errorf("got %d call sites, want 3", len(cg.Sites))
	}
	mainIdx, midIdx, leafIdx := 2, 1, 0
	order := cg.BottomUpOrder()
	pos := map[int]int{}
	for i, pi := range order {
		pos[pi] = i
	}
	if pos[leafIdx] > pos[midIdx] || pos[midIdx] > pos[mainIdx] {
		t.Errorf("bottom-up order %v does not place callees first", order)
	}
	if cg.SCC[mainIdx] == cg.SCC[midIdx] || cg.SCC[midIdx] == cg.SCC[leafIdx] {
		t.Errorf("non-recursive procedures share an SCC: %v", cg.SCC)
	}
}

func TestCallGraphRecursion(t *testing.T) {
	b := prog.NewBuilder("rec")
	even := b.Proc("even")
	odd := b.Proc("odd")
	b.SetEntry("even")
	even.IfElse(0.5,
		func(pb *prog.ProcBuilder) { pb.CallProc("odd") },
		func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntALU: 1}) },
	)
	even.Ret()
	odd.CallProc("even").Ret()
	p := b.MustBuild()
	graphs, err := BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	cg := BuildCallGraph(p, graphs)
	if cg.SCC[0] != cg.SCC[1] {
		t.Errorf("mutually recursive procs in different SCCs: %v", cg.SCC)
	}
}

func TestPredsSuccsConsistent(t *testing.T) {
	g := nestedLoops(t)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range g.Blocks[s].Preds {
				if p == b.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d missing from Preds", b.ID, s)
			}
		}
	}
	if len(g.Edges) == 0 {
		t.Error("no edges recorded")
	}
}

func TestBlockOf(t *testing.T) {
	g := loopProc(t)
	for _, b := range g.Blocks {
		for i := b.Start; i < b.End; i++ {
			if g.BlockOf(i) != b.ID {
				t.Errorf("BlockOf(%d) = %d, want %d", i, g.BlockOf(i), b.ID)
			}
		}
	}
}

func TestMixAndSize(t *testing.T) {
	g := loopProc(t)
	m := g.Blocks[1].Mix()
	if m.Counts[isa.Load] != 1 || m.Counts[isa.Branch] != 1 || m.Counts[isa.IntALU] != 1 {
		t.Errorf("block mix wrong: %+v", m.Counts)
	}
	if g.SizeBytes() != 3+3+4+2+3+1 {
		t.Errorf("SizeBytes = %d", g.SizeBytes())
	}
}
