package prog

import (
	"math"
	"testing"

	"phasetune/internal/isa"
)

// testProgram builds a small two-procedure program with a loop and a call.
func testProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("test")
	helper := b.Proc("helper")
	helper.Straight(BlockMix{FPAdd: 4, Load: 2, WorkingSetKB: 256, Locality: 0.5}).Ret()

	main := b.Proc("main")
	b.SetEntry("main")
	main.Straight(BlockMix{IntALU: 8})
	main.Loop(10, func(pb *ProcBuilder) {
		pb.Straight(BlockMix{IntALU: 6, Load: 2, WorkingSetKB: 16, Locality: 0.9})
		pb.CallProc("helper")
	})
	main.Ret()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderProducesValidProgram(t *testing.T) {
	p := testProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Procs[p.Entry].Name != "main" {
		t.Errorf("entry proc = %q, want main", p.Procs[p.Entry].Name)
	}
}

func TestLoopBranchTargetsHead(t *testing.T) {
	p := testProgram(t)
	main := p.Procs[p.Entry]
	var branch *isa.Instruction
	for i := range main.Instrs {
		if main.Instrs[i].Op == isa.Branch {
			branch = &main.Instrs[i]
		}
	}
	if branch == nil {
		t.Fatal("no branch emitted for loop")
	}
	// The loop head is right after the 8 straight IntALU instructions.
	if branch.Target != 8 {
		t.Errorf("loop branch target = %d, want 8", branch.Target)
	}
	wantP := 1 - 1.0/10
	if branch.TakenProb != wantP {
		t.Errorf("loop branch probability = %g, want %g", branch.TakenProb, wantP)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := testProgram(t)
	c := p.Clone()
	c.Procs[0].Instrs[0].Op = isa.Nop
	if p.Procs[0].Instrs[0].Op == isa.Nop {
		t.Error("Clone shares instruction storage with original")
	}
}

func TestValidateCatchesBadBranchTarget(t *testing.T) {
	p := &Program{
		Name: "bad",
		Procs: []*Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.Branch, Target: 99, TakenProb: 0.5},
				{Op: isa.Ret},
			},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range branch target")
	}
}

func TestValidateCatchesBadCallTarget(t *testing.T) {
	p := &Program{
		Name: "bad",
		Procs: []*Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.Call, Target: 5},
				{Op: isa.Ret},
			},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range call target")
	}
}

func TestValidateCatchesFallOffEnd(t *testing.T) {
	p := &Program{
		Name: "bad",
		Procs: []*Procedure{{
			Name:   "main",
			Instrs: []isa.Instruction{{Op: isa.IntALU}},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted procedure that falls off the end")
	}
}

func TestValidateCatchesDuplicateProcNames(t *testing.T) {
	p := &Program{
		Name: "bad",
		Procs: []*Procedure{
			{Name: "f", Instrs: []isa.Instruction{{Op: isa.Ret}}},
			{Name: "f", Instrs: []isa.Instruction{{Op: isa.Ret}}},
		},
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted duplicate procedure names")
	}
}

// TestValidateCatchesBadProbability runs every float a program carries
// through Validate at and past the edges of its range: NaN, infinities
// and out-of-range values are refused, the edges accepted.
func TestValidateCatchesBadProbability(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	branch := func(p float64) isa.Instruction { return isa.Instruction{Op: isa.Branch, Target: 0, TakenProb: p} }
	load := func(ws, loc float64) isa.Instruction {
		return isa.Instruction{Op: isa.Load, Mem: isa.MemRef{WorkingSetKB: ws, Locality: loc}}
	}
	for _, tc := range []struct {
		name string
		in   isa.Instruction
		ok   bool
	}{
		{"p=0", branch(0), true},
		{"p=1", branch(1), true},
		{"p=1.5", branch(1.5), false},
		{"p=-0.5", branch(-0.5), false},
		{"p=NaN", branch(nan), false},
		{"loc=0 ws=0", load(0, 0), true},
		{"loc=1 ws=max", load(math.MaxFloat64, 1), true},
		{"loc=1.1", load(64, 1.1), false},
		{"loc=-0.1", load(64, -0.1), false},
		{"loc=NaN", load(64, nan), false},
		{"ws=-1", load(-1, 0.5), false},
		{"ws=NaN", load(nan, 0.5), false},
		{"ws=+Inf", load(inf, 0.5), false},
	} {
		p := &Program{
			Name:  "bad",
			Procs: []*Procedure{{Name: "main", Instrs: []isa.Instruction{tc.in, {Op: isa.Ret}}}},
		}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

func TestIfElseShape(t *testing.T) {
	b := NewBuilder("ifelse")
	main := b.Proc("main")
	main.IfElse(0.3,
		func(pb *ProcBuilder) { pb.Straight(BlockMix{IntALU: 3}) },
		func(pb *ProcBuilder) { pb.Straight(BlockMix{FPAdd: 2}) },
	)
	main.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Exactly one branch and one jump.
	var branches, jumps int
	for _, in := range p.Procs[0].Instrs {
		switch in.Op {
		case isa.Branch:
			branches++
		case isa.Jump:
			jumps++
		}
	}
	if branches != 1 || jumps != 1 {
		t.Errorf("got %d branches, %d jumps; want 1, 1", branches, jumps)
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	main := b.Proc("main")
	l := main.NewLabel()
	main.JumpTo(l)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted unbound label")
	}
}

func TestImplicitRet(t *testing.T) {
	b := NewBuilder("implicit")
	b.Proc("main").Straight(BlockMix{IntALU: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	last := p.Procs[0].Instrs[len(p.Procs[0].Instrs)-1]
	if last.Op != isa.Ret {
		t.Errorf("final op = %v, want ret appended implicitly", last.Op)
	}
}

func TestSizeBytesCountsEncodings(t *testing.T) {
	b := NewBuilder("size")
	b.Proc("main").Straight(BlockMix{IntALU: 2, Load: 1}).Ret()
	p := b.MustBuild()
	size := func(c isa.OpClass) int { return isa.Instruction{Op: c}.SizeBytes() }
	want := 2*size(isa.IntALU) + size(isa.Load) + size(isa.Ret)
	if got := p.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

func TestMixAccounting(t *testing.T) {
	mix := BlockMix{IntALU: 3, FPMul: 2, Load: 4, Store: 1}
	if mix.Total() != 10 {
		t.Errorf("Total = %d, want 10", mix.Total())
	}
	b := NewBuilder("mix")
	b.Proc("main").Straight(mix).Ret()
	p := b.MustBuild()
	var m isa.Mix
	for _, in := range p.Procs[0].Instrs {
		m.Add(in.Op)
	}
	if m.Counts[isa.Load] != 4 || m.Counts[isa.Store] != 1 || m.MemOps() != 5 {
		t.Errorf("mem ops = %d (load %d store %d), want 5 (4, 1)",
			m.MemOps(), m.Counts[isa.Load], m.Counts[isa.Store])
	}
}
