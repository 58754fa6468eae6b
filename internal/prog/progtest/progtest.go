// Package progtest holds the seed corpus shared by the fuzz targets that
// decode .ptprog images: the decoder's own (prog.FuzzProgDecode) and the
// interpreter's reference check (exec.FuzzInterpreterMatchesReference).
package progtest

import (
	"bytes"

	"phasetune/internal/isa"
	"phasetune/internal/prog"
)

// Corpus returns the seed inputs: the encodings of Programs plus a few
// hand-written images, among them ones the decoder must refuse.
func Corpus() [][]byte {
	var out [][]byte
	for _, p := range Programs() {
		var buf bytes.Buffer
		if err := prog.Encode(&buf, p); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return append(out,
		[]byte("# comment\nprogram x entry=0\nproc main\n  intalu\n  ret\nend\n"),
		[]byte("program x entry=0\nproc main\nbranch target=0 trips=10\nret\nend\n"),
		[]byte("program x entry=1\nproc main\nintalu\nend\n"),
		[]byte("program x entry=0\nproc main\nbranch target=0 p=NaN\nret\nend\n"),
		[]byte("program x entry=0\nproc main\nload ws=NaN loc=NaN\nret\nend\n"),
	)
}

// Programs builds small programs covering every instruction shape the
// encoder renders: memory descriptors, counted and probabilistic branches,
// calls, syscalls and phase marks. Suite-sized images slow a fuzzer down
// without reaching new states.
func Programs() []*prog.Program {
	b := prog.NewBuilder("calls")
	leaf := b.Proc("leaf")
	leaf.Straight(prog.BlockMix{Load: 2, Store: 1, WorkingSetKB: 512, Locality: 0.9, StrideB: 16}).Ret()
	main := b.Proc("main")
	b.SetEntry("main")
	main.Straight(prog.BlockMix{IntALU: 3, FPMul: 1})
	main.Loop(12, func(pb *prog.ProcBuilder) { pb.CallProc("leaf") })
	main.IfElse(0.25,
		func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntDiv: 1}) },
		func(pb *prog.ProcBuilder) { pb.Syscall() },
	)
	main.Ret()

	g := prog.NewBuilder("geometric")
	gm := g.Proc("main")
	gm.LoopGeometric(3.5, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{FPAdd: 2, Load: 1, WorkingSetKB: 1.0 / 3, Locality: 1e-7})
	})
	gm.Ret()

	marked := &prog.Program{Name: "marked", Procs: []*prog.Procedure{{
		Name: "main",
		Instrs: []isa.Instruction{
			{Op: isa.PhaseMark, MarkID: 3, Bytes: 5},
			{Op: isa.IntALU, Bytes: 12},
			{Op: isa.Jump, Target: 3},
			{Op: isa.Ret},
		},
	}}}
	return []*prog.Program{b.MustBuild(), g.MustBuild(), marked}
}
