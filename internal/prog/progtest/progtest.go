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
// calls, syscalls and phase marks, plus Diamonds and CallLoops. Suite-sized
// images slow a fuzzer down without reaching new states.
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
	out := append([]*prog.Program{b.MustBuild(), g.MustBuild(), marked}, Diamonds()...)
	return append(out, CallLoops()...)
}

// Diamonds builds counted loops around an IfElse, the shape of a generated
// phase body iteration (a head block ending in a random branch, two arms
// and a join ending in the counted back edge), which the interpreter runs
// as one inner loop: 1, 2 and 1000 trips, then-arm probabilities 0, 0.5 and
// 1, a nil else arm, a phase mark at the top of the head or of the then
// arm, and a diamond nested in an outer counted loop.
func Diamonds() []*prog.Program {
	mark := func(pb *prog.ProcBuilder, on bool) {
		if on {
			pb.Emit(isa.Instruction{Op: isa.PhaseMark, Bytes: 5})
		}
	}
	diamond := func(pb *prog.ProcBuilder, trips, pThen float64, els, headMark, armMark bool) {
		pb.Loop(trips, func(pb *prog.ProcBuilder) {
			mark(pb, headMark)
			pb.Straight(prog.BlockMix{IntALU: 4, Load: 1, WorkingSetKB: 4096, Locality: 0.6})
			var elsArm func(*prog.ProcBuilder)
			if els {
				elsArm = func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{FPMul: 2, Store: 1, WorkingSetKB: 64}) }
			}
			pb.IfElse(pThen, func(pb *prog.ProcBuilder) {
				mark(pb, armMark)
				pb.Straight(prog.BlockMix{IntMul: 3})
			}, elsArm)
		})
	}
	var out []*prog.Program
	for _, d := range []struct {
		name                   string
		trips, pThen           float64
		els, headMark, armMark bool
	}{
		{"diamond-trips1", 1, 0.5, true, false, false},
		{"diamond-trips2", 2, 0.5, true, false, false},
		{"diamond-trips1000", 1000, 0.5, true, false, false},
		{"diamond-p0", 60, 0, true, false, false},
		{"diamond-p1", 60, 1, true, false, false},
		{"diamond-noelse", 60, 0.5, false, false, false},
		{"diamond-markhead", 60, 0.5, true, true, false},
		{"diamond-markarm", 60, 0.5, true, false, true},
	} {
		b := prog.NewBuilder(d.name)
		diamond(b.Proc("main"), d.trips, d.pThen, d.els, d.headMark, d.armMark)
		b.Proc("main").Ret()
		out = append(out, b.MustBuild())
	}
	b := prog.NewBuilder("diamond-nested")
	main := b.Proc("main")
	main.Loop(5, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 2})
		diamond(pb, 30, 0.3, true, false, false)
	}).Ret()
	return append(out, b.MustBuild())
}

// CallLoops builds counted loops whose body calls a procedure holding a
// branch diamond, the shape of a generated Helper phase loop, which the
// interpreter runs as one inner loop when the callee has one call site:
// that shape itself; the callee called from two sites, so its return
// target is known only at run time; a phase mark at the callee's entry or
// at the return site; calls nested two deep, the last of which returns
// straight into its caller's return; direct recursion; and entry
// procedures that call themselves, whose outermost return exits, one of
// them from a counted loop whose every iteration pushes a frame.
func CallLoops() []*prog.Program {
	body := func(pb *prog.ProcBuilder, entryMark bool) *prog.ProcBuilder {
		if entryMark {
			pb.Emit(isa.Instruction{Op: isa.PhaseMark, Bytes: 5})
		}
		pb.Straight(prog.BlockMix{IntALU: 3, Load: 1, WorkingSetKB: 2048, Locality: 0.7})
		return pb.IfElse(0.5,
			func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntMul: 2}) },
			func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{FPAdd: 3, Store: 1, WorkingSetKB: 32}) })
	}
	var out []*prog.Program
	for _, c := range []struct {
		name                  string
		sites                 int
		entryMark, returnMark bool
	}{
		{"callloop", 1, false, false},
		{"callloop-twosites", 2, false, false},
		{"callloop-markentry", 1, true, false},
		{"callloop-markreturn", 1, false, true},
	} {
		b := prog.NewBuilder(c.name)
		main := b.Proc("main")
		b.SetEntry("main")
		for s := 0; s < c.sites; s++ {
			main.Loop(float64(40-15*s), func(pb *prog.ProcBuilder) {
				pb.CallProc("body")
				if c.returnMark {
					pb.Emit(isa.Instruction{Op: isa.PhaseMark, Bytes: 5})
				}
			})
		}
		main.Ret()
		body(b.Proc("body"), c.entryMark).Ret()
		out = append(out, b.MustBuild())
	}

	b := prog.NewBuilder("callloop-nested")
	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(25, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 1})
		pb.CallProc("mid")
	}).Ret()
	b.Proc("mid").Straight(prog.BlockMix{IntALU: 2}).
		Loop(4, func(pb *prog.ProcBuilder) { pb.CallProc("body") }).
		CallProc("leaf").Ret()
	body(b.Proc("body"), false).Ret()
	b.Proc("leaf").Straight(prog.BlockMix{FPMul: 1}).
		IfElse(0.5, func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntMul: 1}) }, nil).Ret()
	out = append(out, b.MustBuild())

	b = prog.NewBuilder("callloop-recursive")
	main = b.Proc("main")
	b.SetEntry("main")
	main.Loop(20, func(pb *prog.ProcBuilder) { pb.CallProc("rec") }).Ret()
	b.Proc("rec").Straight(prog.BlockMix{IntALU: 2}).
		IfElse(0.4, func(pb *prog.ProcBuilder) { pb.CallProc("rec") }, nil).
		Straight(prog.BlockMix{IntMul: 1}).Ret()
	out = append(out, b.MustBuild())

	b = prog.NewBuilder("callloop-entryself")
	main = b.Proc("main")
	b.SetEntry("main")
	main.Loop(10, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 2, Load: 1, WorkingSetKB: 512})
		pb.IfElse(0.5, func(pb *prog.ProcBuilder) { pb.Straight(prog.BlockMix{IntMul: 1}) }, nil)
	})
	main.IfElse(0.4, func(pb *prog.ProcBuilder) { pb.CallProc("main") }, nil)
	main.Straight(prog.BlockMix{FPAdd: 1}).Ret()
	out = append(out, b.MustBuild())

	// The entry's diamond join crosses a counted edge forward into a call
	// to the entry itself, whose first block is the diamond's head: each
	// iteration pushes a frame, so the loop is no diamond loop.
	b = prog.NewBuilder("callloop-selfloop")
	main = b.Proc("main")
	b.SetEntry("main")
	call := main.NewLabel()
	body(main, false).BranchCounted(call, 60).Ret().Bind(call).CallProc("main").Ret()
	return append(out, b.MustBuild())
}
