package prog

import (
	"bytes"
	"testing"

	"phasetune/internal/isa"
)

// FuzzProgDecode feeds arbitrary bytes to the .ptprog decoder: no input may
// panic it, and every image it accepts must re-encode to bytes that decode
// and re-encode to themselves — the fixed point the image cache relies on
// when it keys programs by their encoding. The seed corpus is a handful of
// small builder-made programs: suite-sized images slow the fuzzer down
// without reaching new decoder states.
func FuzzProgDecode(f *testing.F) {
	for _, p := range fuzzSeeds() {
		var buf bytes.Buffer
		if err := Encode(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("# comment\nprogram x entry=0\nproc main\n  intalu\n  ret\nend\n"))
	f.Add([]byte("program x entry=0\nproc main\nbranch target=0 trips=10\nret\nend\n"))
	f.Add([]byte("program x entry=1\nproc main\nintalu\nend\n"))
	f.Add([]byte("program x entry=0\nproc main\nbranch target=0 p=NaN\nret\nend\n"))
	f.Add([]byte("program x entry=0\nproc main\nload ws=NaN loc=NaN\nret\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The fixed point below cannot catch a NaN probability, which
		// round-trips; the interpreter needs every one in [0,1].
		for _, pr := range p.Procs {
			for _, in := range pr.Instrs {
				if in.Op == isa.Branch && !(in.TakenProb >= 0 && in.TakenProb <= 1) {
					t.Fatalf("decoded branch probability %g outside [0,1]", in.TakenProb)
				}
			}
		}
		first := encodeBytes(t, p)
		again, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v\n%s", err, first)
		}
		if second := encodeBytes(t, again); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// encodeBytes encodes a program, failing on error.
func encodeBytes(t *testing.T, p *Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// fuzzSeeds builds small programs covering every instruction shape the
// encoder renders: memory descriptors, counted and probabilistic branches,
// calls, syscalls and phase marks.
func fuzzSeeds() []*Program {
	b := NewBuilder("calls")
	leaf := b.Proc("leaf")
	leaf.Straight(BlockMix{Load: 2, Store: 1, WorkingSetKB: 512, Locality: 0.9, StrideB: 16}).Ret()
	main := b.Proc("main")
	b.SetEntry("main")
	main.Straight(BlockMix{IntALU: 3, FPMul: 1})
	main.Loop(12, func(pb *ProcBuilder) { pb.CallProc("leaf") })
	main.IfElse(0.25,
		func(pb *ProcBuilder) { pb.Straight(BlockMix{IntDiv: 1}) },
		func(pb *ProcBuilder) { pb.Syscall() },
	)
	main.Ret()

	g := NewBuilder("geometric")
	gm := g.Proc("main")
	gm.LoopGeometric(3.5, func(pb *ProcBuilder) {
		pb.Straight(BlockMix{FPAdd: 2, Load: 1, WorkingSetKB: 1.0 / 3, Locality: 1e-7})
	})
	gm.Ret()

	marked := &Program{Name: "marked", Procs: []*Procedure{{
		Name: "main",
		Instrs: []isa.Instruction{
			{Op: isa.PhaseMark, MarkID: 3, Bytes: 5},
			{Op: isa.IntALU, Bytes: 12},
			{Op: isa.Jump, Target: 3},
			{Op: isa.Ret},
		},
	}}}
	return []*Program{b.MustBuild(), g.MustBuild(), marked}
}
