package prog

import (
	"bytes"
	"strings"
	"testing"

	"phasetune/internal/isa"
)

// roundTrip encodes and decodes a program, failing on error.
func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v\nimage:\n%s", err, buf.String())
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	helper := b.Proc("helper")
	helper.Straight(BlockMix{Load: 3, Store: 1, WorkingSetKB: 512, Locality: 0.9, StrideB: 16}).Ret()
	main := b.Proc("main")
	b.SetEntry("main")
	main.Straight(BlockMix{IntALU: 4, FPMul: 2})
	main.Loop(12, func(pb *ProcBuilder) {
		pb.CallProc("helper")
	})
	main.IfElse(0.25,
		func(pb *ProcBuilder) { pb.Straight(BlockMix{IntDiv: 1}) },
		func(pb *ProcBuilder) { pb.Syscall() },
	)
	main.Ret()
	p := b.MustBuild()

	got := roundTrip(t, p)
	if got.Name != p.Name || got.Entry != p.Entry || len(got.Procs) != len(p.Procs) {
		t.Fatalf("header mismatch: %s/%d/%d vs %s/%d/%d",
			got.Name, got.Entry, len(got.Procs), p.Name, p.Entry, len(p.Procs))
	}
	for pi := range p.Procs {
		if got.Procs[pi].Name != p.Procs[pi].Name {
			t.Errorf("proc %d name %q vs %q", pi, got.Procs[pi].Name, p.Procs[pi].Name)
		}
		if len(got.Procs[pi].Instrs) != len(p.Procs[pi].Instrs) {
			t.Fatalf("proc %d: %d instrs vs %d", pi, len(got.Procs[pi].Instrs), len(p.Procs[pi].Instrs))
		}
		for ii, want := range p.Procs[pi].Instrs {
			if got.Procs[pi].Instrs[ii] != want {
				t.Errorf("proc %d instr %d: %+v vs %+v", pi, ii, got.Procs[pi].Instrs[ii], want)
			}
		}
	}
}

func TestEncodeDecodePhaseMarks(t *testing.T) {
	p := &Program{
		Name: "marked",
		Procs: []*Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.PhaseMark, MarkID: 3, Bytes: 73},
				{Op: isa.IntALU},
				{Op: isa.Ret},
			},
		}},
	}
	got := roundTrip(t, p)
	in := got.Procs[0].Instrs[0]
	if in.Op != isa.PhaseMark || in.MarkID != 3 || in.Bytes != 73 {
		t.Errorf("mark round-trip = %+v", in)
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	img := `
# a comment
program demo entry=0

proc main
  # body
  intalu
  ret
end
`
	p, err := Decode(strings.NewReader(img))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Name != "demo" || len(p.Procs[0].Instrs) != 2 {
		t.Errorf("parsed %+v", p)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"no header":          "proc main\nret\nend\n",
		"instr outside proc": "program x entry=0\nintalu\n",
		"unterminated proc":  "program x entry=0\nproc main\nret\n",
		"unknown mnemonic":   "program x entry=0\nproc main\nfrobnicate\nend\n",
		"bad attribute":      "program x entry=0\nproc main\nintalu foo\nend\n",
		"unknown attribute":  "program x entry=0\nproc main\nintalu color=red\nend\n",
		"bad entry":          "program x entry=nine\nproc main\nret\nend\n",
		"invalid program":    "program x entry=0\nproc main\nintalu\nend\n", // falls off end
		"nested proc":        "program x entry=0\nproc a\nproc b\nend\nend\n",
		"dup header":         "program x entry=0\nprogram y entry=0\n",
		"end outside proc":   "program x entry=0\nend\n",
		"bad trips":          "program x entry=0\nproc main\nbranch target=0 trips=zero\nret\nend\n",
		"NaN probability":    "program x entry=0\nproc main\nbranch target=0 p=NaN\nret\nend\n",
		"NaN locality":       "program x entry=0\nproc main\nload ws=64 loc=NaN\nret\nend\n",
		"infinite ws":        "program x entry=0\nproc main\nload ws=+Inf loc=0.5\nret\nend\n",
	}
	for name, img := range cases {
		if _, err := Decode(strings.NewReader(img)); err == nil {
			t.Errorf("%s: Decode accepted invalid image", name)
		}
	}
}

func TestDecodeCountedBranchDerivesProbability(t *testing.T) {
	img := "program x entry=0\nproc main\nintalu\nbranch target=0 trips=10\nret\nend\n"
	p, err := Decode(strings.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	br := p.Procs[0].Instrs[1]
	if br.TripCount != 10 {
		t.Errorf("trips = %d", br.TripCount)
	}
	if br.TakenProb <= 0.89 || br.TakenProb >= 0.91 {
		t.Errorf("derived probability = %g, want 0.9", br.TakenProb)
	}
}

func TestEncodeStable(t *testing.T) {
	b := NewBuilder("stable")
	b.Proc("main").Straight(BlockMix{IntALU: 2, Load: 1, WorkingSetKB: 64, Locality: 0.5}).Ret()
	p := b.MustBuild()
	var b1, b2 bytes.Buffer
	if err := Encode(&b1, p); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b2, p); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("encoding not deterministic")
	}
}
