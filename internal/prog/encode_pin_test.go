package prog_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/isa"
	"phasetune/internal/prog"
	"phasetune/internal/workload"
)

// TestEncodeBytesPinned pins the exact bytes of the image format: the
// image cache keys every program by a hash of its encoding, and .ptprog
// files written by one build must decode identically under another. The
// digest covers the quad suite plus one instruction of every shape.
func TestEncodeBytesPinned(t *testing.T) {
	const want = "04f4050ccc2671a215cb9194484ccb268ef539d4a0f948d34a44060ecdc58f9b"
	suite, err := workload.Suite(exec.DefaultCostModel(), amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range suite {
		if err := prog.Encode(h, b.Prog); err != nil {
			t.Fatal(err)
		}
	}
	var shapes bytes.Buffer
	if err := prog.Encode(&shapes, everyShape()); err != nil {
		t.Fatal(err)
	}
	h.Write(shapes.Bytes())
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("image encoding changed: sha256 %s, want %s\nshapes:\n%s", got, want, shapes.String())
	}
}

// everyShape is a program holding one instruction of every attribute
// combination the encoder renders.
func everyShape() *prog.Program {
	return &prog.Program{Name: "shapes", Entry: 1, Procs: []*prog.Procedure{
		{Name: "leaf", Instrs: []isa.Instruction{
			{Op: isa.Load, Mem: isa.MemRef{WorkingSetKB: 1.0 / 3, Locality: 1e-7, StrideB: 64}},
			{Op: isa.Store, Mem: isa.MemRef{WorkingSetKB: 2.5e21, Locality: 0.95}},
			{Op: isa.Ret},
		}},
		{Name: "main", Instrs: []isa.Instruction{
			{Op: isa.PhaseMark, MarkID: 3, Bytes: 5},
			{Op: isa.IntALU, Bytes: 12},
			{Op: isa.Branch, Target: 0, TakenProb: 0.1 + 0.2},
			{Op: isa.Branch, Target: 1, TripCount: 17, TakenProb: 16.0 / 17},
			{Op: isa.Call, Target: 0},
			{Op: isa.Jump, Target: 7},
			{Op: isa.FPMul},
			{Op: isa.Ret},
		}},
	}}
}
