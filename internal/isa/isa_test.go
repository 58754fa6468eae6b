package isa

import "testing"

func TestOpClassPredicates(t *testing.T) {
	if !Load.IsMemory() || !Store.IsMemory() || IntALU.IsMemory() {
		t.Error("IsMemory wrong")
	}
}

func TestSizes(t *testing.T) {
	in := Instruction{Op: IntALU}
	if in.SizeBytes() != encodedSize[IntALU] || in.SizeBytes() <= 0 {
		t.Errorf("IntALU size = %d", in.SizeBytes())
	}
	// Explicit size override (phase marks).
	mark := Instruction{Op: PhaseMark, Bytes: 73}
	if mark.SizeBytes() != 73 {
		t.Errorf("mark size = %d, want 73", mark.SizeBytes())
	}
	// Every regular class has a positive default encoding.
	for c := IntALU; c < PhaseMark; c++ {
		if encodedSize[c] <= 0 {
			t.Errorf("class %v has default size %d", c, encodedSize[c])
		}
	}
}

func TestStrings(t *testing.T) {
	if IntALU.String() != "intalu" || PhaseMark.String() != "phasemark" {
		t.Error("mnemonics wrong")
	}
	if OpClass(200).String() == "" {
		t.Error("unknown class renders empty")
	}
}

func TestMix(t *testing.T) {
	var m Mix
	m.Add(Load)
	m.Add(Load)
	m.Add(Store)
	m.Add(FPAdd)
	m.Add(IntALU)
	if m.Total() != 5 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.MemOps() != 3 {
		t.Errorf("MemOps = %d", m.MemOps())
	}
}
