package amp

import (
	"math"
	"testing"
)

func TestPresetsValid(t *testing.T) {
	for _, m := range []*Machine{Quad2Fast2Slow(), ThreeCore2Fast1Slow(), Hex2Big2Medium2Little(), Symmetric(4, 2.0), Symmetric(3, 1.6)} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestQuadShape(t *testing.T) {
	m := Quad2Fast2Slow()
	if m.NumCores() != 4 {
		t.Fatalf("cores = %d, want 4", m.NumCores())
	}
	fast := m.CoresOfType(FastType)
	slow := m.CoresOfType(SlowType)
	if len(fast) != 2 || len(slow) != 2 {
		t.Fatalf("fast %v slow %v, want 2 each", fast, slow)
	}
	// Same-frequency pairs share an L2 (paper §IV-A1).
	if m.Cores[fast[0]].L2 != m.Cores[fast[1]].L2 {
		t.Error("fast cores do not share an L2")
	}
	if m.Cores[slow[0]].L2 != m.Cores[slow[1]].L2 {
		t.Error("slow cores do not share an L2")
	}
	if m.Cores[fast[0]].L2 == m.Cores[slow[0]].L2 {
		t.Error("fast and slow cores share an L2")
	}
	// 1.5x frequency ratio.
	r := m.Types[FastType].FreqGHz / m.Types[SlowType].FreqGHz
	if math.Abs(r-1.5) > 1e-12 {
		t.Errorf("frequency ratio = %g, want 1.5", r)
	}
}

func TestHexShape(t *testing.T) {
	m := Hex2Big2Medium2Little()
	if m.NumCores() != 6 {
		t.Fatalf("cores = %d, want 6", m.NumCores())
	}
	if len(m.Types) != 3 {
		t.Fatalf("types = %d, want 3", len(m.Types))
	}
	for ty := 0; ty < 3; ty++ {
		ids := m.CoresOfType(CoreTypeID(ty))
		if len(ids) != 2 {
			t.Fatalf("type %d has cores %v, want 2", ty, ids)
		}
		// Same-type pairs share an L2, and no pair shares with another.
		if m.Cores[ids[0]].L2 != m.Cores[ids[1]].L2 {
			t.Errorf("type %d cores do not share an L2", ty)
		}
	}
	// Clocks strictly descend big > medium > little, so IPC ordering and
	// Algorithm 2's frequency tie-break stay well-defined over 3 types.
	for i := 1; i < len(m.Types); i++ {
		if m.Types[i].FreqGHz >= m.Types[i-1].FreqGHz {
			t.Errorf("type %d clock %.2f not below type %d clock %.2f",
				i, m.Types[i].FreqGHz, i-1, m.Types[i-1].FreqGHz)
		}
	}
}

func TestScaledClockPreservesRatio(t *testing.T) {
	m := Quad2Fast2Slow()
	nominal := m.Types[0].FreqGHz / m.Types[1].FreqGHz
	scaled := m.Types[0].CyclesPerSec / m.Types[1].CyclesPerSec
	if math.Abs(nominal-scaled) > 1e-12 {
		t.Errorf("scaled ratio %g != nominal %g", scaled, nominal)
	}
}

func TestMasks(t *testing.T) {
	m := Quad2Fast2Slow()
	if m.AllMask() != 0b1111 {
		t.Errorf("AllMask = %b, want 1111", m.AllMask())
	}
	if m.TypeMask(FastType) != 0b0011 {
		t.Errorf("fast mask = %b, want 0011", m.TypeMask(FastType))
	}
	if m.TypeMask(SlowType) != 0b1100 {
		t.Errorf("slow mask = %b, want 1100", m.TypeMask(SlowType))
	}
	if CoreMask(2) != 0b100 {
		t.Errorf("CoreMask(2) = %b", CoreMask(2))
	}
	cores := MaskCores(0b1010, 4)
	if len(cores) != 2 || cores[0] != 1 || cores[1] != 3 {
		t.Errorf("MaskCores(1010) = %v", cores)
	}
}

func TestPsPerCycle(t *testing.T) {
	m := Quad2Fast2Slow()
	fast := m.Types[FastType]
	// 240,000 cycles/sec -> 1/240000 s/cycle ~ 4.1667e6 ps.
	want := 1e12 / fast.CyclesPerSec
	got := float64(fast.PsPerCycle())
	if math.Abs(got-want) > 1 {
		t.Errorf("PsPerCycle = %g, want about %g", got, want)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := map[string]*Machine{
		"no cores": {Name: "x", Types: []CoreType{{Name: "a", FreqGHz: 1, CyclesPerSec: 1}}},
		"bad type": {
			Name:  "x",
			Types: []CoreType{{Name: "a", FreqGHz: 1, CyclesPerSec: 1}},
			Cores: []Core{{ID: 0, Type: 5, L2: 0}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0}}},
		},
		"bad l2": {
			Name:  "x",
			Types: []CoreType{{Name: "a", FreqGHz: 1, CyclesPerSec: 1}},
			Cores: []Core{{ID: 0, Type: 0, L2: 3}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0}}},
		},
		"ratio mismatch": {
			Name: "x",
			Types: []CoreType{
				{Name: "a", FreqGHz: 2, CyclesPerSec: 200},
				{Name: "b", FreqGHz: 1, CyclesPerSec: 150},
			},
			Cores: []Core{{ID: 0, Type: 0, L2: 0}, {ID: 1, Type: 1, L2: 0}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0, 1}}},
		},
		"zero freq": {
			Name:  "x",
			Types: []CoreType{{Name: "a", FreqGHz: 0, CyclesPerSec: 0}},
			Cores: []Core{{ID: 0, Type: 0, L2: 0}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0}}},
		},
		"NaN freq": {
			Name: "x",
			Types: []CoreType{
				{Name: "a", FreqGHz: 2, CyclesPerSec: 200},
				{Name: "b", FreqGHz: math.NaN(), CyclesPerSec: 100},
			},
			Cores: []Core{{ID: 0, Type: 0, L2: 0}, {ID: 1, Type: 1, L2: 0}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0, 1}}},
		},
		"NaN clock": {
			Name:  "x",
			Types: []CoreType{{Name: "a", FreqGHz: 1, CyclesPerSec: math.NaN()}},
			Cores: []Core{{ID: 0, Type: 0, L2: 0}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0}}},
		},
		"l2 membership mismatch": {
			Name:  "x",
			Types: []CoreType{{Name: "a", FreqGHz: 1, CyclesPerSec: 1}},
			Cores: []Core{{ID: 0, Type: 0, L2: 0}, {ID: 1, Type: 0, L2: 1}},
			L2s:   []L2Group{{SizeKB: 64, Cores: []int{0, 1}}, {SizeKB: 64}},
		},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid machine", name)
		}
	}
}

func TestSymmetricShape(t *testing.T) {
	m := Symmetric(6, 2.0)
	if m.NumCores() != 6 || len(m.L2s) != 3 {
		t.Errorf("cores=%d l2s=%d, want 6, 3", m.NumCores(), len(m.L2s))
	}
	if len(m.Types) != 1 {
		t.Errorf("types = %d, want 1", len(m.Types))
	}
}

func TestThreeCoreShape(t *testing.T) {
	m := ThreeCore2Fast1Slow()
	if len(m.CoresOfType(FastType)) != 2 || len(m.CoresOfType(SlowType)) != 1 {
		t.Error("3-core preset shape wrong")
	}
}

func TestByName(t *testing.T) {
	cases := []struct{ name, want string }{
		{"quad", "quad-2f2s"}, {"quad-2f2s", "quad-2f2s"},
		{"tri", "tri-2f1s"}, {"tri-2f1s", "tri-2f1s"},
		{"hex", "hex-2b2m2l"}, {"hex-2b2m2l", "hex-2b2m2l"},
		{"", ""}, {"octo", ""}, {"Quad", ""}, {"sym-4x2.0", ""},
	}
	for _, tc := range cases {
		m, err := ByName(tc.name)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", tc.name, m.Name)
		case tc.want != "" && err != nil:
			t.Errorf("ByName(%q): %v", tc.name, err)
		case tc.want != "" && m.Name != tc.want:
			t.Errorf("ByName(%q) = %s, want %s", tc.name, m.Name, tc.want)
		}
	}
}
