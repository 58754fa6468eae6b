package workload

import (
	"strings"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/place"
)

func TestMaterializeAntagonistFleet(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Hex2Big2Medium2Little()

	spec := Spec{Slots: 5, QueueLen: 4, Seed: 7, Fleet: FleetAntagonist}
	a, err := spec.Materialize(nil, cm, m) // suite unused on the fleet path
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSlots() != 5 {
		t.Fatalf("slots = %d, want 5", a.NumSlots())
	}
	// Slots cycle antagonist / cpu anchor; each queue repeats one benchmark.
	fleet := []string{"ant.mem", "ant.cpu"}
	for i, q := range a.Slots {
		if len(q) != 4 {
			t.Fatalf("slot %d queue length %d, want 4", i, len(q))
		}
		want := fleet[i%len(fleet)]
		for j, bench := range q {
			if bench.Name() != want {
				t.Errorf("slot %d/%d holds %s, want %s", i, j, bench.Name(), want)
			}
		}
	}

	// The fabric's cross-process contract: rebuilt bit-identically.
	b, err := spec.Materialize(nil, cm, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Slots {
		for j := range a.Slots[i] {
			if a.Slots[i][j].Prog.NumInstrs() != b.Slots[i][j].Prog.NumInstrs() {
				t.Errorf("slot %d/%d program differs across materializations", i, j)
			}
		}
	}
}

func TestMaterializeUnknownFleetErrors(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	_, err := Spec{Slots: 2, QueueLen: 2, Fleet: "no-such-fleet"}.Materialize(nil, cm, m)
	if err == nil || !strings.Contains(err.Error(), "unknown fleet") {
		t.Fatalf("unknown fleet error = %v, want unknown-fleet", err)
	}
}

// TestAntagonistMemSignature pins what makes the antagonist an antagonist:
// its image-level shared-cache signature must classify as memory-bound on
// every machine the contention campaign runs (working set at or above half
// the largest L2 group, references reaching the shared cache), while the
// compute anchor it ships with must not.
func TestAntagonistMemSignature(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Hex2Big2Medium2Little()
	specs := AntagonistSpecs()
	if len(specs) != 2 || specs[0].Name != "ant.mem" || specs[1].Name != "ant.cpu" {
		t.Fatalf("AntagonistSpecs = %v, want [ant.mem ant.cpu]", specs)
	}

	sig := func(bs BenchSpec) *place.MemStats {
		t.Helper()
		b, err := Generate(bs, cm, m)
		if err != nil {
			t.Fatal(err)
		}
		img, err := exec.NewImage(b.Prog, nil, cm)
		if err != nil {
			t.Fatal(err)
		}
		return img.MemSignature()
	}

	ant := sig(specs[0])
	if ant.L2RefsPerInstr <= 0 {
		t.Errorf("antagonist L2RefsPerInstr = %v, want > 0", ant.L2RefsPerInstr)
	}
	var maxL2 float64
	for _, g := range m.L2s {
		if g.SizeKB > maxL2 {
			maxL2 = g.SizeKB
		}
	}
	if ant.Profile.WorkingSetKB < maxL2/2 {
		t.Errorf("antagonist working set %v KB below mem-bound threshold %v",
			ant.Profile.WorkingSetKB, maxL2/2)
	}

	cpu := sig(specs[1])
	if cpu.Profile.WorkingSetKB >= maxL2/2 {
		t.Errorf("compute anchor working set %v KB classifies memory-bound", cpu.Profile.WorkingSetKB)
	}
}

// TestAntagonistNotInSuite pins the byte-identity guard: adding the
// antagonist personality to the random-draw suite would perturb every
// BuildWorkload draw and break cross-PR result identity, so it must stay a
// named fleet, not a suite member.
func TestAntagonistNotInSuite(t *testing.T) {
	for _, s := range Specs() {
		if s.Name == "ant.mem" || s.Personality == antPersonality {
			t.Fatalf("antagonist %q leaked into the suite draw", s.Name)
		}
	}
}
