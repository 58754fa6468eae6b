package workload

import (
	"math"
	"strings"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/cfg"
	"phasetune/internal/exec"
)

func suite(t *testing.T) []*Benchmark {
	t.Helper()
	s, err := Suite(exec.DefaultCostModel(), amp.Quad2Fast2Slow())
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}
	return s
}

func TestSuiteHasAllTable1Benchmarks(t *testing.T) {
	s := suite(t)
	if len(s) != 15 {
		t.Fatalf("suite has %d benchmarks, want 15", len(s))
	}
	names := map[string]bool{}
	for _, b := range s {
		names[b.Name()] = true
	}
	for _, want := range []string{
		"401.bzip2", "410.bwaves", "429.mcf", "459.GemsFDTD", "470.lbm",
		"473.astar", "188.ammp", "173.applu", "179.art", "183.equake",
		"164.gzip", "181.mcf", "172.mgrid", "171.swim", "175.vpr",
	} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

func TestSuiteProgramsValid(t *testing.T) {
	for _, b := range suite(t) {
		if err := b.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
		if _, err := cfg.BuildAll(b.Prog); err != nil {
			t.Errorf("%s: CFG: %v", b.Name(), err)
		}
	}
}

func TestIsolationRuntimeMatchesTarget(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cm := exec.DefaultCostModel()
	pars := exec.ParamsFor(cm, machine)
	for _, b := range suite(t) {
		img, err := exec.NewImage(b.Prog, nil, cm)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		p := exec.NewProcess(1, img, &cm, 42, nil)
		cycles := p.RunIsolated(&pars[0], 0, machine.L2s[0].SizeKB, 0)
		got := float64(cycles) / machine.Types[0].CyclesPerSec
		ratio := got / b.Spec.TargetSec
		if ratio < 0.9 || ratio > 1.15 {
			t.Errorf("%s: isolation %.1fs vs target %.1fs (ratio %.2f)", b.Name(), got, b.Spec.TargetSec, ratio)
		}
	}
}

func TestRelativeRuntimeOrdering(t *testing.T) {
	s := suite(t)
	byName := map[string]*Benchmark{}
	for _, b := range s {
		byName[b.Name()] = b
	}
	// The paper's longest benchmarks must stay the longest after scaling.
	if byName["410.bwaves"].Spec.TargetSec < byName["171.swim"].Spec.TargetSec {
		t.Error("bwaves not the longest")
	}
	if byName["164.gzip"].Spec.TargetSec > byName["429.mcf"].Spec.TargetSec {
		t.Error("gzip longer than mcf")
	}
}

func TestSinglePhaseBenchmarksHaveOnePhase(t *testing.T) {
	for _, b := range suite(t) {
		if b.Spec.PaperSwitches == 0 && len(b.Spec.Phases()) != 1 {
			t.Errorf("%s: paper shows 0 switches but personality has %d phases",
				b.Name(), len(b.Spec.Phases()))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	specs := Specs()
	a, err := Generate(specs[0], cm, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(specs[0], cm, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prog.NumInstrs() != b.Prog.NumInstrs() {
		t.Error("generation not deterministic")
	}
	for pi := range a.Prog.Procs {
		for ii := range a.Prog.Procs[pi].Instrs {
			if a.Prog.Procs[pi].Instrs[ii] != b.Prog.Procs[pi].Instrs[ii] {
				t.Fatalf("instruction %d/%d differs", pi, ii)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	if _, err := Generate(BenchSpec{Name: "401.bzip2", TargetSec: 0}, cm, m); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Generate(BenchSpec{Name: "nope", TargetSec: 1}, cm, m); err == nil {
		t.Error("unknown personality accepted")
	}
}

func TestStaticSizeRoughlyMatchesSpec(t *testing.T) {
	for _, b := range suite(t) {
		if b.Spec.StaticInstrs == 0 {
			continue
		}
		n := b.Prog.NumInstrs()
		if n < b.Spec.StaticInstrs || n > b.Spec.StaticInstrs*3 {
			t.Errorf("%s: %d static instrs for budget %d", b.Name(), n, b.Spec.StaticInstrs)
		}
	}
}

func TestBuildWorkloadShape(t *testing.T) {
	s := suite(t)
	w := BuildWorkload(s, 18, 32, 7)
	if w.NumSlots() != 18 {
		t.Fatalf("slots = %d", w.NumSlots())
	}
	for i, q := range w.Slots {
		if len(q) != 32 {
			t.Errorf("slot %d queue length %d", i, len(q))
		}
	}
}

// TestSpecValidateBoundsSlots checks Slots is bounded on its own: an
// empty-queue spec must not ask a worker for 2^40 slots, with or without
// the antagonist fleet, while the ceiling itself stays valid.
func TestSpecValidateBoundsSlots(t *testing.T) {
	for _, fleet := range []string{"", FleetAntagonist} {
		if err := (Spec{Slots: 1 << 40, Fleet: fleet}).Validate(); err == nil {
			t.Errorf("fleet %q: 2^40 slots validated", fleet)
		}
		if err := (Spec{Slots: MaxQueuedJobs + 1, Fleet: fleet}).Validate(); err == nil {
			t.Errorf("fleet %q: %d slots validated", fleet, MaxQueuedJobs+1)
		}
		if err := (Spec{Slots: MaxQueuedJobs, QueueLen: 1, Fleet: fleet}).Validate(); err != nil {
			t.Errorf("fleet %q: the ceiling itself refused: %v", fleet, err)
		}
	}
}

// TestSpecValidateRefusesEmptyQueues: a closed spec with slots but no
// jobs per slot would run empty without an error, on every closed form;
// open specs leave both fields unused.
func TestSpecValidateRefusesEmptyQueues(t *testing.T) {
	for _, q := range []Spec{{Slots: 2}, {Slots: 1, Fleet: FleetAntagonist}, {Slots: 4, Alternations: 16}} {
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "QueueLen must be at least 1") {
			t.Errorf("%+v: error %v, want the empty-queue refusal", q, err)
		}
		q.QueueLen = 1
		if err := q.Validate(); err != nil {
			t.Errorf("%+v refused: %v", q, err)
		}
	}
	open := Spec{Slots: 2, Arrivals: &ArrivalSpec{Kind: Poisson, RatePerSec: 1, HorizonSec: 1}}
	if err := open.Validate(); err != nil {
		t.Errorf("open spec refused for its unused QueueLen: %v", err)
	}
}

func TestBuildWorkloadDeterministicAndSeedSensitive(t *testing.T) {
	s := suite(t)
	a := BuildWorkload(s, 6, 16, 9)
	b := BuildWorkload(s, 6, 16, 9)
	c := BuildWorkload(s, 6, 16, 10)
	same, diff := true, false
	for i := range a.Slots {
		for j := range a.Slots[i] {
			if a.Slots[i][j] != b.Slots[i][j] {
				same = false
			}
			if a.Slots[i][j] != c.Slots[i][j] {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different queues")
	}
	if !diff {
		t.Error("different seeds produced identical queues")
	}
}

func TestWorkloadDrawsRoughlyUniform(t *testing.T) {
	s := suite(t)
	w := BuildWorkload(s, 40, 100, 3)
	counts := map[string]int{}
	total := 0
	for _, q := range w.Slots {
		for _, b := range q {
			counts[b.Name()]++
			total++
		}
	}
	want := float64(total) / float64(len(s))
	for n, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("%s drawn %d times, want about %.0f", n, c, want)
		}
	}
}

func TestAltSpecGeneratesAtEveryDefaultRate(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	for _, a := range DefaultAltAlternations() {
		sp := AltSpec(a)
		b, err := Generate(sp, cm, m)
		if err != nil {
			t.Fatalf("alt %d: %v", a, err)
		}
		if err := b.Prog.Validate(); err != nil {
			t.Errorf("alt %d: %v", a, err)
		}
		if got := sp.Alternations; got != a {
			t.Errorf("alt %d: spec alternations %d", a, got)
		}
		if len(sp.Phases()) != 2 {
			t.Errorf("alt %d: personality has %d phases, want 2", a, len(sp.Phases()))
		}
	}
}

func TestAltRateScalesGeometrically(t *testing.T) {
	// The axis holds everything but Alternations fixed, so the rate (per
	// billion estimated instructions) must scale linearly in the count.
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	alts := DefaultAltAlternations()
	prev := 0.0
	for i, a := range alts {
		r := AltSpec(a).AltRate(cm, m)
		if r <= 0 {
			t.Fatalf("alt %d: non-positive rate %g", a, r)
		}
		if i > 0 {
			wantRatio := float64(a) / float64(alts[i-1])
			if got := r / prev; math.Abs(got-wantRatio) > 0.01*wantRatio {
				t.Errorf("rate ratio %d/%d = %.3f, want %.3f", a, alts[i-1], got, wantRatio)
			}
		}
		prev = r
	}
	// Single-phase specs carry no rate.
	if r := (BenchSpec{Name: "473.astar", TargetSec: 1, Alternations: 1}).AltRate(cm, m); r != 0 {
		t.Errorf("single-run spec rate = %g, want 0", r)
	}
}

func TestMaterializeAlternationAxis(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	s := suite(t)

	// Alternations == 0 behaves exactly like Build.
	plain := Spec{Slots: 4, QueueLen: 8, Seed: 9}
	w, err := plain.Materialize(s, cm, m)
	if err != nil {
		t.Fatal(err)
	}
	ref := plain.Build(s)
	for i := range ref.Slots {
		for j := range ref.Slots[i] {
			if w.Slots[i][j] != ref.Slots[i][j] {
				t.Fatalf("slot %d/%d differs from Build", i, j)
			}
		}
	}

	// Alternations > 0 yields the anchored alternation fleet, rebuilt
	// bit-identically across calls (the fabric's cross-process contract).
	alt := Spec{Slots: 3, QueueLen: 5, Seed: 9, Alternations: 64}
	a, err := alt.Materialize(s, cm, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := alt.Materialize(nil, cm, m) // suite unused on the alt path
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSlots() != 3 {
		t.Fatalf("slots = %d", a.NumSlots())
	}
	// Slots cycle alternator / cpu anchor / reversed alternator / mem
	// anchor; only the alternators carry the swept rate.
	fleet := []string{"alt.x64", "alt.cpu", "alt.x64.r", "alt.mem"}
	for i, q := range a.Slots {
		if len(q) != 5 {
			t.Fatalf("slot %d queue length %d", i, len(q))
		}
		want := fleet[i%len(fleet)]
		for j, bench := range q {
			if bench.Name() != want {
				t.Errorf("slot %d/%d holds %s, want %s", i, j, bench.Name(), want)
			}
			if bench.Prog.NumInstrs() != b.Slots[i][j].Prog.NumInstrs() {
				t.Errorf("slot %d/%d program differs across materializations", i, j)
			}
		}
	}
	// The two rotations are one mix: identical phase kinds, rotated order.
	fwd, rev := AltSpec(64).Phases(), AltSpecRev(64).Phases()
	if len(fwd) != 2 || len(rev) != 2 || fwd[0].Kind != rev[1].Kind || fwd[1].Kind != rev[0].Kind {
		t.Errorf("rotations are not phase-rotated copies: %v vs %v", fwd, rev)
	}
}

func TestPhaseKindStrings(t *testing.T) {
	for _, k := range []PhaseKind{CPUPhase, FPPhase, MemPhase, MemLightPhase, MixedPhase} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestVariantsShareBehavior(t *testing.T) {
	// All variants of a kind must agree on memory-boundedness so they land
	// in one cluster.
	for _, k := range []PhaseKind{CPUPhase, FPPhase, MemPhase, MemLightPhase, MixedPhase} {
		vs := k.variants()
		base := vs[0].Load+vs[0].Store > 0
		for i, v := range vs {
			if (v.Load+v.Store > 0) != base {
				t.Errorf("%s variant %d memory presence differs", k, i)
			}
		}
	}
}
