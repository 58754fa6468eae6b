package place

// Surface tests for the engine's smaller contract points: the capacity
// model and type masks, config sentinel folding, the ranked-assignment path, the
// claim-refresh fast path, trace emission neutrality, and the decision
// table's query methods. These pin behaviors the big arbitration property
// tests route around.

import (
	"reflect"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/trace"
)

func TestCapacityAccessors(t *testing.T) {
	for _, m := range []*amp.Machine{quad(), hex()} {
		e := NewEngine(m, 0.06, Config{})
		if e.Machine() != m {
			t.Errorf("%s: Machine() did not return the described machine", m.Name)
		}
		fast, slow := e.fastType, e.slowType
		if m.Types[fast].FreqGHz <= m.Types[slow].FreqGHz {
			t.Errorf("%s: fast type %s not faster than slow type %s",
				m.Name, m.Types[fast].Name, m.Types[slow].Name)
		}
		// fastShare must equal the fast type's summed core clock over the
		// machine total, recomputed here from the core list.
		perType := make([]float64, len(m.Types))
		total := 0.0
		for _, core := range m.Cores {
			perType[core.Type] += m.Types[core.Type].CyclesPerSec
			total += m.Types[core.Type].CyclesPerSec
		}
		want := perType[fast] / total
		if got := e.fastShare(); got != want {
			t.Errorf("%s: fastShare = %v, want %v", m.Name, got, want)
		}
		if got := e.fastShare(); got <= 0 || got >= 1 {
			t.Errorf("%s: fastShare = %v outside (0,1)", m.Name, got)
		}
	}
}

func TestTypeOfInvertsTypeMask(t *testing.T) {
	for _, m := range []*amp.Machine{quad(), amp.ThreeCore2Fast1Slow(), hex()} {
		e := NewEngine(m, 0.06, Config{})
		for i := range m.Types {
			ty := amp.CoreTypeID(i)
			if got, ok := e.TypeOf(e.TypeMask(ty)); !ok || got != ty {
				t.Errorf("%s: TypeOf(TypeMask(%d)) = %d, %v", m.Name, ty, got, ok)
			}
		}
		if got, ok := e.TypeOf(m.AllMask()); ok {
			t.Errorf("%s: TypeOf(AllMask) = %d, want no type", m.Name, got)
		}
		if got, ok := e.TypeOf(0); ok {
			t.Errorf("%s: TypeOf(0) = %d, want no type", m.Name, got)
		}
	}

	// A core type without cores is a valid machine whose type mask is 0;
	// mask 0 still names no type.
	m := quad()
	m.Types = append(m.Types, m.Types[amp.SlowType])
	m.Types[2].Name = "coreless"
	if err := m.Validate(); err != nil {
		t.Fatalf("machine with a coreless type: %v", err)
	}
	e := NewEngine(m, 0.06, Config{})
	if mask := e.TypeMask(2); mask != 0 {
		t.Fatalf("coreless type mask = %#x, want 0", mask)
	}
	if got, ok := e.TypeOf(0); ok {
		t.Errorf("coreless machine: TypeOf(0) = %d, want no type", got)
	}
	if got, ok := e.TypeOf(e.TypeMask(amp.SlowType)); !ok || got != amp.SlowType {
		t.Errorf("coreless machine: TypeOf(slow mask) = %d, %v", got, ok)
	}
}

func TestAssignRankedQuotaSplit(t *testing.T) {
	for _, m := range []*amp.Machine{quad(), hex()} {
		// Cold claims (no previous assignment) take the raw quota cut, band
		// or no band: the split must be exactly fastQuota.
		e := NewEngine(m, 0.06, Config{})
		n := 8
		out := e.AssignRanked(make([]Claim, n))
		quota := e.fastQuota(n)
		for i, ct := range out {
			want := e.fastType
			if i >= quota {
				want = e.slowType
			}
			if ct != want {
				t.Errorf("%s: rank %d assigned %s, want %s (quota %d)",
					m.Name, i, m.Types[ct].Name, m.Types[want].Name, quota)
			}
		}
	}
}

func TestAssignRankedSymmetricMachineAssignsNothing(t *testing.T) {
	e := NewEngine(amp.Symmetric(4, 2.0), 0.06, Config{})
	if out := e.AssignRanked(make([]Claim, 4)); out != nil {
		t.Errorf("symmetric machine: AssignRanked = %v, want nil", out)
	}
}

func TestAssignRankedHysteresisBand(t *testing.T) {
	m := quad()
	e := NewEngine(m, 0.06, Config{})
	fast, slow := e.fastType, e.slowType
	n := 8
	quota := e.fastQuota(n)

	// Cold start (no previous assignment): the band positions take the raw
	// quota cut, so the quota fills even when it is no larger than the band.
	cold := e.AssignRanked(make([]Claim, n))
	for i, ct := range cold {
		want := fast
		if i >= quota {
			want = slow
		}
		if ct != want {
			t.Errorf("cold rank %d assigned %s, want raw quota cut %s",
				i, m.Types[ct].Name, m.Types[want].Name)
		}
	}

	// Inside the band, a task with a previous fast/slow assignment keeps
	// its side instead of flapping.
	claims := make([]Claim, n)
	band := []int{quota - 1, quota} // both strictly inside quota±1
	claims[band[0]] = Claim{Prev: slow, HasPrev: true}
	claims[band[1]] = Claim{Prev: fast, HasPrev: true}
	out := e.AssignRanked(claims)
	if out[band[0]] != slow {
		t.Errorf("band rank %d flapped to %s despite previous slow assignment",
			band[0], m.Types[out[band[0]]].Name)
	}
	if out[band[1]] != fast {
		t.Errorf("band rank %d flapped to %s despite previous fast assignment",
			band[1], m.Types[out[band[1]]].Name)
	}
	// Outside the band the quota cut is unconditional.
	if out[0] != fast || out[n-1] != slow {
		t.Errorf("ranks outside the band ignored the quota cut: %v", out)
	}
}

// TestTracedEngineIdenticalPlacements pins trace neutrality: an engine with
// a tracer attached makes bit-identical decisions and arbitrations to an
// untraced one (the tracer is written to, never read).
func TestTracedEngineIdenticalPlacements(t *testing.T) {
	m := hex()
	plain := NewEngine(m, 0.06, Config{Contention: &ContentionConfig{}})
	traced := NewEngine(m, 0.06, Config{Contention: &ContentionConfig{}})
	traced.SetTracer(trace.New())

	claims := herdClaims(plain)
	tc := herdClaims(traced)
	for i := range claims {
		if !reflect.DeepEqual(*claims[i].Dec, *tc[i].Dec) {
			t.Fatalf("claim %d: traced Decide diverged: %+v vs %+v", i, tc[i].Dec, claims[i].Dec)
		}
	}
	if got, want := traced.Arbitrate(tc), plain.Arbitrate(claims); !reflect.DeepEqual(got, want) {
		t.Errorf("traced arbitration %v differs from untraced %v", got, want)
	}
}

// TestEnterRefreshKeepsPlacement pins the refresh fast path: re-entering a
// claim with an unchanged Algorithm 2 choice updates rates in place without
// re-arbitrating, so the task's mask is stable; a changed choice dirties
// the engine and the mask follows the new decision.
func TestEnterRefreshKeepsPlacement(t *testing.T) {
	m := quad()
	e := NewEngine(m, 0.06, Config{})
	dec := e.Decide([]float64{0.4, 0.9})
	e.Enter(1, dec)
	before := e.MaskFor(1)
	if before == 0 {
		t.Fatal("registered claim has zero mask")
	}

	// Refresh: same choice, drifted rates.
	refreshed := dec
	refreshed.Rates = append([]float64(nil), dec.Rates...)
	refreshed.Rates[int(dec.Choice)] *= 1.01
	e.Enter(1, refreshed)
	if got := e.MaskFor(1); got != before {
		t.Errorf("rate-only refresh moved the mask: %#x -> %#x", before, got)
	}

	// Changed choice: the mask must follow the new decision.
	flipped := e.Decide([]float64{0.9, 0.9})
	if flipped.Choice == dec.Choice {
		t.Fatalf("test IPC vectors map to one choice %v; cannot exercise the flip", dec.Choice)
	}
	e.Enter(1, flipped)
	if got, want := e.MaskFor(1), m.TypeMask(flipped.Choice); got != want {
		t.Errorf("after choice flip mask = %#x, want %#x", got, want)
	}
}

func TestTableQueries(t *testing.T) {
	tab := NewTable(2)
	if tab.Count(0, 0) != 0 {
		t.Error("empty table reports samples")
	}
	if tab.Ready(0) {
		t.Error("empty table reports ready")
	}
	if tab.DecisionOf(0) != nil {
		t.Error("empty table reports a decision")
	}

	tab.Add(0, 0, 0.5)
	tab.Add(0, 0, 0.7)
	if got := tab.Count(0, 0); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if tab.Ready(0) {
		t.Error("phase ready with an unsampled type")
	}
	tab.Add(0, 1, 0.9)
	if !tab.Ready(0) {
		t.Error("phase not ready with every type sampled")
	}

	// LeastMeasured prefers the unsampled type, round-robin from offset.
	if got := tab.LeastMeasured(0, 0); got != 1 {
		t.Errorf("LeastMeasured = %v, want the single-sample type 1", got)
	}
	// A fresh phase has all-zero counts: the offset breaks the tie.
	if got := tab.LeastMeasured(7, 1); got != 1 {
		t.Errorf("LeastMeasured tie from offset 1 = %v, want 1", got)
	}
	if got := tab.LeastMeasured(7, -3); got != 0 {
		t.Errorf("LeastMeasured with negative offset = %v, want 0", got)
	}

	dec := Decision{Choice: 1, Rates: []float64{1, 2}}
	tab.SetDecision(0, dec)
	got := tab.DecisionOf(0)
	if got == nil || got.Choice != dec.Choice {
		t.Errorf("DecisionOf = %+v, want choice %v", got, dec.Choice)
	}
}
