package place

import (
	"reflect"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/reuse"
)

// antagonist MemStats: a DRAM streamer whose working set covers a whole L2
// group, with most references reaching the shared cache.
func antMem() *MemStats {
	return &MemStats{L2RefsPerInstr: 0.25, Profile: reuse.Profile{WorkingSetKB: 3072, Locality: 0.9}}
}

// flatDec is a decision with near-flat rates (Select tie-breaks to the big
// type on a flat IPC vector; callers override Choice as needed).
func flatDec(e *Engine, mem *MemStats) Decision {
	dec := e.Decide([]float64{0.9, 0.9, 0.9})
	dec.Mem = mem
	return dec
}

// --- Cache-group topology ---------------------------------------------------

func TestEffectiveShareKBHexTopology(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{})
	// Each hex type owns one 2-core group: big/medium 4096 KB, little 2048.
	wantSolo := []float64{4096, 4096, 2048}
	for ti, solo := range wantSolo {
		ty := amp.CoreTypeID(ti)
		if got := e.groups[ty].groupKB; got != solo {
			t.Errorf("type %d groupKB = %v, want %v", ti, got, solo)
		}
		if got := e.effectiveShareKB(ty, 0); got != solo {
			t.Errorf("type %d share at demand 0 = %v, want solo %v", ti, got, solo)
		}
		if got := e.effectiveShareKB(ty, 1); got != solo {
			t.Errorf("type %d share at demand 1 = %v, want solo %v", ti, got, solo)
		}
		if got := e.effectiveShareKB(ty, 2); got != solo/2 {
			t.Errorf("type %d share at demand 2 = %v, want %v", ti, got, solo/2)
		}
		// Occupancy caps at the group's core count: more demand than cores
		// time-multiplexes, it does not shrink the concurrent share further.
		if got := e.effectiveShareKB(ty, 5); got != solo/2 {
			t.Errorf("type %d share at demand 5 = %v, want capped %v", ti, got, solo/2)
		}
	}
}

func TestEffectiveShareKBQuadSpreadsOverGroups(t *testing.T) {
	e := NewEngine(quad(), 0.15, Config{})
	// Quad fast type: one 4096 KB group with 2 cores.
	if got := e.effectiveShareKB(amp.FastType, 2); got != 2048 {
		t.Errorf("fast share at demand 2 = %v, want 2048", got)
	}
}

// --- adjustedRate -----------------------------------------------------------

func TestAdjustedRateComputeNeutral(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	dec := e.Decide([]float64{0.9, 0.9, 0.9})
	// No Mem: pricing must return the raw measured rate at any demand.
	for d := 0; d <= 4; d++ {
		for ty := 0; ty < 3; ty++ {
			if got := e.adjustedRate(&dec, ty, d, 1); got != dec.Rates[ty] {
				t.Fatalf("compute claim priced: type %d demand %d rate %v != raw %v",
					ty, d, got, dec.Rates[ty])
			}
		}
	}
	// L2-resident working set: crowding halves the share but the miss ratio
	// barely moves, so the adjusted rate stays within a hair of raw.
	dec.Mem = &MemStats{L2RefsPerInstr: 0.25, Profile: reuse.Profile{WorkingSetKB: 64, Locality: 0.9}}
	got := e.adjustedRate(&dec, 0, 2, 1)
	if got < dec.Rates[0]*0.999 {
		t.Errorf("L2-resident claim priced hard: %v vs raw %v", got, dec.Rates[0])
	}
}

func TestAdjustedRateMonotoneInDemand(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	dec := flatDec(e, antMem())
	solo := e.adjustedRate(&dec, 0, 1, 1)
	crowded := e.adjustedRate(&dec, 0, 2, 1)
	if solo != dec.Rates[0] {
		t.Errorf("solo occupancy priced: %v vs raw %v", solo, dec.Rates[0])
	}
	if crowded >= solo {
		t.Errorf("crowded rate %v not below solo %v", crowded, solo)
	}
	// Crowding the half-size little group is priced too.
	littleSolo := e.adjustedRate(&dec, 2, 1, 1)
	littleCrowded := e.adjustedRate(&dec, 2, 2, 1)
	if littleCrowded >= littleSolo {
		t.Errorf("little crowded rate %v not below solo %v", littleCrowded, littleSolo)
	}
}

// --- nil-Contention determinism contract ------------------------------------

func TestArbitrateUnpricedIgnoresMemStats(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{})
	mkClaims := func(withMem bool) []Claim {
		var claims []Claim
		for i := 0; i < 6; i++ {
			dec := e.Decide([]float64{0.9, 0.7, 0.5})
			if withMem && i%2 == 0 {
				dec.Mem = antMem()
			}
			claims = append(claims, Claim{Dec: &dec})
		}
		return claims
	}
	plain := slices.Clone(e.Arbitrate(mkClaims(false))) // the engine reuses its result buffer
	withMem := e.Arbitrate(mkClaims(true))
	if !reflect.DeepEqual(plain, withMem) {
		t.Errorf("unpriced engine read Decision.Mem: %v vs %v", plain, withMem)
	}
}

// --- relief: the herding fix ------------------------------------------------

// herdClaims is the hex herding scenario: three DRAM antagonists whose flat
// IPC sends Select to the little type (cheap capacity tie-break loses to
// frequency — flat vectors tie-break to big; force little like a measured
// memory phase would land), plus three compute claims on big.
func herdClaims(e *Engine) []Claim {
	var claims []Claim
	for i := 0; i < 3; i++ {
		// Memory phase: IPC rises toward the slow clock, gap > δ.
		dec := e.Decide([]float64{0.4, 0.55, 0.8})
		dec.Mem = antMem()
		claims = append(claims, Claim{Dec: &dec})
	}
	for i := 0; i < 3; i++ {
		dec := e.Decide([]float64{0.9, 0.9, 0.9})
		claims = append(claims, Claim{Dec: &dec})
	}
	return claims
}

func TestArbitrateUnpricedHerdsAntagonists(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{})
	assigned := e.Arbitrate(herdClaims(e))
	little := 0
	for i := 0; i < 3; i++ {
		if assigned[i] == 2 {
			little++
		}
	}
	// Quotas on 6 claims are 2/2/2 with band 1: 3 antagonists on little sit
	// inside quota+band, the loop never fires, and they thrash the half-size
	// group together — the phenomenon pricing exists to fix.
	if little != 3 {
		t.Fatalf("unpriced hex arbitration did not herd: %d/3 antagonists on little (%v)",
			little, assigned)
	}
}

func TestArbitratePricedSeparatesAntagonists(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	assigned := e.Arbitrate(herdClaims(e))
	perType := make([]int, 3)
	for i := 0; i < 3; i++ {
		perType[assigned[i]]++
	}
	if perType[2] >= 3 {
		t.Fatalf("priced arbitration left all antagonists on little: %v", assigned)
	}
	used := 0
	for _, n := range perType {
		if n > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("antagonists on %d type(s), want spread over >= 2: %v", used, assigned)
	}
}

func TestRelieveRespectsQuotaBand(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	claims := herdClaims(e)
	assigned := e.Arbitrate(claims)
	quota := e.quotas(make([]int, 3), len(claims))
	demand := make([]int, 3)
	for _, a := range assigned {
		demand[a]++
	}
	for ti, d := range demand {
		if d > quota[ti]+1 { // band 1 (default)
			t.Errorf("relief oversubscribed type %d: demand %d > quota %d + band 1",
				ti, d, quota[ti])
		}
	}
}

func TestArbitratePricedDeterministic(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	claims := herdClaims(e)
	first := slices.Clone(e.Arbitrate(claims)) // the engine reuses its result buffer
	for i := 0; i < 5; i++ {
		if got := e.Arbitrate(claims); !reflect.DeepEqual(got, first) {
			t.Fatalf("pass %d diverged: %v vs %v", i, got, first)
		}
	}
}

func TestArbitratePricedStableUnderReassignment(t *testing.T) {
	// Feeding an arbitration's output back as Prev must not move anything:
	// relief gains are measured against margin + hysteresis, so a converged
	// assignment is a fixed point, not an oscillator.
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	claims := herdClaims(e)
	assigned := slices.Clone(e.Arbitrate(claims)) // the engine reuses its result buffer
	for i := range claims {
		claims[i].Prev, claims[i].HasPrev = assigned[i], true
	}
	again := e.Arbitrate(claims)
	if !reflect.DeepEqual(assigned, again) {
		t.Errorf("re-arbitration moved converged claims: %v vs %v", assigned, again)
	}
}

// --- bandwidth overdraft ----------------------------------------------------

func TestBwFactorOverdraft(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	mem := antMem()
	var claims []Claim
	demand := make([]int, 3)
	for i := 0; i < 4; i++ {
		dec := e.Decide([]float64{0.4, 0.55, 0.8})
		dec.Mem = mem
		claims = append(claims, Claim{Dec: &dec})
		demand[dec.Choice]++
	}
	over := e.bwFactor(claims, demand)
	if over <= 1 {
		t.Errorf("four antagonists within budget: bwFactor = %v, want > 1", over)
	}
	// Claims without a memory signature draw no DRAM traffic.
	var neutral []Claim
	for _, c := range claims {
		dec := *c.Dec
		dec.Mem = nil
		neutral = append(neutral, Claim{Dec: &dec})
	}
	if got := e.bwFactor(neutral, demand); got != 1 {
		t.Errorf("bwFactor of cache-neutral claims = %v, want 1", got)
	}
	// Higher overdraft prices crowding harder than factor 1.
	dec := e.Decide([]float64{0.4, 0.55, 0.8})
	dec.Mem = mem
	at1 := e.adjustedRate(&dec, 2, 2, 1)
	atOver := e.adjustedRate(&dec, 2, 2, over)
	if atOver >= at1 {
		t.Errorf("overdraft did not deepen the stall: %v vs %v", atOver, at1)
	}
}

// --- engine-level integration ----------------------------------------------

func TestEngineEnterLeavePriced(t *testing.T) {
	e := NewEngine(hex(), 0.15, Config{Contention: &ContentionConfig{}})
	for id := 0; id < 3; id++ {
		dec := e.Decide([]float64{0.4, 0.55, 0.8})
		dec.Mem = antMem()
		e.Enter(id, dec)
	}
	littleMask := e.TypeMask(2)
	onLittle := 0
	for id := 0; id < 3; id++ {
		if e.MaskFor(id) == littleMask {
			onLittle++
		}
	}
	if onLittle >= 3 {
		t.Errorf("priced engine kept all 3 antagonist claims on little")
	}
	for id := 0; id < 3; id++ {
		e.Leave(id)
	}
	if got := e.MaskFor(0); got != 0 {
		t.Errorf("MaskFor after Leave = %#x, want 0", got)
	}
}
