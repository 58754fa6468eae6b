package place

import (
	"math"
	"slices"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/rng"
)

func quad() *amp.Machine { return amp.Quad2Fast2Slow() }
func hex() *amp.Machine  { return amp.Hex2Big2Medium2Little() }

// --- Select (Algorithm 2) --------------------------------------------------

func TestSelectMemoryBoundPicksSlow(t *testing.T) {
	// f[fast]=0.4, f[slow]=0.7: gap 0.3 > δ=0.15 -> slow.
	if got := Select(quad(), []float64{0.4, 0.7}, 0.15); got != amp.SlowType {
		t.Errorf("Select = %d, want slow", got)
	}
}

func TestSelectComputeBoundTiePicksFast(t *testing.T) {
	if got := Select(quad(), []float64{0.9, 0.9}, 0.15); got != amp.FastType {
		t.Errorf("Select = %d, want fast on IPC tie", got)
	}
}

func TestSelectSmallGapStays(t *testing.T) {
	if got := Select(quad(), []float64{0.8, 0.9}, 0.15); got != amp.FastType {
		t.Errorf("Select = %d, want fast (gap 0.1 < 0.15)", got)
	}
}

func TestSelectThreeTypes(t *testing.T) {
	m := hex()
	// Monotone gaps above δ walk all the way to the little type.
	if got := Select(m, []float64{0.3, 0.5, 0.8}, 0.1); got != amp.CoreTypeID(2) {
		t.Errorf("Select = %d, want little (2)", got)
	}
	// Flat IPC: tie-break lands on the fastest type.
	if got := Select(m, []float64{0.9, 0.9, 0.9}, 0.1); got != amp.CoreTypeID(0) {
		t.Errorf("Select = %d, want big (0) on flat IPC", got)
	}
}

// --- Capacity model --------------------------------------------------------

func TestCapacityQuotasSumNearTotal(t *testing.T) {
	for _, m := range []*amp.Machine{quad(), hex(), amp.ThreeCore2Fast1Slow()} {
		e := NewEngine(m, 0.06, Config{})
		for n := 1; n <= 24; n++ {
			sum := 0
			for _, q := range e.quotas(make([]int, len(m.Types)), n) {
				sum += q
			}
			// Nearest-rounding can drift by at most one per type.
			if diff := sum - n; diff < -len(m.Types) || diff > len(m.Types) {
				t.Fatalf("%s: quotas for %d tasks sum to %d", m.Name, n, sum)
			}
		}
	}
}

func TestCapacityFastQuotaClampsToFastCores(t *testing.T) {
	e := NewEngine(quad(), 0.06, Config{})
	// 2 fast cores: even a 1-task ranking grants at most n, and small
	// rankings fill the fast cores before pinning anything slow.
	if q := e.fastQuota(1); q != 1 {
		t.Errorf("fastQuota(1) = %d, want 1", q)
	}
	if q := e.fastQuota(2); q != 2 {
		t.Errorf("fastQuota(2) = %d, want 2", q)
	}
	if q := e.fastQuota(10); q != 6 { // share 0.6
		t.Errorf("fastQuota(10) = %d, want 6", q)
	}
}

// --- Arbitration -----------------------------------------------------------

// randomClaims draws n claims with random per-type rates; choice follows the
// best rate so preferences are internally consistent.
func randomClaims(r *rng.Source, m *amp.Machine, n int) []Claim {
	claims := make([]Claim, n)
	for i := range claims {
		rates := make([]float64, len(m.Types))
		best := 0
		for t := range rates {
			rates[t] = 1e5 + float64(r.Uint64()%200000)
			if rates[t] > rates[best] {
				best = t
			}
		}
		claims[i] = Claim{Dec: &Decision{Choice: amp.CoreTypeID(best), Rates: rates}}
	}
	return claims
}

func TestArbitratePureAndDeterministic(t *testing.T) {
	r := rng.New(7)
	for _, m := range []*amp.Machine{quad(), hex()} {
		e := NewEngine(m, 0.06, Config{})
		for trial := 0; trial < 20; trial++ {
			claims := randomClaims(r, m, 1+int(r.Uint64()%12))
			snapshot := make([]Claim, len(claims))
			copy(snapshot, claims)
			a := slices.Clone(e.Arbitrate(claims)) // the engine reuses its result buffer
			b := e.Arbitrate(claims)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s trial %d: repeated arbitration differs at %d: %d vs %d", m.Name, trial, i, a[i], b[i])
				}
				if claims[i].Dec.Choice != snapshot[i].Dec.Choice {
					t.Fatalf("%s trial %d: arbitration mutated its input", m.Name, trial)
				}
			}
		}
	}
}

func TestArbitrateReachesCapacityFixpoint(t *testing.T) {
	r := rng.New(11)
	for _, m := range []*amp.Machine{quad(), hex()} {
		e := NewEngine(m, 0.06, Config{})
		for trial := 0; trial < 50; trial++ {
			claims := randomClaims(r, m, 2+int(r.Uint64()%16))
			assigned := e.Arbitrate(claims)
			quota := e.quotas(make([]int, len(m.Types)), len(claims))
			demand := make([]int, len(m.Types))
			for _, a := range assigned {
				demand[a]++
			}
			over, under := false, false
			for i := range demand {
				if demand[i] > quota[i]+1 {
					over = true
				}
				if demand[i] < quota[i] {
					under = true
				}
			}
			if over && under {
				t.Fatalf("%s trial %d: arbitration left demand %v against quota %v (over and under coexist)",
					m.Name, trial, demand, quota)
			}
		}
	}
}

func TestArbitrateSpillsCheapestFromHerd(t *testing.T) {
	// Four memory-bound tasks all herd onto the slow pair of the quad.
	// Quota (share 0.6/0.4 of 4) is fast 2 / slow 2 with a one-task band,
	// so arbitration spills until the slow pair holds quota+band = 3 —
	// and the task it moves must be the one with the smallest
	// fast-vs-slow rate loss.
	m := quad()
	e := NewEngine(m, 0.06, Config{})
	mk := func(fastRate, slowRate float64) Claim {
		return Claim{Dec: &Decision{Choice: amp.SlowType, Rates: []float64{fastRate, slowRate}}}
	}
	claims := []Claim{
		mk(90_000, 100_000), // loses 10k on fast — the cheapest spill
		mk(40_000, 100_000), // loses 60k
		mk(85_000, 100_000), // loses 15k
		mk(30_000, 100_000), // loses 70k
	}
	assigned := e.Arbitrate(claims)
	want := []amp.CoreTypeID{amp.FastType, amp.SlowType, amp.SlowType, amp.SlowType}
	for i := range want {
		if assigned[i] != want[i] {
			t.Fatalf("assigned %v, want %v (cheapest-loss spill within the band)", assigned, want)
		}
	}
}

// --- Cross-path parity -----------------------------------------------------

// TestCrossPathPlacementParity is the unification property this package
// exists for: the static (spill), dynamic (probe), and hybrid runtimes
// differ only in how IPC tables are measured — fed *identical* per-(phase,
// core-type) IPC tables, every consumer shape of the shared engine must
// produce identical placements.
//
//   - dynamic shape: per-tick slice arbitration (Manager.probeRebalance);
//   - static shape:  claims registered per process in PID order, masks
//     read back at marks (Engine.Place, which is Enter then MaskFor);
//   - hybrid shape:  claims registered at boundaries in first-mark order,
//     masks re-read on the monitor tick (Hybrid.OnTick).
func TestCrossPathPlacementParity(t *testing.T) {
	r := rng.New(42)
	for _, m := range []*amp.Machine{quad(), amp.ThreeCore2Fast1Slow(), hex()} {
		for trial := 0; trial < 25; trial++ {
			nTasks := 1 + int(r.Uint64()%14)
			// One IPC table per task (its current phase's row).
			tables := make([][]float64, nTasks)
			for i := range tables {
				tables[i] = make([]float64, len(m.Types))
				for ct := range tables[i] {
					tables[i][ct] = 0.2 + float64(r.Uint64()%200)/100
				}
			}

			// Every path derives decisions through the one Decide.
			dynamic := NewEngine(m, 0.06, Config{})
			claims := make([]Claim, nTasks)
			for i, f := range tables {
				dec := dynamic.Decide(f)
				claims[i] = Claim{Dec: &dec}
			}
			wantTypes := dynamic.Arbitrate(claims)

			static := NewEngine(m, 0.06, Config{})
			for i, f := range tables {
				static.Enter(i+1, static.Decide(f)) // PIDs 1..n
			}
			hybrid := NewEngine(m, 0.06, Config{})
			for i, f := range tables {
				hybrid.Enter(i+1, hybrid.Decide(f))
			}

			for i := range tables {
				want := m.TypeMask(wantTypes[i])
				if got := static.MaskFor(i + 1); got != want {
					t.Fatalf("%s trial %d task %d: static path mask %b != dynamic path %b",
						m.Name, trial, i, got, want)
				}
				if got := hybrid.MaskFor(i + 1); got != want {
					t.Fatalf("%s trial %d task %d: hybrid path mask %b != dynamic path %b",
						m.Name, trial, i, got, want)
				}
			}

			// And the decision itself is the chooser shared with non-spill
			// static: Decide's choice == Select on the same table.
			for i, f := range tables {
				if claims[i].Dec.Choice != Select(m, f, 0.06) {
					t.Fatalf("%s: Decide choice diverged from Select for table %v", m.Name, f)
				}
			}
		}
	}
}

// --- Registered-claim lifecycle -------------------------------------------

func TestEngineClaimLifecycle(t *testing.T) {
	m := quad()
	e := NewEngine(m, 0.06, Config{})
	if mask := e.MaskFor(1); mask != 0 {
		t.Fatalf("mask for unregistered claim = %b, want 0", mask)
	}
	dec := e.Decide([]float64{1.5, 1.0})
	e.Enter(1, dec)
	if mask := e.MaskFor(1); mask != m.TypeMask(amp.FastType) {
		t.Fatalf("single fast-preferring claim mask = %b, want fast", mask)
	}
	e.Leave(1)
	if mask := e.MaskFor(1); mask != 0 {
		t.Fatalf("mask after Leave = %b, want 0", mask)
	}
	// Leave of an unknown id is a no-op.
	e.Leave(99)
}

// TestEnginePlace pins the claim step: Place enters the decision, returns
// the arbitrated mask, and reports a spill exactly when that mask is not
// the decision's own type.
func TestEnginePlace(t *testing.T) {
	m := quad()
	e := NewEngine(m, 0.06, Config{})
	mem := e.Decide([]float64{0.4, 0.7})
	if mem.Choice != amp.SlowType {
		t.Fatalf("memory-bound decision chose %d, want slow", mem.Choice)
	}
	slowMask := m.TypeMask(amp.SlowType)
	if mask, spilled := e.Place(1, mem); mask != slowMask || spilled {
		t.Fatalf("lone slow claim: mask %b spilled %v, want %b unspilled", mask, spilled, slowMask)
	}
	// Three slow claims overflow the slow pair's quota (1 of 3, band 1),
	// so arbitration parks exactly one of them on the fast pair.
	e.Place(2, mem)
	e.Place(3, mem)
	spills := 0
	for id := 1; id <= 3; id++ {
		mask, spilled := e.Place(id, mem)
		if spilled != (mask != slowMask) {
			t.Errorf("claim %d: mask %b but spilled %v", id, mask, spilled)
		}
		if spilled {
			spills++
		}
	}
	if spills != 1 {
		t.Errorf("%d claims spilled, want 1", spills)
	}
}

// TestTableDriftTracksDecisionBaseline pins the drift metric the hybrid's
// re-decision damping reads: undecided phases report infinite drift, a
// fresh decision snapshots the means (drift 0), and later samples move the
// drift by the relative change of the worst core type.
func TestTableDriftTracksDecisionBaseline(t *testing.T) {
	tbl := NewTable(2)
	if !math.IsInf(tbl.Drift(0), 1) {
		t.Fatalf("undecided drift = %g, want +Inf", tbl.Drift(0))
	}
	tbl.Add(0, 0, 1.0)
	tbl.Add(0, 1, 0.5)
	tbl.SetDecision(0, Decision{Choice: 0, Rates: []float64{1, 1}})
	if d := tbl.Drift(0); d != 0 {
		t.Fatalf("drift right after decision = %g, want 0", d)
	}
	// A second identical sample leaves the means unchanged.
	tbl.Add(0, 0, 1.0)
	if d := tbl.Drift(0); d != 0 {
		t.Fatalf("drift after identical sample = %g, want 0", d)
	}
	// A diverging sample on type 1 moves its mean 0.5 -> 0.75: relative
	// drift 0.25/0.75 = 1/3 against the larger value.
	tbl.Add(0, 1, 1.0)
	if d := tbl.Drift(0); math.Abs(d-1.0/3) > 1e-12 {
		t.Fatalf("drift after diverging sample = %g, want 1/3", d)
	}
	// Re-fixing the decision resets the baseline.
	tbl.SetDecision(0, Decision{Choice: 0, Rates: []float64{1, 1}})
	if d := tbl.Drift(0); d != 0 {
		t.Fatalf("drift after refreshed decision = %g, want 0", d)
	}
}
