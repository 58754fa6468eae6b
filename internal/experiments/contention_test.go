package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/place"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// contentionTestConfig returns a scaled config for the antagonist campaign:
// 12 slots over 60 seconds and one seed — wide enough that the hex's three
// cache groups all see demand, short enough for CI.
func contentionTestConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Scale(12, 60, []uint64{5})
}

// TestContentionPricedCellsAreEngineBacked pins Policy.EngineBacked
// against the contention column set: the priced cells are exactly the
// engine-arbitrated columns, and the stock scheduler is the one unpriced
// reference.
func TestContentionPricedCellsAreEngineBacked(t *testing.T) {
	var priced []sim.Policy
	for _, c := range ContentionCells() {
		if c.Priced {
			priced = append(priced, c.Policy)
		}
	}
	want := []sim.Policy{sim.PolicyStaticSpill, sim.PolicyDynamicProbe, sim.PolicyHybrid, sim.PolicyOracle}
	if !reflect.DeepEqual(priced, want) {
		t.Errorf("priced cells %v, want %v", priced, want)
	}
	for _, p := range ContentionPolicies() {
		if p.EngineBacked() == (p == sim.PolicyNone) {
			t.Errorf("%s: EngineBacked() = %v", p, p.EngineBacked())
		}
	}
	for _, p := range []sim.Policy{sim.PolicyStatic, sim.PolicyDynamicGreedy, sim.PolicyOverhead} {
		if p.EngineBacked() {
			t.Errorf("%s places without engine arbitration but reports EngineBacked", p)
		}
	}
}

func contentionRowOf(t *testing.T, rows []HerdingRow, p sim.Policy, priced bool) HerdingRow {
	t.Helper()
	for _, r := range rows {
		if r.Policy == p && r.Priced == priced {
			return r
		}
	}
	t.Fatalf("no row for %s priced=%v", p, priced)
	return HerdingRow{}
}

// TestContentionSeparatesAntagonistsOnHex is the tentpole assertion: on the
// hex machine the antagonist fleet herds under unpriced placement — the
// clairvoyant oracle worst of all, since its static estimates send every
// antagonist to the same "best" type — and contention pricing separates the
// fleet onto distinct cache groups and recovers the lost throughput.
func TestContentionSeparatesAntagonistsOnHex(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy antagonist sweep")
	}
	cfg := contentionTestConfig(t)
	rows, err := Contention(cfg, []*amp.Machine{amp.Hex2Big2Medium2Little()})
	if err != nil {
		t.Fatal(err)
	}

	// Herding: the unpriced oracle concentrates essentially all antagonist
	// core time on one cache group.
	herd := contentionRowOf(t, rows, sim.PolicyOracle, false)
	if herd.MaxMemShare < 0.9 {
		t.Errorf("unpriced oracle max group share %.3f, want >= 0.9 (herding)", herd.MaxMemShare)
	}
	if herd.MemTasks == 0 {
		t.Fatalf("no tasks classified memory-bound; the antagonist fleet is broken")
	}

	// The fix: the priced oracle spreads antagonists over >= 2 groups and
	// recovers a large fraction of the herding loss.
	priced := contentionRowOf(t, rows, sim.PolicyOracle, true)
	if priced.MaxMemShare > 0.6 {
		t.Errorf("priced oracle max group share %.3f, want <= 0.6 (separated)", priced.MaxMemShare)
	}
	if priced.GroupsUsed < 2 {
		t.Errorf("priced oracle used %.1f cache groups, want >= 2", priced.GroupsUsed)
	}
	if priced.Throughput < 1.5*herd.Throughput {
		t.Errorf("priced oracle throughput %.4g, want >= 1.5x herded %.4g",
			priced.Throughput, herd.Throughput)
	}

	// Across the engine-backed policies, pricing lowers the mean hottest-
	// group share: the fleet ends up less concentrated than under IPC-only
	// arbitration on every-policy average (individual policies may trade a
	// few points as relief fights windowed re-estimates).
	var unpricedSum, pricedSum float64
	var n int
	for _, p := range ContentionPolicies() {
		if !p.EngineBacked() {
			continue
		}
		unpricedSum += contentionRowOf(t, rows, p, false).MaxMemShare
		pricedSum += contentionRowOf(t, rows, p, true).MaxMemShare
		n++
	}
	if pricedSum/float64(n) >= unpricedSum/float64(n) {
		t.Errorf("mean priced max share %.3f not below unpriced %.3f",
			pricedSum/float64(n), unpricedSum/float64(n))
	}

	// Every row of the campaign carries the residency map it was run for.
	for _, r := range rows {
		if len(r.MemShare) != 3 {
			t.Errorf("%s priced=%v: MemShare has %d groups, want 3", r.Policy, r.Priced, len(r.MemShare))
		}
	}
}

// TestContentionLedgerConservationPriced extends the ledger's conservation
// property to contention-priced runs: relief moves and adjusted-rate spills
// reshuffle placements, but every cycle must still land in exactly one
// category — across the engine-backed policies, both campaign machines, and
// both system modes.
func TestContentionLedgerConservationPriced(t *testing.T) {
	if testing.Short() {
		t.Skip("policy x machine x mode grid")
	}
	for _, machine := range ContentionMachines() {
		for _, mode := range []string{"closed", "open"} {
			mcfg := ledgerConfig(t)
			mcfg.Machine = machine
			suite, err := workload.Suite(mcfg.Cost, machine)
			if err != nil {
				t.Fatal(err)
			}
			mcfg.Suite = suite
			for _, p := range ContentionPolicies() {
				if !p.EngineBacked() {
					continue
				}
				var spec dist.Spec
				if mode == "open" {
					spec = servingRunCfg(mcfg, p, 1.25, mcfg.Seeds[0])
					spec.Placement.Contention = &place.ContentionConfig{}
					spec.CacheStats = true
				} else {
					spec = contentionRunCfg(mcfg, ContentionCell{Policy: p, Priced: true}, mcfg.Seeds[0])
				}
				rc, err := mcfg.Env().RunConfig(spec, mcfg.Suite, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(rc)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", machine.Name, mode, p, err)
				}
				l := res.Ledger
				if l == nil {
					t.Fatalf("%s/%s/%s: Result.Ledger is nil", machine.Name, mode, p)
				}
				if err := l.Verify(); err != nil {
					t.Errorf("%s/%s/%s: %v", machine.Name, mode, p, err)
				}
				if got, want := l.Total.Total(), int64(l.Cores)*l.HorizonPs; got != want {
					t.Errorf("%s/%s/%s: total %d ps, want cores x horizon = %d ps",
						machine.Name, mode, p, got, want)
				}
				if res.CacheStats == nil {
					t.Errorf("%s/%s/%s: CacheStats requested but nil", machine.Name, mode, p)
				}
			}
		}
	}
}

// TestContentionSpecWireCompat pins the wire-format contract of the v6
// fields: a spec not using contention pricing or cache stats encodes without
// the new keys — byte-identical to a v5 spec payload — while priced specs
// carry them.
func TestContentionSpecWireCompat(t *testing.T) {
	cfg := contentionTestConfig(t)
	plain := showdownRunCfg(cfg, sim.PolicyStaticSpill, 5)
	blob, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["cache_stats"]; ok {
		t.Errorf("unpriced spec encodes cache_stats: %s", blob)
	}
	var pl map[string]json.RawMessage
	if err := json.Unmarshal(m["placement"], &pl); err != nil {
		t.Fatal(err)
	}
	if _, ok := pl["contention"]; ok {
		t.Errorf("unpriced spec encodes placement.contention: %s", m["placement"])
	}
	var q map[string]json.RawMessage
	if err := json.Unmarshal(m["queues"], &q); err != nil {
		t.Fatal(err)
	}
	if _, ok := q["fleet"]; ok {
		t.Errorf("suite-draw spec encodes queues.fleet: %s", m["queues"])
	}

	priced := contentionRunCfg(cfg, ContentionCell{Policy: sim.PolicyStaticSpill, Priced: true}, 5)
	blob, err = json.Marshal(priced)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache_stats", "contention", "fleet"} {
		if !bytes.Contains(blob, []byte(`"`+key+`"`)) {
			t.Errorf("priced antagonist spec missing %q: %s", key, blob)
		}
	}
}

// TestContentionShardedMergeByteIdentical pins the fabric contract for the
// v6 fields: a contention-priced campaign cell — antagonist fleet, cache
// stats, priced placement — merges byte-identically whether it runs
// sequentially, sharded across local workers, or under the segment memo.
func TestContentionShardedMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate sweep")
	}
	cfg := contentionTestConfig(t)
	cfg = cfg.Scale(4, 20, []uint64{5})
	cfg.Machine = amp.Hex2Big2Medium2Little()
	cfg.Ledger = true
	suite, err := workload.Suite(cfg.Cost, cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Suite = suite
	grid := []dist.Spec{
		contentionRunCfg(cfg, ContentionCell{Policy: sim.PolicyStaticSpill, Priced: true}, 5),
		contentionRunCfg(cfg, ContentionCell{Policy: sim.PolicyOracle, Priced: true}, 5),
	}
	camp := dist.Campaign{Env: cfg.Env(), Specs: grid}

	var seq [][]byte
	for _, sp := range grid {
		rc, err := camp.Env.RunConfig(sp, cfg.Suite, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheStats == nil {
			t.Fatal("sequential run dropped CacheStats")
		}
		blob, err := dist.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, blob)
	}

	sharded, err := dist.RunLocal(context.Background(), camp, dist.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		blob, err := dist.EncodeResult(sharded[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq[i], blob) {
			t.Errorf("spec %d: sharded result bytes differ from sequential", i)
		}
	}

}
