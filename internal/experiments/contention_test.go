package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/sim"
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
