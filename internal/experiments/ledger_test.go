package experiments

import (
	"bytes"
	"context"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// ledgerConfig returns a small scaled config with cycle accounting on: four
// slots over a 20-second window and one seed — enough to exercise every
// charge path (marks, monitoring, migrations, spills, slicing) without the
// showdown's full width.
func ledgerConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(4, 20, []uint64{3})
	cfg.Ledger = true
	return cfg
}

// ledgerPolicies is the conservation test's policy axis: the stock
// scheduler, both paper techniques, a pure dynamic detector, and the
// oracle — every distinct charge-site combination (no instrumentation;
// marks; marks+windows; windows+probes; perfect knowledge).
func ledgerPolicies() []sim.Policy {
	return []sim.Policy{
		sim.PolicyNone, sim.PolicyStatic, sim.PolicyDynamicProbe,
		sim.PolicyHybrid, sim.PolicyOracle,
	}
}

// TestLedgerConservation property-checks the ledger's integer identity —
// Σ categories == cores × horizon, per core and machine-wide — across every
// policy, all three machines, and both system modes (closed batch and open
// serving under overcommit). Conservation is structural, so one seed per
// cell suffices: there is no statistical escape hatch for a leak.
func TestLedgerConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("policy x machine x mode grid")
	}
	machines := []*amp.Machine{
		amp.Quad2Fast2Slow(), amp.ThreeCore2Fast1Slow(), amp.Hex2Big2Medium2Little(),
	}
	for _, machine := range machines {
		for _, mode := range []string{"closed", "open"} {
			mcfg := ledgerConfig(t)
			mcfg.Machine = machine
			suite, err := workload.Suite(mcfg.Cost, machine)
			if err != nil {
				t.Fatal(err)
			}
			mcfg.Suite = suite
			for _, p := range ledgerPolicies() {
				spec := showdownRunCfg(mcfg, p, mcfg.Seeds[0])
				if mode == "open" {
					// 1.25x capacity so admission outruns the cores and the
					// overcommit dispatcher's slicing path gets charged.
					spec = servingRunCfg(mcfg, p, 1.25, mcfg.Seeds[0])
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
					t.Fatalf("%s/%s/%s: Ledger enabled but Result.Ledger is nil", machine.Name, mode, p)
				}
				if err := l.Verify(); err != nil {
					t.Errorf("%s/%s/%s: %v", machine.Name, mode, p, err)
				}
				if got, want := l.Total.Total(), int64(l.Cores)*l.HorizonPs; got != want {
					t.Errorf("%s/%s/%s: total %d ps, want cores x horizon = %d ps",
						machine.Name, mode, p, got, want)
				}
				if l.Total.UsefulPs <= 0 {
					t.Errorf("%s/%s/%s: no useful work attributed", machine.Name, mode, p)
				}
			}
		}
	}
}

// TestLedgerShardedMergeByteIdentical pins the fabric contract for the new
// Result field: a campaign with cycle accounting on merges byte-identically
// whether it runs sequentially or sharded across local workers — the ledger
// is plain data inside Result, so EncodeResult covers it for free.
func TestLedgerShardedMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate sweep")
	}
	mcfg := ledgerConfig(t)
	mcfg.Machine = amp.Quad2Fast2Slow()
	suite, err := workload.Suite(mcfg.Cost, mcfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	mcfg.Suite = suite
	grid := []dist.Spec{
		showdownRunCfg(mcfg, sim.PolicyStatic, mcfg.Seeds[0]),
		showdownRunCfg(mcfg, sim.PolicyHybrid, mcfg.Seeds[0]),
	}
	camp := dist.Campaign{Env: mcfg.Env(), Specs: grid}

	var seq []*sim.Result
	for _, sp := range grid {
		rc, err := camp.Env.RunConfig(sp, mcfg.Suite, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, res)
	}
	sharded, err := dist.RunLocal(context.Background(), camp, dist.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		if seq[i].Ledger == nil || sharded[i].Ledger == nil {
			t.Fatalf("spec %d: ledger missing (seq=%v sharded=%v)",
				i, seq[i].Ledger != nil, sharded[i].Ledger != nil)
		}
		a, err := dist.EncodeResult(seq[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := dist.EncodeResult(sharded[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("spec %d: sharded result bytes differ from sequential", i)
		}
	}
}
