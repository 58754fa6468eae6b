package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"phasetune"
	"phasetune/internal/amp"
)

// TestPolicySideMatchesSessionLedger checks that a policy-named side runs
// the same cell as a Session run of that policy: resolveSide on the name
// and resolveSide on the ledger JSON the Session run writes (the form
// `ampsim -ledger` writes) give byte-identical ledgers.
func TestPolicySideMatchesSessionLedger(t *testing.T) {
	const slots, duration, seed = 4, 24.0, 5
	for _, tc := range []struct{ policy, machine string }{
		{"static", "quad"},
		{"hybrid", "hex"},
	} {
		byName, _, err := resolveSide(tc.policy, tc.machine, slots, duration, seed, false)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.policy, tc.machine, err)
		}

		pol, err := phasetune.ParsePolicy(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := amp.ByName(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		sess := phasetune.NewSession(phasetune.WithMachine(machine), phasetune.WithLedger())
		res, err := sess.Run(phasetune.RunSpec{
			Workload:    phasetune.WorkloadSpec{Slots: slots, QueueLen: 256, Seed: seed},
			DurationSec: duration, Policy: pol, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(res.Ledger, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ledger.json")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		byFile, _, err := resolveSide(path, tc.machine, slots, duration, seed, false)
		if err != nil {
			t.Fatal(err)
		}

		a, _ := json.Marshal(byName)
		b, _ := json.Marshal(byFile)
		if !bytes.Equal(a, b) {
			t.Errorf("%s on %s: the policy side's ledger differs from the Session run's", tc.policy, tc.machine)
		}
	}
}
