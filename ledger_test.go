package phasetune_test

import (
	"bytes"
	"context"
	"testing"

	"phasetune"
)

// ledgerSession mirrors traceSession with accounting instead of tracing:
// open arrivals, overcommit, hybrid policy — the configuration exercising
// every charge site (marks, monitoring, migration, slicing, queueing).
func ledgerSession(machine *phasetune.Machine, on bool) *phasetune.Session {
	opts := []phasetune.SessionOption{
		phasetune.WithMachine(machine),
	}
	if on {
		opts = append(opts, phasetune.WithLedger())
	}
	return phasetune.NewSession(opts...)
}

// TestLedgerRunByteIdenticalToUnaccounted is the accounting layer's
// load-bearing contract, the exact analogue of the tracer's: enabling the
// ledger never perturbs the simulation. An accounted run's Result, with the
// Ledger field stripped, must encode to the same canonical bytes the
// unaccounted run commits — charge sites never feed back into execution.
func TestLedgerRunByteIdenticalToUnaccounted(t *testing.T) {
	machine := phasetune.QuadAMP()
	spec := traceSpec(machine)

	plain, err := ledgerSession(machine, false).RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ledger != nil {
		t.Fatal("ledger-off run carries a Ledger")
	}
	accounted, err := ledgerSession(machine, true).RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if accounted.Ledger == nil {
		t.Fatal("ledger-on run carries no Ledger")
	}
	if err := accounted.Ledger.Verify(); err != nil {
		t.Error(err)
	}

	stripped := *accounted
	stripped.Ledger = nil
	if !bytes.Equal(encode(t, plain), encode(t, &stripped)) {
		t.Error("accounted run's Result differs from unaccounted run — the ledger perturbed the simulation")
	}

	// The omitempty contract: a nil Ledger leaves the canonical encoding
	// free of the field entirely, so ledger-off commits are byte-identical
	// to pre-ledger builds of the same run.
	if bytes.Contains(encode(t, plain), []byte(`"ledger"`)) {
		t.Error(`ledger-off Result encoding contains a "ledger" key`)
	}
}

// TestLedgerServingDecomposition pins the serving rollup: an open
// overcommitted run's stats carry a non-degenerate queueing/service split,
// and the slicing tax is visible whenever the proportional-share dispatcher
// actually shortened slices.
func TestLedgerServingDecomposition(t *testing.T) {
	machine := phasetune.QuadAMP()
	res, err := ledgerSession(machine, true).RunContext(context.Background(), traceSpec(machine))
	if err != nil {
		t.Fatal(err)
	}
	l := res.Ledger
	if l == nil {
		t.Fatal("no ledger")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}

	st := phasetune.SummarizeServing(res)
	if !st.HasLedger {
		t.Fatal("serving stats did not pick up the ledger")
	}
	if st.QueueingSec <= 0 || st.ServiceSec <= 0 {
		t.Errorf("degenerate sojourn decomposition: queueing=%v service=%v", st.QueueingSec, st.ServiceSec)
	}
	if res.OvercommitSlices > 0 && l.Total.SlicingPs == 0 {
		t.Error("overcommit shortened slices but no slicing tax was charged")
	}
}
