package phasetune_test

import (
	"context"
	"testing"

	"phasetune"
)

// ledgerSession mirrors traceSession with accounting instead of tracing:
// open arrivals, overcommit, hybrid policy — the configuration exercising
// every charge site (marks, monitoring, migration, slicing, queueing).
func ledgerSession(machine *phasetune.Machine) *phasetune.Session {
	return phasetune.NewSession(phasetune.WithMachine(machine), phasetune.WithLedger())
}

// TestLedgerServingDecomposition pins the serving rollup: an open
// overcommitted run's stats carry a non-degenerate queueing/service split,
// and the slicing tax is visible whenever the proportional-share dispatcher
// actually shortened slices.
func TestLedgerServingDecomposition(t *testing.T) {
	machine := phasetune.QuadAMP()
	res, err := ledgerSession(machine).RunContext(context.Background(), traceSpec(machine))
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
