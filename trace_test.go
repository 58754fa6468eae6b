package phasetune_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"phasetune"
)

// traceSpec is the serving run the trace export shape is pinned on: open
// arrivals, overcommit, and the hybrid policy — the configuration that
// exercises every emit site (dispatch, placement, windows, re-decisions,
// admission timers).
func traceSpec(machine *phasetune.Machine) phasetune.RunSpec {
	arr := phasetune.ServingArrivals(machine, phasetune.ArrivalPoisson, 1.2, 6)
	return phasetune.RunSpec{
		Workload:    phasetune.WorkloadSpec{Seed: 3, Arrivals: &arr},
		DurationSec: 8, Policy: phasetune.PolicyHybrid, Seed: 3,
	}
}

func traceSession(machine *phasetune.Machine, tr *phasetune.Tracer) *phasetune.Session {
	return phasetune.NewSession(
		phasetune.WithMachine(machine),
		phasetune.WithTrace(tr),
	)
}

// TestTraceExportShape pins the acceptance shape of an exported serving
// trace: at least one lifetime span per task, at least one placement
// decision with its rationale attached, and the runnable-depth counter
// track.
func TestTraceExportShape(t *testing.T) {
	machine := phasetune.QuadAMP()
	tr := phasetune.NewTracer()
	res, err := traceSession(machine, tr).RunContext(context.Background(), traceSpec(machine))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	taskSpans, decides, counters := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "task":
			taskSpans++
		case ev.Name == "decide" && ev.Ph == "i":
			decides++
			for _, key := range []string{"ipc", "choice", "delta"} {
				if _, ok := ev.Args[key]; !ok {
					t.Errorf("decide instant missing rationale field %q: %+v", key, ev.Args)
				}
			}
		case ev.Ph == "C" && ev.Name == "runnable":
			counters++
		}
	}
	if taskSpans < len(res.Tasks) {
		t.Errorf("%d task lifetime spans for %d tasks", taskSpans, len(res.Tasks))
	}
	if decides == 0 {
		t.Error("no placement-decision instants in a hybrid serving trace")
	}
	if counters == 0 {
		t.Error("no runnable-depth counter samples")
	}
}
