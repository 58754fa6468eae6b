package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/place"
	"phasetune/internal/trace"
	"phasetune/internal/tuning"
)

// TestEveryDecisionOnTheRunEngine runs one traced run per deciding policy
// and requires every Algorithm 2 decision to come out of the run's one
// placement engine: at least one place/decide instant per run, each on the
// engine's track (the machine's kernel row) with the spill-pricing rates
// the engine attaches.
func TestEveryDecisionOnTheRunEngine(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy Policy
		priced bool
	}{
		{"static", PolicyStatic, false},
		{"static/spill", PolicyStaticSpill, false},
		{"dynamic/probe", PolicyDynamicProbe, false},
		{"hybrid", PolicyHybrid, false},
		{"oracle", PolicyOracle, false},
		{"oracle/priced", PolicyOracle, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := identityConfig(t, amp.Quad2Fast2Slow(), Baseline, false, 1)
			cfg.Tuning = tuning.DefaultConfig()
			cfg.Mode = c.policy.Lower(&cfg.Params, &cfg.Tuning, &cfg.Online)
			if c.priced {
				cfg.Placement.Contention = &place.ContentionConfig{}
			}
			cfg.Trace = trace.New()
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Trace.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Cat  string         `json:"cat"`
					Ph   string         `json:"ph"`
					Pid  int            `json:"pid"`
					Tid  int            `json:"tid"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			decides := 0
			for _, ev := range doc.TraceEvents {
				if ev.Cat != "place" || ev.Name != "decide" || ev.Ph != "i" {
					continue
				}
				decides++
				if ev.Pid != trace.PidMachine || ev.Tid != trace.TidKernel {
					t.Errorf("decide on track pid %d tid %d, want the engine's (%d, %d): %v",
						ev.Pid, ev.Tid, trace.PidMachine, trace.TidKernel, ev.Args)
				}
				if _, ok := ev.Args["rates"]; !ok {
					t.Errorf("decide without rates: %v", ev.Args)
				}
			}
			if decides == 0 {
				t.Error("no place/decide instant in the run")
			}
		})
	}
}
