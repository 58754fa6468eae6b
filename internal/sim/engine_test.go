package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/place"
	"phasetune/internal/trace"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// traceEvent is one decoded trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceEvents exports tr and decodes its events.
func traceEvents(t *testing.T, tr *trace.Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

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
			decides := 0
			for _, ev := range traceEvents(t, cfg.Trace) {
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

// TestMarksTraceOnTheirTasks runs one traced run per mark-driven policy and
// requires one exec/mark instant per executed mark: each task's count on
// its own PidTasks track (the one its lifetime span sits on) equals its
// MarksExecuted, and every instant names the mark and the core.
func TestMarksTraceOnTheirTasks(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyHybrid, PolicyOracle} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := identityConfig(t, amp.Quad2Fast2Slow(), Baseline, false, 1)
			cfg.Tuning = tuning.DefaultConfig()
			cfg.Mode = policy.Lower(&cfg.Params, &cfg.Tuning, &cfg.Online)
			// Enough jobs and time for hundreds of marks across many tasks.
			cfg.Workload = workload.Spec{Slots: 4, QueueLen: 16, Seed: 1}.Build(suite(t))
			cfg.DurationSec = 30
			cfg.Trace = trace.New()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events := traceEvents(t, cfg.Trace)
			// Lifetime spans are emitted in Result.Tasks order, one per task
			// on the task's PID track.
			taskOf := map[int]int{}
			for _, ev := range events {
				if ev.Cat == "task" && ev.Ph == "X" && ev.Pid == trace.PidTasks {
					taskOf[ev.Tid] = len(taskOf)
				}
			}
			if len(taskOf) != len(res.Tasks) {
				t.Fatalf("%d task spans for %d tasks", len(taskOf), len(res.Tasks))
			}
			got := make([]uint64, len(res.Tasks))
			for _, ev := range events {
				if ev.Cat != "exec" || ev.Name != "mark" {
					continue
				}
				i, ok := taskOf[ev.Tid]
				if ev.Ph != "i" || ev.Pid != trace.PidTasks || !ok {
					t.Fatalf("mark %s on track pid %d tid %d, want a task's PidTasks track", ev.Ph, ev.Pid, ev.Tid)
				}
				if _, ok := ev.Args["mark"]; !ok {
					t.Errorf("mark without mark arg: %v", ev.Args)
				}
				if _, ok := ev.Args["core"]; !ok {
					t.Errorf("mark without core arg: %v", ev.Args)
				}
				got[i]++
			}
			var total uint64
			for i, task := range res.Tasks {
				total += task.MarksExecuted
				if got[i] != task.MarksExecuted {
					t.Errorf("task %d (%s): %d mark instants, %d marks executed", i, task.Name, got[i], task.MarksExecuted)
				}
			}
			if total == 0 {
				t.Error("no marks executed")
			}
		})
	}
}
