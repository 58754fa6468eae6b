package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTracerIsSafe pins the disabled state: every method on a nil
// *Tracer is a no-op, which is what lets emit sites skip any guard
// beyond the pointer itself.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.SetNow(5)
	tr.Span("c", "n", 1, 1, 0, 10)
	tr.Instant("c", "n", 1, 1, 3)
	tr.InstantNow("c", "n", 1, 1)
	tr.Counter("n", 1, 3, Arg{Key: "v", Value: 1})
	tr.NameProcess(1, "p")
	tr.NameThread(1, 1, "t")
	if tr.Len() != 0 || tr.NowPs() != 0 {
		t.Fatalf("nil tracer reported state: len=%d now=%d", tr.Len(), tr.NowPs())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}
	if !strings.Contains(tr.Summary(), "disabled") {
		t.Fatalf("nil tracer summary = %q", tr.Summary())
	}
}

func sampleTracer() *Tracer {
	tr := New()
	tr.NameProcess(PidMachine, "scheduler")
	tr.NameThread(PidMachine, CoreTid(0), "core 0")
	tr.NameThread(PidMachine, TidKernel, "kernel")
	tr.Span("sched", "burst", PidMachine, CoreTid(0), 1_000_000, 3_000_000,
		Arg{Key: "pid", Value: 7}, Arg{Key: "ipc", Value: 1.25})
	tr.SetNow(2_500_000)
	tr.InstantNow("place", "decide", PidTasks, 7, Arg{Key: "choice", Value: "fast"})
	tr.Counter("runnable", PidMachine, 3_000_000, Arg{Key: "total", Value: 4})
	tr.Instant("sched", "timer", PidMachine, TidKernel, 3_000_000)
	return tr
}

// TestWriteJSONShape validates the exported document against the
// trace-event schema essentials: every event has name/ph/ts/pid/tid,
// spans carry dur, and metadata rows come first.
func TestWriteJSONShape(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 7 { // 3 metadata + 4 events
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	for i := 0; i < 3; i++ {
		if doc.TraceEvents[i]["ph"] != "M" {
			t.Fatalf("event %d: metadata rows must come first, got %v", i, doc.TraceEvents[i])
		}
	}
	for i, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		if e["ph"] == "X" {
			if _, ok := e["dur"]; !ok {
				t.Fatalf("span %d missing dur: %v", i, e)
			}
		}
	}
	// The burst span is stamped at 1 µs with 2 µs duration.
	span := doc.TraceEvents[3]
	if span["ts"] != 1.0 || span["dur"] != 2.0 {
		t.Fatalf("span ts/dur = %v/%v, want 1/2", span["ts"], span["dur"])
	}
	args := span["args"].(map[string]any)
	if args["pid"] != 7.0 || args["ipc"] != 1.25 {
		t.Fatalf("span args = %v", args)
	}
	// InstantNow picked up SetNow's stamp.
	if doc.TraceEvents[4]["ts"] != 2.5 {
		t.Fatalf("instant ts = %v, want 2.5", doc.TraceEvents[4]["ts"])
	}
}

// TestWriteJSONDeterministic pins byte-stable output for identical
// event sequences.
func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleTracer().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same events produced different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestPsToUsec(t *testing.T) {
	cases := map[int64]string{
		0:             "0.000000",
		1:             "0.000001",
		1_000_000:     "1.000000",
		2_500_000:     "2.500000",
		1_234_567_890: "1234.567890",
	}
	for ps, want := range cases {
		if got := psToUsec(ps); got != want {
			t.Errorf("psToUsec(%d) = %q, want %q", ps, got, want)
		}
	}
}

func TestSummary(t *testing.T) {
	s := sampleTracer().Summary()
	for _, want := range []string{"core 0", "sched/burst", "place/decide", "counter/runnable"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
