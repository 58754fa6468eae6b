package osched

import (
	"bytes"
	"testing"

	"phasetune/internal/trace"
)

// TestAtTimerTieBreakRegistrationOrder pins the determinism contract for
// same-instant timers: ties on the picosecond break by heap sequence
// number, i.e. registration order.
func TestAtTimerTieBreakRegistrationOrder(t *testing.T) {
	k := newKernel(t)
	at := SecToPs(0.5)
	var fired []string
	k.At(at, func(*Kernel) { fired = append(fired, "a") })
	k.At(at, func(*Kernel) { fired = append(fired, "b") })
	k.At(at, func(*Kernel) {
		fired = append(fired, "c")
		// A same-instant timer registered from inside a callback still
		// fires this instant, after everything already queued.
		k.At(at, func(*Kernel) { fired = append(fired, "d") })
	})
	k.Run(1.0)
	want := []string{"a", "b", "c", "d"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v (registration order)", fired, want)
		}
	}
}

// TestAtTimerVsSampleSamePicosecond pins the interleaving of At timers
// with the periodic OnSample event when both land on the same
// picosecond: whichever was pushed onto the event heap first wins.
// Timers registered before the first Run* call precede the sample event
// (seeded inside Run); timers registered after the run started follow it.
func TestAtTimerVsSampleSamePicosecond(t *testing.T) {
	k := newKernel(t)
	samplePs := SecToPs(SampleIntervalSec)

	var order []string
	k.OnSample = func(_ *Kernel, atPs int64) {
		if atPs == samplePs {
			order = append(order, "sample")
		}
	}
	// Registered before Run: seq precedes the sample event seeded by
	// ensurePeriodicEvents, so it must fire first.
	k.At(samplePs, func(kk *Kernel) {
		order = append(order, "timer-before")
		// Registered mid-run for the same instant: seq follows the sample
		// event, so it must fire after.
		kk.At(samplePs, func(*Kernel) { order = append(order, "timer-after") })
	})
	k.Run(1.5)

	want := []string{"timer-before", "sample", "timer-after"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}

	// The same schedule replays identically: determinism of the tie-break.
	k2 := newKernel(t)
	var order2 []string
	k2.OnSample = func(_ *Kernel, atPs int64) {
		if atPs == samplePs {
			order2 = append(order2, "sample")
		}
	}
	k2.At(samplePs, func(kk *Kernel) {
		order2 = append(order2, "timer-before")
		kk.At(samplePs, func(*Kernel) { order2 = append(order2, "timer-after") })
	})
	k2.Run(1.5)
	for i := range order {
		if order2[i] != order[i] {
			t.Fatalf("replay diverged: %v vs %v", order2, order)
		}
	}
}

// TestKernelTraceEvents checks the kernel's emit sites end to end: a
// traced run produces burst spans on core rows, spawn/exit instants on
// task rows, a runnable counter track, and identical task outcomes to an
// untraced run; two traced runs export byte-identical JSON.
func TestKernelTraceEvents(t *testing.T) {
	run := func(tr *trace.Tracer) *Kernel {
		k := newKernel(t)
		k.Trace = tr
		spawnProg(t, k, computeProgram(2000), 1)
		spawnProg(t, k, memoryProgram(1500), 2)
		if err := k.RunUntilDone(1e6); err != nil {
			t.Fatal(err)
		}
		return k
	}

	tr := trace.New()
	traced := run(tr)
	plain := run(nil)

	// Zero perturbation: same completions, instructions, migrations.
	if traced.TotalInstructions() != plain.TotalInstructions() {
		t.Fatalf("traced instructions %d != untraced %d", traced.TotalInstructions(), plain.TotalInstructions())
	}
	for i, tk := range traced.Tasks() {
		pk := plain.Tasks()[i]
		if tk.CompletionPs != pk.CompletionPs || tk.Migrations != pk.Migrations {
			t.Fatalf("task %d diverged: traced (%d, %d) vs untraced (%d, %d)",
				i, tk.CompletionPs, tk.Migrations, pk.CompletionPs, pk.Migrations)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"burst"`, `"spawn"`, `"exit"`, `"runnable"`, `"thread_name"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace JSON missing %s", want)
		}
	}

	tr2 := trace.New()
	run(tr2)
	var buf2 bytes.Buffer
	if err := tr2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two identical traced runs exported different bytes")
	}
}

// TestTimersFireInSeqOrder pins the merge of the timer FIFO with the event
// heap: timers registered out of time order, at the same picosecond as one
// another and as a burst's end, fire in (ps, seq) order — those registered
// before the burst was dispatched ahead of its end, those registered after
// it behind.
func TestTimersFireInSeqOrder(t *testing.T) {
	// The first burst's end, read off a twin kernel's pending events.
	probe := newKernel(t)
	spawnProg(t, probe, computeProgram(5e7), 1)
	probe.Run(0)
	end := int64(-1)
	for _, e := range probe.events {
		if e.kind == evBurstEnd {
			end = e.ps
		}
	}
	if end <= 0 {
		t.Fatal("no burst end pending after the first dispatch")
	}

	k := newKernel(t)
	task := spawnProg(t, k, computeProgram(5e7), 1)
	type firing struct {
		name  string
		ps    int64
		ended bool // the burst ending at end had requeued the task
	}
	var fired []firing
	mark := func(name string) func(*Kernel) {
		return func(k *Kernel) {
			fired = append(fired, firing{name, k.NowPs(), task.lastQueuedPs == end})
		}
	}
	k.At(end+10, mark("c")) // FIFO
	k.At(end, mark("a"))    // earlier than the FIFO's tail: heap
	k.At(end, mark("b"))    // same picosecond as a
	k.At(end-10, mark("z"))
	k.Run(0)             // dispatches the burst that ends at end
	k.At(end, mark("d")) // same picosecond as the burst end, sequenced after it
	k.At(end+10, mark("e"))
	k.Run(PsToSec(end) + 0.01)

	want := []firing{
		{"z", end - 10, false},
		{"a", end, false},
		{"b", end, false},
		{"d", end, true},
		{"c", end + 10, true},
		{"e", end + 10, true},
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}
