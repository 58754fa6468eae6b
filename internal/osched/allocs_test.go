package osched

import (
	"runtime"
	"testing"
)

// TestDispatchAllocationSteadyState pins the allocation-free hot path: once
// a kernel reaches steady state (queues sized, monitor buffers grown,
// ledger segments recycled), continued dispatching must not allocate per
// burst. The typed event heap regression this guards: the old
// container/heap interface boxed every pushed event into an `any`,
// allocating on each of the several pushes a single dispatch performs.
// The overcommitted case runs three tasks per core (queues several deep,
// shortened slices) with timers firing and pending throughout, so the run
// queues, burst ends, the timer FIFO and the heap all stay hot.
func TestDispatchAllocationSteadyState(t *testing.T) {
	t.Run("balanced", testDispatchAllocsBalanced)
	t.Run("overcommitted", testDispatchAllocsOvercommitted)
}

func testDispatchAllocsBalanced(t *testing.T) {
	k := newKernel(t)
	// Loop trip counts large enough that no task exits within the window;
	// mixed personalities keep every core busy and both queues hot.
	spawnProg(t, k, computeProgram(5e7), 1)
	spawnProg(t, k, memoryProgram(5e7), 2)
	spawnProg(t, k, computeProgram(5e7), 3)
	spawnProg(t, k, memoryProgram(5e7), 4)
	spawnProg(t, k, computeProgram(5e7), 5)
	spawnProg(t, k, memoryProgram(5e7), 6)

	// Warm up past slice growth and first-touch allocations.
	k.Run(2.0)
	if k.Live() != 6 {
		t.Fatalf("%d tasks exited during warmup; raise trip counts", 6-k.Live())
	}

	const windowSec = 4.0
	dispatches := int64(windowSec / TimesliceSec * float64(len(k.Params())))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run(2.0 + windowSec)
	runtime.ReadMemStats(&after)

	if k.Live() != 6 {
		t.Fatalf("%d tasks exited during the measured window; raise trip counts", 6-k.Live())
	}
	mallocs := int64(after.Mallocs - before.Mallocs)
	perDispatch := float64(mallocs) / float64(dispatches)
	t.Logf("%d mallocs over ~%d dispatches (%.3f/dispatch)", mallocs, dispatches, perDispatch)
	// The old boxing heap alone cost several allocations per dispatch
	// (timer push, burst-end push, arrival pushes). Steady state today is
	// ~0; 1.0 leaves room for incidental runtime allocation noise.
	if perDispatch > 1.0 {
		t.Errorf("hot path allocates %.2f objects per dispatch, want ~0 (heap boxing regression?)", perDispatch)
	}
}

// noop is a timer callback that allocates nothing to register.
func noop(*Kernel) {}

func testDispatchAllocsOvercommitted(t *testing.T) {
	k := newKernel(t)
	k.Overcommit = true
	const tasks = 12 // three per core on the quad machine
	for i := 0; i < tasks; i++ {
		p := computeProgram(5e7)
		if i%2 == 1 {
			p = memoryProgram(5e7)
		}
		spawnProg(t, k, p, uint64(i+1))
	}
	// timers registers n timers spread over [from, to): in time order
	// (the FIFO), plus every fourth one again out of order (the heap).
	timers := func(from, to float64, n int) {
		step := (to - from) / float64(n)
		for i := 0; i < n; i++ {
			k.At(SecToPs(from+step*float64(i)), noop)
			if i%4 == 3 {
				k.At(SecToPs(from+step*float64(i-2)), noop)
			}
		}
	}
	// Warm up with timers firing, so the timer table and its free list
	// reach the size the window reuses.
	timers(0.01, 2.0, 300)
	k.Run(2.0)
	if k.Live() != tasks {
		t.Fatalf("%d tasks exited during warmup; raise trip counts", tasks-k.Live())
	}

	const windowSec = 4.0
	timers(2.0, 2.0+windowSec, 200)              // fire during the window
	timers(2.0+windowSec+1, 2.0+windowSec+2, 30) // still pending after it
	slicesBefore := k.OvercommitSlices()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Run(2.0 + windowSec)
	runtime.ReadMemStats(&after)

	if k.Live() != tasks {
		t.Fatalf("%d tasks exited during the measured window; raise trip counts", tasks-k.Live())
	}
	dispatches := int64(k.OvercommitSlices() - slicesBefore)
	if dispatches == 0 {
		t.Fatal("no overcommitted slices in the window: the kernel is not overcommitted")
	}
	mallocs := int64(after.Mallocs - before.Mallocs)
	t.Logf("%d mallocs over %d overcommitted dispatches", mallocs, dispatches)
	// The queue and burst-end paths allocate nothing per dispatch; a few
	// mallocs leave room for incidental runtime allocation.
	if mallocs > 8 {
		t.Errorf("overcommitted hot path made %d allocations over %d dispatches, want ~0", mallocs, dispatches)
	}
}
