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
func TestDispatchAllocationSteadyState(t *testing.T) {
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
