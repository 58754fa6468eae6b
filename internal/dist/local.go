package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"phasetune/internal/sim"
)

// LocalOptions configures an in-process fabric run.
type LocalOptions struct {
	// Workers is the in-process worker count (<=0 uses GOMAXPROCS).
	Workers int
	// ChunkSize is the lease chunk size (default 1).
	ChunkSize int
}

// RunLocal executes a campaign on an in-process fabric: one coordinator
// plus n workers in goroutines over LocalTransport. Every run still
// crosses the wire format — wire specs in, canonical JSON results out —
// so the merged output is byte-identical to the HTTP fabric's and to a
// sequential execution of the same grid; only the sockets are elided.
// Each worker keeps its own artifact cache, exactly as separate worker
// processes would. It is the in-process harness of the coordinator/worker
// protocol: production campaigns run multi-process (Serve and Work, or
// cmd/sweepd), and tests check them against RunLocal.
func RunLocal(ctx context.Context, camp Campaign, opts LocalOptions) ([]*sim.Result, error) {
	coord, err := NewCoordinator(camp, Options{ChunkSize: opts.ChunkSize})
	if err != nil {
		return nil, err
	}
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(camp.Specs) && len(camp.Specs) > 0 {
		n = len(camp.Specs)
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		w := &Worker{Name: fmt.Sprintf("local-%d", i), Transport: LocalTransport{coord}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run failures abort the campaign through the commit protocol;
			// anything else (an encode failure, a protocol bug) is collected
			// below so an all-workers-dead campaign fails instead of hanging.
			workerErrs <- w.Run(wctx)
		}()
	}
	go func() {
		wg.Wait()
		close(workerErrs)
		first := fmt.Errorf("dist: all workers exited with work outstanding")
		for err := range workerErrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				first = err
				break
			}
		}
		coord.Abort(first) // no-op when the campaign already finished
	}()
	results, err := coord.Wait(ctx)
	cancel()
	wg.Wait()
	return results, err
}
