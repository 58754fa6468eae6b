package sim

import (
	"context"
	"runtime"
	"sync"

	"phasetune/internal/exec"
)

// SweepOptions configures a concurrent sweep.
type SweepOptions struct {
	// Workers bounds the worker pool; <=0 uses GOMAXPROCS.
	Workers int
	// Cache, when set, is injected into every run that does not already
	// carry one, so the whole sweep shares prepared images.
	Cache *ImageCache
	// Memo is ignored: the segment memo is gone.
	//
	// Deprecated: kept until bench/ drops it.
	Memo *exec.SegmentMemo
	// Events, when set, is injected into every run that does not already
	// carry hooks.
	Events Events
	// OnDone, when set, fires after each run completes (from the worker's
	// goroutine; index is the run's position in the input grid).
	OnDone func(index int, res *Result, err error)
}

// Sweep executes a grid of runs across a bounded worker pool and returns
// results in input order. Each run is a pure function of its RunConfig, so
// the result slice is deterministic — bit-identical to executing the same
// configs sequentially with Run — regardless of worker count or completion
// order. The first error (by input order) aborts outstanding work and is
// returned.
func Sweep(ctx context.Context, grid []RunConfig, opts SweepOptions) ([]*Result, error) {
	results := make([]*Result, len(grid))
	err := ForEach(ctx, len(grid), opts.Workers, func(i int) error {
		cfg := grid[i]
		if cfg.Cache == nil {
			cfg.Cache = opts.Cache
		}
		if cfg.Events.OnImage == nil && cfg.Events.OnProgress == nil {
			cfg.Events = opts.Events
		}
		res, err := RunContext(ctx, cfg)
		if opts.OnDone != nil {
			opts.OnDone(i, res, err)
		}
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach runs f(0..n-1) across a bounded worker pool, honoring ctx. Once
// any call fails, no new work starts; among the errors actually observed,
// the lowest-indexed one is returned.
func ForEach(ctx context.Context, n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		errIndex = n
		next     int
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || failed() {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < errIndex {
						firstErr, errIndex = err, i
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
