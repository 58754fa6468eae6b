package phasetune

import (
	"context"
	"fmt"

	"phasetune/internal/sim"
)

// Sweep executes a grid of run specs across the session's bounded worker
// pool and returns results in input order. Results are deterministic: each
// run is a pure function of its spec and the session environment, so the
// returned slice is bit-identical to calling RunContext on each spec
// sequentially — regardless of worker count or completion order. All runs
// share the session artifact cache, so each distinct (benchmark, technique)
// pair is instrumented exactly once per sweep campaign.
//
// The first error (among observed failures, lowest input index) cancels
// outstanding work and is returned.
//
// Session event hooks (WithEvents) fire from each run's worker goroutine,
// so during a sweep they run concurrently and carry no run identity; hooks
// must be safe for concurrent use.
func (s *Session) Sweep(ctx context.Context, specs []RunSpec) ([]*RunResult, error) {
	grid := make([]sim.RunConfig, len(specs))
	for i, spec := range specs {
		cfg, err := s.runConfig(spec)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		grid[i] = cfg
	}
	return sim.Sweep(ctx, grid, sim.SweepOptions{Workers: s.workers})
}
