package phasetune

import (
	"context"
	"fmt"
	"time"

	"phasetune/internal/dist"
	"phasetune/internal/sim"
)

// This file is the public surface of the distributed sweep fabric
// (internal/dist): campaigns shard across worker processes and merge
// byte-identically to a single-process Sweep. Serve runs a coordinator and
// Work runs a worker; cmd/sweepd wraps both. The fabric runs multi-process
// only: in-process sharding never beat Session.Sweep, so the protocol's
// in-process transport (dist.RunLocal) is kept as a test harness.

// campaign lowers run specs onto the wire format: the session environment
// plus one wire spec per run, lowered exactly as a local run is
// (Session.wireSpec).
func (s *Session) campaign(specs []RunSpec) (dist.Campaign, error) {
	camp := dist.Campaign{Env: s.env(), Specs: make([]dist.Spec, len(specs))}
	for i, spec := range specs {
		sp, err := s.wireSpec(spec)
		if err != nil {
			return dist.Campaign{}, fmt.Errorf("spec %d: %w", i, err)
		}
		camp.Specs[i] = sp
	}
	return camp, nil
}

// ServeOptions configures a fabric coordinator.
type ServeOptions struct {
	// Addr is the TCP listen address (default "127.0.0.1:7077"; use an
	// ":0" port to let the kernel pick and read it back via OnListen).
	Addr string
	// ChunkSize is how many specs one lease grants (default 1).
	ChunkSize int
	// LeaseTTL is how long a worker may go without heartbeating before
	// its uncommitted specs are re-dispatched (default 30s).
	LeaseTTL time.Duration
	// OnResult streams each completed run with its input index, as commits
	// land (concurrently with other commits).
	OnResult func(index int, res *RunResult)
	// OnListen reports the bound listen address before serving begins.
	OnListen func(addr string)
}

// Serve runs a sweep campaign as a distributed-fabric coordinator: it
// serves the grid to workers (phasetune.Work, or `sweepd -worker`) over
// HTTP/JSON, re-dispatches work lost to dead workers, and blocks until
// every spec has committed — returning results in input order,
// byte-identical to Sweep on the same session. Cancel ctx to abort.
func Serve(ctx context.Context, sess *Session, specs []RunSpec, opts ServeOptions) ([]*RunResult, error) {
	camp, err := sess.campaign(specs)
	if err != nil {
		return nil, err
	}
	var onResult func(int, *sim.Result)
	if opts.OnResult != nil {
		onResult = func(i int, res *sim.Result) { opts.OnResult(i, res) }
	}
	coord, err := dist.NewCoordinator(camp, dist.Options{
		ChunkSize: opts.ChunkSize, LeaseTTL: opts.LeaseTTL, OnResult: onResult,
	})
	if err != nil {
		return nil, err
	}

	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:7077"
	}
	var onListen func(string) error
	if opts.OnListen != nil {
		onListen = func(addr string) error { opts.OnListen(addr); return nil }
	}
	return dist.Serve(ctx, coord, addr, onListen)
}

// WorkOptions configures a fabric worker.
type WorkOptions struct {
	// Name labels the worker in coordinator-assigned IDs.
	Name string
	// RegisterWait bounds how long registration retries while the
	// coordinator is not up yet (default 30s).
	RegisterWait time.Duration
}

// Work runs a fabric worker against a coordinator URL until the campaign
// completes. The worker rebuilds the whole session environment — machine,
// cost model, scheduler, typing, benchmark suite — from the coordinator's
// serialized environment spec, and keeps one artifact cache warm across
// every lease it executes.
func Work(ctx context.Context, coordinatorURL string, opts WorkOptions) error {
	w := &dist.Worker{
		Name:      opts.Name,
		Transport: &dist.Client{BaseURL: coordinatorURL, RegisterWait: opts.RegisterWait},
	}
	return w.Run(ctx)
}
