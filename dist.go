package phasetune

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"phasetune/internal/dist"
	"phasetune/internal/sim"
)

// This file is the public surface of the distributed sweep fabric
// (internal/dist): campaigns shard across worker processes and merge
// byte-identically to a single-process Sweep. Serve runs a coordinator,
// Work runs a worker, and Session.SweepSharded runs the whole fabric
// in-process (no sockets) — the cheap way to put idle cores behind a
// campaign while keeping the distributed code path exercised.

// ErrNeedQueues reports a spec that cannot cross a process boundary;
// SweepSharded and Serve wrap it per offending spec (match with
// errors.Is).
var ErrNeedQueues = fmt.Errorf("distributed sweeps need serializable specs: set RunSpec.Queues (a WorkloadSpec), not a built Workload")

// campaign lowers run specs onto the wire format: the session environment
// plus one serializable spec per run, with policies lowered exactly as
// RunContext lowers them — which is why the fabric's merged output is
// byte-identical to a local Sweep of the same specs.
func (s *Session) campaign(specs []RunSpec) (dist.Campaign, error) {
	camp := dist.Campaign{
		Env: dist.EnvSpec{Version: dist.SpecVersion, Machine: *s.machine, Cost: s.cost,
			Sched: s.sched, Typing: s.typing},
	}
	camp.Specs = make([]dist.Spec, len(specs))
	for i, spec := range specs {
		queues := spec.Queues
		if spec.Arrivals != nil {
			if spec.Workload != nil || queues != nil {
				return dist.Campaign{}, fmt.Errorf("spec %d: RunSpec.Arrivals is mutually exclusive with Workload and Queues", i)
			}
			// Arrivals specs are serializable by construction: lower them to
			// the same wire form RunContext resolves them to.
			queues = &WorkloadSpec{Seed: spec.Seed, Arrivals: spec.Arrivals}
		}
		if spec.Workload != nil || queues == nil {
			return dist.Campaign{}, fmt.Errorf("spec %d: %w", i, ErrNeedQueues)
		}
		mode, params, tcfg, ocfg, pcfg := s.lower(spec)
		camp.Specs[i] = dist.Spec{
			Queues:      *queues,
			DurationSec: spec.DurationSec,
			Mode:        mode,
			Params:      params,
			Tuning:      tcfg,
			Online:      ocfg,
			Placement:   pcfg,
			TypingError: spec.TypingError,
			Seed:        spec.Seed,
		}
	}
	return camp, nil
}

// SweepSharded is Sweep through the distributed fabric, entirely
// in-process: the grid is lowered to the wire format, sharded across
// `shards` workers (each with its own artifact cache, as separate worker
// processes would have), and merged deterministically. The result slice is
// byte-identical to Sweep's — the property the fabric's tests pin down.
// Specs must be serializable (Queues, not Workload).
func (s *Session) SweepSharded(ctx context.Context, specs []RunSpec, shards int) ([]*RunResult, error) {
	camp, err := s.campaign(specs)
	if err != nil {
		return nil, err
	}
	return dist.RunLocal(ctx, camp, dist.LocalOptions{Workers: shards})
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: dist.NewHandler(coord)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}

	results, err := coord.Wait(ctx)
	// Keep answering polls briefly so workers hear "done" and exit clean
	// instead of dying on a closed socket.
	quiesce := time.Now().Add(3 * time.Second)
	for !coord.Quiesced() && time.Now().Before(quiesce) && ctx.Err() == nil {
		time.Sleep(20 * time.Millisecond)
	}
	return results, err
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
