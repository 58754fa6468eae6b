// Command sweepd runs the distributed sweep fabric: a coordinator that
// serves an experiment campaign to workers over HTTP/JSON, and workers
// that lease, execute, and commit runs. The merged output is byte-identical
// to executing the same campaign sequentially in one process — sweepd can
// prove it to itself with -verify.
//
// Coordinator:
//
//	sweepd -coordinator [-addr 127.0.0.1:7077]
//	       [-campaign NAME] [-machine quad|tri|hex|<full machine name>]
//	       [-quick] [-slots N] [-duration SEC] [-seeds a,b,c]
//	       [-chunk N] [-lease-ttl 30s] [-spawn N] [-verify] [-out FILE]
//
// -campaign takes any name of the campaign registry in internal/experiments
// (showdown, grid, window, breakdown, serving, contention), cut for -machine.
//
// Worker:
//
//	sweepd -worker -connect http://127.0.0.1:7077 [-name NAME]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write Go pprof profiles of the worker
// process — the process that actually burns the simulation cycles, so
// that is where profiling answers "where does fabric wall-time go". Both
// paths are validated up front (like -out) and both flags are rejected
// in coordinator mode, whose process only shuffles JSON.
//
// -spawn N forks N worker subprocesses of this same binary against the
// coordinator, so a one-machine fleet is a single command:
//
//	sweepd -coordinator -campaign showdown -quick -spawn 3 -verify
//
// -verify reruns the campaign sequentially in-process after the fabric
// finishes and compares the canonical encodings byte for byte; any
// mismatch exits non-zero. Workers may also run on other machines —
// everything a run needs crosses the wire as plain JSON.
//
// While a campaign runs, the coordinator serves read-only introspection:
// GET /status returns campaign progress plus one row per worker (heartbeat
// age, commits, throughput), and GET /metrics exports the same counters in
// Prometheus text format — curl either to watch a fleet live.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"strings"
	"time"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/experiments"
	"phasetune/internal/prof"
	"phasetune/internal/sim"
)

func main() {
	var (
		coordinator = flag.Bool("coordinator", false, "run as coordinator")
		worker      = flag.Bool("worker", false, "run as worker")
		addr        = flag.String("addr", "127.0.0.1:7077", "coordinator listen address")
		connect     = flag.String("connect", "", "coordinator URL (worker mode)")
		name        = flag.String("name", "", "worker label")
		campaign    = flag.String("campaign", "showdown", "campaign to serve: "+strings.Join(experiments.Names(experiments.FabricCampaigns()), "|"))
		machineFlag = flag.String("machine", "quad", "campaign machine: quad|tri|hex (or a full machine name)")
		quick       = flag.Bool("quick", false, "shrink workloads for a fast pass")
		slots       = flag.Int("slots", 0, "workload slots (0 = default)")
		duration    = flag.Float64("duration", 0, "workload duration in simulated seconds (0 = default)")
		seedsFlag   = flag.String("seeds", "", "comma-separated workload seeds")
		chunk       = flag.Int("chunk", 1, "specs per lease")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat")
		spawn       = flag.Int("spawn", 0, "fork N local worker subprocesses")
		verify      = flag.Bool("verify", false, "rerun sequentially and require byte-identical results")
		out         = flag.String("out", "", "write merged results JSON to this path")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the worker process to this path")
		memprofile  = flag.String("memprofile", "", "write a heap profile of the worker process at exit to this path")
	)
	flag.Parse()

	var err error
	switch {
	case (*cpuprofile != "" || *memprofile != "") && !*worker:
		err = fmt.Errorf("-cpuprofile/-memprofile only apply in -worker mode (the worker process runs the simulations)")
	case *coordinator && !*worker:
		err = runCoordinator(coordOpts{
			addr: *addr, campaign: *campaign, machine: *machineFlag,
			quick: *quick, slots: *slots, duration: *duration, seeds: *seedsFlag,
			chunk: *chunk, leaseTTL: *leaseTTL, spawn: *spawn, verify: *verify, out: *out,
		})
	case *worker && !*coordinator:
		if *connect == "" {
			err = fmt.Errorf("-worker needs -connect URL")
		} else {
			err = runWorker(*connect, *name, *cpuprofile, *memprofile)
		}
	default:
		err = fmt.Errorf("pick exactly one of -coordinator or -worker")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

type coordOpts struct {
	addr, campaign, machine, seeds, out string
	quick                               bool
	slots                               int
	duration                            float64
	chunk, spawn                        int
	leaseTTL                            time.Duration
	verify                              bool
}

// buildCampaign resolves the campaign and the machine through their
// registries and cuts the campaign's grid from the configuration.
func buildCampaign(o coordOpts) (dist.Campaign, error) {
	c, err := experiments.Lookup(experiments.FabricCampaigns(), o.campaign)
	if err != nil {
		return dist.Campaign{}, err
	}
	m, err := amp.ByName(o.machine)
	if err != nil {
		return dist.Campaign{}, err
	}
	cfg, err := experiments.FlagConfig(o.quick, o.slots, o.duration, o.seeds)
	if err != nil {
		return dist.Campaign{}, err
	}
	return c.Build(cfg, m), nil
}

func runCoordinator(o coordOpts) error {
	camp, err := buildCampaign(o)
	if err != nil {
		return err
	}
	total := len(camp.Specs)
	coord, err := dist.NewCoordinator(camp, dist.Options{
		ChunkSize: o.chunk,
		LeaseTTL:  o.leaseTTL,
		OnResult: func(index int, res *sim.Result) {
			fmt.Printf("sweepd: spec %d/%d committed (%d tasks)\n", index+1, total, len(res.Tasks))
		},
	})
	if err != nil {
		return err
	}

	var workers []*osexec.Cmd
	_, err = dist.Serve(context.Background(), coord, o.addr, func(addr string) error {
		url := "http://" + addr
		fmt.Printf("sweepd: coordinating %q (%d specs) on %s\n", o.campaign, total, url)
		fmt.Printf("sweepd: introspection at %s/status (JSON) and %s/metrics (Prometheus text)\n", url, url)
		if o.spawn == 0 {
			return nil
		}
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		for i := 0; i < o.spawn; i++ {
			cmd := osexec.Command(exe, "-worker", "-connect", url, "-name", fmt.Sprintf("spawn-%d", i))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn worker %d: %w", i, err)
			}
			workers = append(workers, cmd)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Serve returns once every registered worker heard "done" (bounded);
	// collect the spawned subprocesses.
	for i, cmd := range workers {
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("spawned worker %d: %w", i, err)
		}
	}
	raws, err := coord.RawResults()
	if err != nil {
		return err
	}
	p := coord.Progress()
	fmt.Printf("sweepd: campaign complete: %d specs, %d workers, %d expired leases, %d duplicate commits\n",
		p.Done, p.Workers, p.ExpiredLeases, p.DuplicateCommits)

	if o.out != "" {
		blob, err := json.MarshalIndent(raws, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("sweepd: wrote %s\n", o.out)
	}
	if o.verify {
		return verifyAgainstSequential(camp, raws)
	}
	return nil
}

// verifyAgainstSequential reruns the campaign in-process and demands the
// fabric's committed bytes match the sequential encodings exactly — the
// deterministic-merge contract, checked end to end.
func verifyAgainstSequential(camp dist.Campaign, raws []json.RawMessage) error {
	suite, err := camp.Env.Suite()
	if err != nil {
		return err
	}
	cache := sim.NewImageCache()
	for i, sp := range camp.Specs {
		cfg, err := camp.Env.RunConfig(sp, suite, cache)
		if err != nil {
			return fmt.Errorf("verify spec %d: %w", i, err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("verify spec %d: %w", i, err)
		}
		want, err := dist.EncodeResult(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, raws[i]) {
			return fmt.Errorf("verify spec %d: fabric result differs from sequential run", i)
		}
	}
	fmt.Printf("sweepd: verified %d fabric results byte-identical to sequential runs\n", len(raws))
	return nil
}

func runWorker(url, name, cpuprofile, memprofile string) error {
	stopProfiles, err := prof.Start("sweepd", cpuprofile, memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	w := &dist.Worker{Name: name, Transport: &dist.Client{BaseURL: url}}
	fmt.Printf("sweepd: worker %q connecting to %s\n", name, url)
	if err := w.Run(context.Background()); err != nil {
		return err
	}
	fmt.Printf("sweepd: worker %q done\n", name)
	return nil
}
