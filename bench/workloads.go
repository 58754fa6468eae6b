package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/experiments"
	"phasetune/internal/sim"
)

// sweepWorkers is the closed-loop client count of every workload: two
// workers each pull the next cell of the grid when their previous one
// finishes, one per CPU of the 2-CPU host the benchmark was sized on.
const sweepWorkers = 2

// workload is one campaign grid. A grid is one campaign per machine, built
// by the experiments package's campaign builders and run one machine after
// another, as the experiments drivers run them.
type workload struct {
	name        string
	machines    func() []*amp.Machine
	build       func(experiments.Config, *amp.Machine) dist.Campaign
	slots       int
	durationSec float64
	// ledger turns on cycle accounting for every cell (EnvSpec.Ledger).
	ledger bool
	// fabric serves the grid over HTTP to dist.Workers instead of sim.Sweep.
	fabric bool
	// sameGridAs names the workload whose grid this one runs, if any; the
	// two must produce byte-identical cells.
	sameGridAs string
}

// gridName names the workload's grid: its own name unless it reruns
// another's.
func (w workload) gridName() string {
	if w.sameGridAs != "" {
		return w.sameGridAs
	}
	return w.name
}

// workloads are the benchmark's grids; README.md says why each exists.
var workloads = []workload{
	{name: "showdown", machines: experiments.ShowdownMachines, build: experiments.ShowdownCampaign,
		slots: 18, durationSec: 200},
	// The serving horizon is half the others' so that one rep of the
	// 100-cell grid takes about as long as one rep of the others.
	{name: "serving", machines: experiments.ServingMachines, build: experiments.ServingCampaign,
		slots: 18, durationSec: 100},
	{name: "contention", machines: experiments.ContentionMachines, build: experiments.ContentionCampaign,
		slots: 12, durationSec: 200, ledger: true},
	// The showdown grid again: the difference between the two is the
	// fabric's cost.
	{name: "fabric", machines: experiments.ShowdownMachines, build: experiments.ShowdownCampaign,
		slots: 18, durationSec: 200, fabric: true, sameGridAs: "showdown"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size shrinks a grid. The zero size is the full grid; only the self-test
// runs a smaller one.
type size struct {
	machines    int
	slots       int
	durationSec float64
}

// inputs selects a grid's inputs. The campaign builders draw the workload
// queues and arrival schedules from seeds, which also seed the processes'
// branch streams. run offsets every cell's process seed: a held-out run
// takes other paths through the same jobs, so the job mix, and with it
// most of a grid's cost, stays fixed across runs.
type inputs struct {
	seeds []uint64
	run   uint64
}

// campaigns builds the workload's per-machine campaigns.
func (w workload) campaigns(cfg experiments.Config, in inputs, sz size) []dist.Campaign {
	cfg.Slots, cfg.DurationSec, cfg.Seeds, cfg.Ledger = w.slots, w.durationSec, in.seeds, w.ledger
	if sz.slots > 0 {
		cfg.Slots = sz.slots
	}
	if sz.durationSec > 0 {
		cfg.DurationSec = sz.durationSec
	}
	machines := w.machines()
	if sz.machines > 0 && sz.machines < len(machines) {
		machines = machines[:sz.machines]
	}
	camps := make([]dist.Campaign, len(machines))
	for i, m := range machines {
		camps[i] = w.build(cfg, m)
		for j := range camps[i].Specs {
			camps[i].Specs[j].Seed += in.run
		}
	}
	return camps
}

// cellLabel names one cell for failure messages: its machine and the
// policy its spec encodes.
func cellLabel(camp dist.Campaign, sp dist.Spec) string {
	s := sp.Mode.String()
	if sp.Mode == sim.Dynamic {
		s += "/" + sp.Online.Policy.String()
	}
	if sp.Tuning.Spill {
		s += "/spill"
	}
	if sp.Online.Hybrid.Drift > 0 {
		s += "/damped"
	}
	if sp.Placement.Contention != nil {
		s += " priced"
	}
	if a := sp.Queues.Arrivals; a != nil {
		s += fmt.Sprintf(" rate=%.3g/s", a.RatePerSec)
	}
	return fmt.Sprintf("%s %s seed=%d", camp.Env.Machine.Name, s, sp.Seed)
}

// repReport is one rep of one workload, run in a fresh process.
type repReport struct {
	Workload string `json:"workload"`
	// SetupSec runs from process start until the grid is ready to run.
	SetupSec float64 `json:"setup_s"`
	// WallSec runs from the first cell submitted to the last result merged.
	WallSec      float64 `json:"wall_s"`
	CPUSec       float64 `json:"cpu_s"`
	Instructions uint64  `json:"instructions"`
	Mallocs      uint64  `json:"mallocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	HeapBytes    uint64  `json:"heap_retained_bytes"`
	// Digests holds each cell's sha256 of dist.EncodeResult in grid order,
	// "" for a cell that did not run.
	Digests []string `json:"digests"`
	// Errors names the cells that failed to run or failed Ledger.Verify.
	Errors []string `json:"errors,omitempty"`
	// Layers holds a traced rep's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// usage is a point-in-time reading of the process's CPU and allocation
// counters.
type usage struct {
	at  time.Time
	cpu float64
	mem runtime.MemStats
}

func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// measure fills the report's resource metrics from the campaign window.
func (rep *repReport) measure(from, to usage) {
	rep.CPUSec = to.cpu - from.cpu
	rep.Mallocs = to.mem.Mallocs - from.mem.Mallocs
	rep.AllocBytes = to.mem.TotalAlloc - from.mem.TotalAlloc
}

// retainedHeap is the live heap after a full collection; the caller keeps
// whatever the campaign holds (cache, memo, results) reachable across it.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// record checks one cell's result and stores its digest; a cell that fails
// a check keeps an empty digest.
func (rep *repReport) record(i int, label string, res *sim.Result) {
	rep.Instructions += res.TotalInstructions
	if res.Ledger != nil {
		if err := res.Ledger.Verify(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("cell %d (%s): %v", i, label, err))
			return
		}
	}
	raw, err := dist.EncodeResult(res)
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("cell %d (%s): encode: %v", i, label, err))
		return
	}
	rep.Digests[i] = digest(raw)
}

// lowered is one campaign lowered onto the simulator.
type lowered struct {
	camp dist.Campaign
	cfgs []sim.RunConfig
}

// lower rebuilds each campaign's suite and lowers every cell, as a fabric
// worker or the experiments drivers do before running it.
func lower(camps []dist.Campaign, rec *recorder, parent int) ([]lowered, error) {
	out := make([]lowered, len(camps))
	for i, camp := range camps {
		id := rec.begin("workload.suite", parent)
		suite, err := camp.Env.Suite()
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: suite: %w", camp.Env.Machine.Name, err)
		}
		out[i].camp = camp
		out[i].cfgs = make([]sim.RunConfig, len(camp.Specs))
		for j, sp := range camp.Specs {
			id := rec.begin("workload.materialize", parent)
			rc, err := camp.Env.RunConfig(sp, suite, nil)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cellLabel(camp, sp), err)
			}
			out[i].cfgs[j] = rc
		}
	}
	return out, nil
}

// runRep runs one rep of the workload in this process. start is when the
// process started; rec, when non-nil, records spans and the rep's
// per-layer metrics.
func runRep(ctx context.Context, w workload, in inputs, sz size, start time.Time, rec *recorder) (*repReport, error) {
	root := rec.begin("campaign", 0)
	id := rec.begin("workload.default", root)
	cfg, err := experiments.Default()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	camps := w.campaigns(cfg, in, sz)
	n := 0
	for _, c := range camps {
		n += len(c.Specs)
	}
	rep := &repReport{Workload: w.name, Digests: make([]string, n)}
	if w.fabric {
		err = runFabric(ctx, camps, rep, start, rec, root)
	} else {
		err = runSweep(ctx, camps, cfg.Cache, cfg.Memo, rep, start, rec, root)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runSweep runs the grid with sim.Sweep, one machine after another, over
// one image cache and one segment memo, as cmd/experiments does.
func runSweep(ctx context.Context, camps []dist.Campaign, cache *sim.ImageCache, memo *exec.SegmentMemo,
	rep *repReport, start time.Time, rec *recorder, root int) error {

	grids, err := lower(camps, rec, root)
	if err != nil {
		return err
	}
	rep.SetupSec = time.Since(start).Seconds()

	before := readUsage()
	var primed uint64
	if rec != nil {
		if primed, err = primeImages(grids, cache, rec, root); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	results := make([][]*sim.Result, len(grids))
	cellMs := make([][]float64, len(grids))
	for i, g := range grids {
		results[i], cellMs[i], err = sweep(ctx, g.cfgs, cache, memo, rec, root)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", g.camp.Env.Machine.Name, err))
		}
	}
	after := readUsage()
	if rec != nil {
		if err := checkPrimed(cache, primed); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	rec.end(root)
	rep.WallSec = after.at.Sub(before.at).Seconds()
	rep.measure(before, after)

	base := 0
	for i, g := range grids {
		for j, res := range results[i] {
			rep.record(base+j, cellLabel(g.camp, g.camp.Specs[j]), res)
		}
		base += len(g.cfgs)
	}
	rep.HeapBytes = retainedHeap()
	if rec != nil {
		rep.Layers, err = sweepLayers(ctx, grids, results, cellMs, rep.Digests, cache, memo, before, after, rec, root)
	}
	runtime.KeepAlive(cache)
	runtime.KeepAlive(memo)
	runtime.KeepAlive(results)
	return err
}

// sweep runs one machine's grid on sweepWorkers workers. Untraced, it is
// sim.Sweep itself; traced, it is the same 2-worker sim.ForEach over
// sim.RunContext with a span per cell. It returns nil results if any cell
// failed, as sim.Sweep does.
func sweep(ctx context.Context, grid []sim.RunConfig, cache *sim.ImageCache, memo *exec.SegmentMemo,
	rec *recorder, root int) ([]*sim.Result, []float64, error) {

	if rec == nil {
		res, err := sim.Sweep(ctx, grid, sim.SweepOptions{Workers: sweepWorkers, Cache: cache, Memo: memo})
		return res, nil, err
	}
	parent := rec.begin("sim.sweep", root)
	defer rec.end(parent)
	results := make([]*sim.Result, len(grid))
	cellMs := make([]float64, len(grid))
	err := sim.ForEach(ctx, len(grid), sweepWorkers, func(i int) error {
		cfg := grid[i]
		cfg.Cache, cfg.Memo = cache, memo
		id := rec.begin("sim.cell", parent)
		res, err := sim.RunContext(ctx, cfg)
		cellMs[i] = rec.end(id)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, cellMs, err
	}
	return results, cellMs, nil
}

// fabricServer is one machine's campaign served over HTTP.
type fabricServer struct {
	coord *dist.Coordinator
	srv   *http.Server
	url   string
	done  chan struct{}
}

// runFabric serves each machine's campaign from an in-process coordinator
// over HTTP on 127.0.0.1 to sweepWorkers dist.Workers, one machine after
// another, as cmd/sweepd serves one campaign per coordinator.
func runFabric(ctx context.Context, camps []dist.Campaign, rep *repReport, start time.Time, rec *recorder, root int) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sweepWorkers}}
	defer client.CloseIdleConnections()
	servers := make([]*fabricServer, 0, len(camps))
	defer func() {
		for _, s := range servers {
			s.srv.Close()
			<-s.done
		}
	}()
	for _, camp := range camps {
		coord, err := dist.NewCoordinator(camp, dist.Options{})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s := &fabricServer{coord: coord, srv: &http.Server{Handler: dist.NewHandler(coord)},
			url: "http://" + ln.Addr().String(), done: make(chan struct{})}
		go func() {
			defer close(s.done)
			_ = s.srv.Serve(ln) // returns http.ErrServerClosed once closed
		}()
		servers = append(servers, s)
	}
	rep.SetupSec = time.Since(start).Seconds()

	before := readUsage()
	var wall time.Duration
	results := make([][]*sim.Result, len(servers))
	transports := make([][]*timedTransport, len(servers))
	for i, s := range servers {
		parent := rec.begin("dist.serve", root)
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, sweepWorkers)
		for k := 0; k < sweepWorkers; k++ {
			var tr dist.Transport = &dist.Client{BaseURL: s.url, HTTPClient: client}
			worker := 0
			if rec != nil {
				worker = rec.begin("sim.worker", parent)
				tt := newTimedTransport(tr, rec, worker)
				transports[i] = append(transports[i], tt)
				tr = tt
			}
			w := &dist.Worker{Name: fmt.Sprintf("bench%d", k), Transport: tr}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = w.Run(ctx)
				rec.end(worker)
			}()
		}
		// As dist.RunLocal does: if every worker exits with work left, fail
		// the campaign rather than wait for commits no one will send.
		exited := make(chan struct{})
		go func() {
			wg.Wait()
			s.coord.Abort(errors.Join(append(errs, errors.New("all workers exited"))...))
			close(exited)
		}()
		res, err := s.coord.Wait(ctx)
		wall += time.Since(t0)
		<-exited
		rec.end(parent)
		name := camps[i].Env.Machine.Name
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		results[i] = res
	}
	after := readUsage()
	rec.end(root)
	rep.WallSec = wall.Seconds()
	rep.measure(before, after)

	raws := make([][]json.RawMessage, len(servers))
	base := 0
	for i, s := range servers {
		if results[i] != nil {
			rs, err := s.coord.RawResults()
			if err != nil {
				return err
			}
			raws[i] = rs
			for j, raw := range rs {
				label := cellLabel(camps[i], camps[i].Specs[j])
				rep.record(base+j, label, results[i][j])
				if d := rep.Digests[base+j]; d != "" && d != digest(raw) {
					rep.Errors = append(rep.Errors, fmt.Sprintf("cell %d (%s): committed bytes differ from their re-encoding", base+j, label))
					rep.Digests[base+j] = ""
				}
			}
		}
		base += len(camps[i].Specs)
	}
	rep.HeapBytes = retainedHeap()
	if rec != nil {
		layers, err := fabricLayers(ctx, camps, results, raws, transports, before, after, rec, root)
		if err != nil {
			return err
		}
		rep.Layers = layers
	}
	runtime.KeepAlive(results)
	return nil
}
