package main

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/experiments"
	"phasetune/internal/place"
	"phasetune/internal/reuse"
	"phasetune/internal/sim"
	"phasetune/internal/trace"
	"phasetune/internal/tuning"
)

// Sinks keep the compiler from discarding the probed calls.
var (
	sinkDecision place.Decision
	sinkTypes    []amp.CoreTypeID
	sinkStep     exec.StepResult
)

// nsPerOp is a probe's mean time per operation, unrounded.
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func allocsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.MemAllocs) / float64(r.N)
}

// runProbes measures the workload-independent layer probes: the six
// pipeline stages, the interpreter, the placement engine, and the three
// observers. Each testing.Benchmark loop runs for -test.benchtime; the
// observer comparison runs the representative contention cell of size sz
// reps times per setting.
func runProbes(ctx context.Context, sz size, reps int) (map[string]float64, error) {
	m := map[string]float64{}
	cfg, err := experiments.Default()
	if err != nil {
		return nil, err
	}
	if err := pipelineProbes(m, cfg); err != nil {
		return nil, err
	}
	if err := execProbes(m, cfg); err != nil {
		return nil, err
	}
	placeProbes(m)
	if err := observerProbes(ctx, m, cfg, sz, reps); err != nil {
		return nil, err
	}
	return m, nil
}

// pipelineProbes times each pipeline stage over the whole suite under the
// paper's best technique, Loop[45]. Stage i's loop runs after stages
// 0..i-1 have filled its inputs.
func pipelineProbes(m map[string]float64, cfg experiments.Config) error {
	spec := sim.ImageSpec{Params: experiments.BestParams(), Typing: cfg.Typing}
	pipes := make([]*pipeline, len(cfg.Suite))
	for i, b := range cfg.Suite {
		pipes[i] = &pipeline{prog: b.Prog, spec: spec, cost: cfg.Cost}
	}
	for _, st := range stages {
		var err error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && err == nil; i++ {
				for _, p := range pipes {
					if err = st.run(p); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", st.name, err)
		}
		m[st.name+"_ms"] = nsPerOp(r) / 1e6
	}
	return nil
}

// execProbes times the interpreter on the suite's first program, baseline
// image, on the quad's fast core: a plain step, a step recorded into the
// segment memo on a fresh lane, and a step replayed from a warmed lane.
func execProbes(m map[string]float64, cfg experiments.Config) error {
	cost := cfg.Cost
	img, err := exec.NewImage(cfg.Suite[0].Prog, nil, cost)
	if err != nil {
		return err
	}
	pars := exec.ParamsFor(cost, cfg.Machine)
	par := &pars[0]
	fastPs := par.PsPerCycle
	for _, p := range pars {
		fastPs = min(fastPs, p.PsPerCycle)
	}
	const shareKB = 4096
	// laneSteps is how many steps one lane records before the probe starts
	// a fresh one, and the length of the replayed pass.
	const laneSteps = 1 << 14

	r := testing.Benchmark(func(b *testing.B) {
		seed := uint64(1)
		p := exec.NewProcess(1, img, &cost, seed, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p.Exited() {
				seed++
				p = exec.NewProcess(1, img, &cost, seed, nil)
			}
			sinkStep = p.Step(par, 0, shareKB)
		}
	})
	m["exec.step_ns"] = nsPerOp(r)
	m["exec.step_allocs"] = allocsPerOp(r)

	r = testing.Benchmark(func(b *testing.B) {
		seed := uint64(1)
		var p *exec.Process
		var lane *exec.Lane
		steps := laneSteps
		for i := 0; i < b.N; i++ {
			if steps == laneSteps || p.Exited() {
				p = exec.NewProcess(1, img, &cost, seed, nil)
				seed++
				p.EnableMemo()
				lane = exec.NewSegmentMemo(0).LaneFor(p, par, shareKB, fastPs)
				steps = 0
			}
			if p.Advance(lane, math.MaxInt64) == 0 {
				sinkStep = p.StepLane(lane, 0)
			}
			steps++
		}
	})
	m["exec.record_ns_per_step"] = nsPerOp(r)

	// Record one pass, then time passes that replay it from the same start.
	memo := exec.NewSegmentMemo(0)
	first := exec.NewProcess(1, img, &cost, 7, nil)
	first.EnableMemo()
	lane := memo.LaneFor(first, par, shareKB, fastPs)
	var cycles int64
	for steps := 0; steps < laneSteps && !first.Exited(); steps++ {
		if c := first.Advance(lane, math.MaxInt64); c > 0 {
			cycles += c
			continue
		}
		cycles += first.StepLane(lane, 0).Cycles
	}
	first.EndSlice()
	pass := func() (native int) {
		p := exec.NewProcess(1, img, &cost, 7, nil)
		p.EnableMemo()
		for used := int64(0); used < cycles && !p.Exited(); {
			if c := p.Advance(lane, math.MaxInt64); c > 0 {
				used += c
				continue
			}
			used += p.StepLane(lane, 0).Cycles
			native++
		}
		p.EndSlice()
		return native
	}
	before := memo.Stats()
	native := pass()
	steps := native + int(memo.Stats().ReplayedSteps-before.ReplayedSteps)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	m["exec.replay_ns_per_step"] = nsPerOp(r) / float64(steps)
	return nil
}

// placeProbes times the placement engine on the hex machine: Algorithm 2
// on one IPC vector, and arbitration of a 12-claim set (twice the hex's
// cores, half of them DRAM streamers) unpriced and contention-priced.
func placeProbes(m map[string]float64) {
	machine := amp.Hex2Big2Medium2Little()
	delta := tuning.DefaultConfig().Delta
	unpriced := place.NewEngine(machine, delta, place.Config{})
	priced := place.NewEngine(machine, delta, place.Config{Contention: &place.ContentionConfig{}})
	ipcs := [][]float64{{1.4, 1.1, 0.8}, {0.6, 0.58, 0.55}, {1.0, 0.9, 0.85}}
	claims := make([]place.Claim, 12)
	for i := range claims {
		dec := unpriced.Decide(ipcs[i%len(ipcs)])
		if i%2 == 0 {
			dec.Mem = &place.MemStats{L2RefsPerInstr: 0.25, Profile: reuse.Profile{WorkingSetKB: 3072, Locality: 0.9}}
		}
		claims[i] = place.Claim{Dec: &dec, Prev: dec.Choice, HasPrev: i%3 == 0}
	}

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDecision = unpriced.Decide(ipcs[i%len(ipcs)])
		}
	})
	m["place.decide_ns"] = nsPerOp(r)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTypes = unpriced.Arbitrate(claims)
		}
	})
	m["place.arbitrate_ns"] = nsPerOp(r)
	m["place.arbitrate_allocs"] = allocsPerOp(r)
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTypes = priced.Arbitrate(claims)
		}
	})
	m["place.arbitrate_priced_ns"] = nsPerOp(r)
}

// observerProbes runs the representative contention cell — the first
// machine's priced hybrid cell on the first default seed — with every
// observer off, then with the ledger, the program's tracer, and the
// cache-residency map each on alone. Runs share a warm image cache and no
// segment memo, so each one simulates in full. An observer must not
// change the result: once its own field is stripped, every run encodes to
// the same bytes.
func observerProbes(ctx context.Context, m map[string]float64, cfg experiments.Config, sz size, reps int) error {
	w, err := workloadByName("contention")
	if err != nil {
		return err
	}
	camp := w.campaigns(cfg, inputs{seeds: defaultSeeds[:1]}, sz)[0]
	idx := -1
	for i, sp := range camp.Specs {
		if sp.Mode == sim.Hybrid && sp.Placement.Contention != nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("contention grid has no priced hybrid cell")
	}
	env := camp.Env
	env.Ledger = false
	suite, err := env.Suite()
	if err != nil {
		return err
	}
	base, err := env.RunConfig(camp.Specs[idx], suite, sim.NewImageCache())
	if err != nil {
		return err
	}
	base.CacheStats = false
	settings := []struct {
		metric string
		on     func(*sim.RunConfig)
	}{
		{"", func(*sim.RunConfig) {}},
		{"ledger.overhead_pct", func(rc *sim.RunConfig) { rc.Ledger = true }},
		{"trace.overhead_pct", func(rc *sim.RunConfig) { rc.Trace = trace.New() }},
		{"cache.stats_overhead_pct", func(rc *sim.RunConfig) { rc.CacheStats = true }},
	}
	run := func(on func(*sim.RunConfig)) (time.Duration, string, error) {
		rc := base
		on(&rc)
		t0 := time.Now()
		res, err := sim.RunContext(ctx, rc)
		d := time.Since(t0)
		if err != nil {
			return 0, "", err
		}
		res.Ledger, res.CacheStats = nil, nil
		raw, err := dist.EncodeResult(res)
		return d, digest(raw), err
	}
	// The first run fills the image cache and fixes the expected bytes.
	_, want, err := run(settings[0].on)
	if err != nil {
		return err
	}
	secs := make([][]float64, len(settings))
	for r := 0; r < reps; r++ {
		for i, s := range settings {
			d, got, err := run(s.on)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("observer %q changed the representative cell's result", s.metric)
			}
			secs[i] = append(secs[i], d.Seconds())
		}
	}
	off := median(secs[0])
	for i, s := range settings[1:] {
		m[s.metric] = 100 * (median(secs[i+1])/off - 1)
	}
	return nil
}
