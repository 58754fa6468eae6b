package main

import (
	"fmt"
	"hash/fnv"

	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/summarize"
	"phasetune/internal/transition"
	wl "phasetune/internal/workload"
)

// pipeline holds one program's static-pipeline products, filled stage by
// stage. The stages are the ones sim.ImageCache runs inside one call
// (sim.Analyze, then Analysis.Instrument), split so each can be timed.
type pipeline struct {
	prog   *prog.Program
	spec   sim.ImageSpec
	cost   exec.CostModel
	graphs []*cfg.Graph
	cg     *cfg.CallGraph
	typing *phase.Typing
	sum    *summarize.Summary
	plan   *transition.Plan
	bin    *instrument.Binary
	img    *exec.Image
}

// stages lists the pipeline's stages in order; each reads only the
// products of the stages before it.
var stages = []struct {
	name string
	run  func(*pipeline) error
}{
	{"cfg.build", func(p *pipeline) (err error) {
		if p.graphs, err = cfg.BuildAll(p.prog); err == nil {
			p.cg = cfg.BuildCallGraph(p.prog, p.graphs)
		}
		return err
	}},
	{"phase.typing", func(p *pipeline) (err error) {
		p.typing, err = phase.ClusterBlocks(p.prog, p.graphs, p.spec.Typing)
		return err
	}},
	{"summarize.loops", func(p *pipeline) error {
		if p.spec.Params.Technique == transition.Loop {
			p.sum = summarize.SummarizeLoops(p.prog, p.graphs, p.cg, p.typing, summarize.DefaultWeights())
		}
		return nil
	}},
	{"transition.plan", func(p *pipeline) (err error) {
		p.plan, err = transition.ComputePlan(p.prog, p.graphs, p.cg, p.typing, p.sum, p.spec.Params)
		return err
	}},
	{"instrument.rewrite", func(p *pipeline) (err error) {
		p.bin, err = instrument.ApplyWithGraphs(p.prog, p.plan, p.graphs)
		return err
	}},
	{"exec.image", func(p *pipeline) (err error) {
		if p.bin == nil {
			p.img, err = exec.NewImage(p.prog, nil, p.cost)
		} else {
			p.img, err = exec.NewImage(p.bin.Prog, p.bin, p.cost)
		}
		return err
	}},
}

// imageKey identifies one prepared image by content, as sim.ImageCache
// keys it: a hash of the program's encoding, the image spec and the cost
// model. Machines that generate the same program share its images.
type imageKey struct {
	prog uint64
	spec sim.ImageSpec
	cost exec.CostModel
}

// imageJob is one distinct image a campaign prepares.
type imageJob struct {
	key   imageKey
	prog  *prog.Program
	where string // machine and benchmark, for error messages
}

// cellImages lists the images one lowered cell prepares, with the image
// spec sim.RunContext derives from the run mode. The campaign grids inject
// no typing error, so the error fields stay zero. hash returns a program's
// content hash.
func cellImages(rc sim.RunConfig, hash func(*prog.Program) (uint64, error)) ([]imageJob, error) {
	spec := sim.ImageSpec{Params: rc.Params, Typing: rc.TypingOpts}
	if rc.Mode == sim.Baseline || rc.Mode == sim.Dynamic {
		spec = sim.ImageSpec{Baseline: true}
	}
	var benches []*wl.Benchmark
	if rc.Stream != nil {
		benches = rc.Stream.Fleet
	} else {
		for _, slot := range rc.Workload.Slots {
			benches = append(benches, slot...)
		}
	}
	var jobs []imageJob
	for _, b := range benches {
		h, err := hash(b.Prog)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, imageJob{
			key:   imageKey{prog: h, spec: spec, cost: *rc.Cost},
			prog:  b.Prog,
			where: rc.Machine.Name + " " + b.Name(),
		})
	}
	return jobs, nil
}

// distinctImages lists the images of a set of cells once each, in first-use
// order.
func distinctImages(cells []sim.RunConfig) ([]imageJob, error) {
	hashes := map[*prog.Program]uint64{}
	hash := func(p *prog.Program) (uint64, error) {
		if h, ok := hashes[p]; ok {
			return h, nil
		}
		f := fnv.New64a()
		if err := prog.Encode(f, p); err != nil {
			return 0, fmt.Errorf("hashing %s: %w", p.Name, err)
		}
		hashes[p] = f.Sum64()
		return hashes[p], nil
	}
	seen := map[imageKey]bool{}
	var out []imageJob
	for _, rc := range cells {
		jobs, err := cellImages(rc, hash)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if !seen[j.key] {
				seen[j.key] = true
				out = append(out, j)
			}
		}
	}
	return out, nil
}

// stagesFor returns the stages an image runs: a baseline image skips the
// analysis and goes straight to image construction.
func stagesFor(spec sim.ImageSpec) []int {
	if spec.Baseline {
		return []int{len(stages) - 1}
	}
	all := make([]int, len(stages))
	for i := range all {
		all[i] = i
	}
	return all
}
