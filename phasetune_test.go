package phasetune_test

import (
	"testing"

	"phasetune"
)

// TestPublicPipeline exercises the full public API end to end: build a
// program, instrument it, run baseline-vs-tuned on a workload, and compute
// the paper's metrics.
func TestPublicPipeline(t *testing.T) {
	b := phasetune.NewProgram("api-demo")
	main := b.Proc("main")
	main.Loop(30, func(pb *phasetune.ProcBuilder) {
		pb.Straight(phasetune.BlockMix{IntALU: 2})
		pb.Loop(200, func(pb *phasetune.ProcBuilder) {
			pb.Straight(phasetune.BlockMix{IntALU: 30, IntMul: 8})
			pb.Straight(phasetune.BlockMix{IntALU: 16})
		})
		pb.Loop(80, func(pb *phasetune.ProcBuilder) {
			pb.Straight(phasetune.BlockMix{Load: 18, Store: 8, IntALU: 6, WorkingSetKB: 3072, Locality: 0.94})
			pb.Straight(phasetune.BlockMix{Load: 10, Store: 4, IntALU: 4, WorkingSetKB: 2048, Locality: 0.95})
		})
	})
	main.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	analysis, err := phasetune.Analyze(p, phasetune.DefaultTyping())
	if err != nil {
		t.Fatal(err)
	}
	art, err := analysis.Instrument(phasetune.BestParams(), phasetune.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := art.Image, art.Stats
	if stats.Marks == 0 {
		t.Fatal("no phase marks for a two-phase program")
	}
	if img.NumMarks() != stats.Marks {
		t.Error("image mark table inconsistent with stats")
	}
	if stats.SpaceOverhead <= 0 {
		t.Error("no space overhead recorded")
	}
}

func TestPublicSuiteAndWorkload(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 15 {
		t.Fatalf("suite has %d members", len(suite))
	}
	w := phasetune.WorkloadSpec{Slots: 4, QueueLen: 8, Seed: 1}
	res, err := phasetune.NewSession().Run(phasetune.RunSpec{Workload: w, DurationSec: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) < 4 {
		t.Errorf("only %d tasks spawned", len(res.Tasks))
	}
	if res.TotalInstructions == 0 {
		t.Error("no instructions committed")
	}
	_ = phasetune.AvgProcessTime(res.Tasks)
	_ = phasetune.MaxFlow(res.Tasks)
}

func TestPublicSelect(t *testing.T) {
	m := phasetune.QuadAMP()
	// Memory-bound signature: slow core wins by more than delta.
	if got := phasetune.Select(m, []float64{0.3, 0.45}, 0.06); int(got) != 1 {
		t.Errorf("Select = %d, want slow (1)", got)
	}
	// Compute signature: tie goes to fast.
	if got := phasetune.Select(m, []float64{2.2, 2.2}, 0.06); int(got) != 0 {
		t.Errorf("Select = %d, want fast (0)", got)
	}
}

func TestPublicMachines(t *testing.T) {
	for _, m := range []*phasetune.Machine{
		phasetune.QuadAMP(), phasetune.ThreeCoreAMP(), phasetune.SymmetricMachine(4, 2.0),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestDefaultExperimentsConfig(t *testing.T) {
	cfg, err := phasetune.DefaultExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Slots != 18 || cfg.DurationSec != 800 {
		t.Errorf("default experiments config: slots=%d duration=%g", cfg.Slots, cfg.DurationSec)
	}
	if len(cfg.Suite) != 15 {
		t.Errorf("suite size %d", len(cfg.Suite))
	}
}
