package sim_test

import (
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/serve"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// TestOvercommitFollowsOpenRuns pins the derived overcommit rule on a plain
// environment (no scheduler config): an open run is exactly a run whose
// kernel uses the proportional-share dispatcher, so at 1× load or more its
// oversubscribed types shorten slices, while a closed run with more slots
// than cores round-robins full timeslices.
func TestOvercommitFollowsOpenRuns(t *testing.T) {
	machine := amp.Quad2Fast2Slow()
	cost := exec.DefaultCostModel()
	for _, load := range []float64{1, 1.5} {
		arr := serve.Arrivals(machine, workload.Poisson, load, 12)
		stream, err := workload.Spec{Seed: 3, Arrivals: &arr}.MaterializeOpen(cost, machine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.RunConfig{Machine: machine, Cost: &cost, Stream: stream,
			DurationSec: 16, Mode: sim.Baseline, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakRunnable <= machine.NumCores() || res.OvercommitSlices == 0 {
			t.Errorf("open run at %g× load: peak runnable %d on %d cores, %d shortened slices; want an oversubscribed run with slices > 0",
				load, res.PeakRunnable, machine.NumCores(), res.OvercommitSlices)
		}
	}

	suite, err := workload.Suite(cost, machine)
	if err != nil {
		t.Fatal(err)
	}
	slots := 2 * machine.NumCores()
	res, err := sim.Run(sim.RunConfig{Machine: machine, Cost: &cost,
		Workload:    workload.Spec{Slots: slots, QueueLen: 2, Seed: 3}.Build(suite),
		DurationSec: 4, Mode: sim.Baseline, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakRunnable != slots || res.OvercommitSlices != 0 {
		t.Errorf("closed run with %d slots on %d cores: peak runnable %d, %d shortened slices; want %d and 0",
			slots, machine.NumCores(), res.PeakRunnable, res.OvercommitSlices, slots)
	}
}
