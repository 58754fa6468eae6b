package experiments

import (
	"math"
	"testing"

	"phasetune/internal/dist"
	"phasetune/internal/metrics"
	"phasetune/internal/sim"
)

// TestCellReductionMatchesPerSeedMean pins the reduction's arithmetic: a
// cell's mean is metrics.Mean over its seeds in order, bit for bit, and a
// comparison pairs each run with the same seed's baseline before averaging.
func TestCellReductionMatchesPerSeedMean(t *testing.T) {
	run := func(instrs uint64) *sim.Result { return &sim.Result{TotalInstructions: instrs} }
	base := cell{run(3), run(7), run(11)}
	c := cell{run(5), run(6), run(13)}
	instr := func(r *sim.Result) float64 { return float64(r.TotalInstructions) }

	want := metrics.Mean([]float64{5, 6, 13})
	if got := c.mean(instr); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got := c.sum(instr); got != 24 {
		t.Errorf("sum = %v, want 24", got)
	}
	want = metrics.Mean([]float64{
		metrics.PercentIncrease(3, 5), metrics.PercentIncrease(7, 6), metrics.PercentIncrease(11, 13),
	})
	if got := c.vs(base, instrPct); got != want {
		t.Errorf("vs = %v, want %v (seed-matched, then averaged)", got, want)
	}
}

// TestSeedGridIsCellMajor pins the layout sweepCells splits: every key's
// runs are adjacent, in seed order.
func TestSeedGridIsCellMajor(t *testing.T) {
	grid := seedGrid([]uint64{5, 42}, []int{1, 2, 3}, func(k int, seed uint64) dist.Spec {
		return dist.Spec{DurationSec: float64(k), Seed: seed}
	})
	if len(grid) != 6 {
		t.Fatalf("%d specs, want 6", len(grid))
	}
	for i, sp := range grid {
		if k, seed := float64(i/2+1), []uint64{5, 42}[i%2]; sp.DurationSec != k || sp.Seed != seed {
			t.Errorf("spec %d = (key %v, seed %d), want (%v, %d)", i, sp.DurationSec, sp.Seed, k, seed)
		}
	}
}

// TestMatchedAvgImprovementIsDeterministic requires the matched flow-time
// comparison to come out bit-identical on every call: the sums must follow
// a fixed order, not a map's iteration order, or mixed-magnitude flow times
// move MatchedAvgPct in its last bits from run to run.
func TestMatchedAvgImprovementIsDeterministic(t *testing.T) {
	const slots, perSlot = 12, 30
	var base, tuned []metrics.TaskStat
	for i := 0; i < slots*perSlot; i++ {
		slot := i % slots
		scale := math.Pow(10, float64(i%7)-3) // 1e-3 .. 1e3 seconds
		flow := scale * (1 + float64(i*7919%101)/37)
		end := -1.0 // every ninth job is still running
		if i%9 != 0 {
			end = float64(i) + flow
		}
		base = append(base, metrics.TaskStat{Slot: slot, ArrivalSec: float64(i), CompletionSec: end})
		tuned = append(tuned, metrics.TaskStat{Slot: slot, ArrivalSec: float64(i), CompletionSec: float64(i) + 0.9*flow})
	}
	want := math.Float64bits(matchedAvgImprovement(base, tuned))
	for call := 0; call < 50; call++ {
		if got := math.Float64bits(matchedAvgImprovement(base, tuned)); got != want {
			t.Fatalf("call %d: %v != %v", call, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}
