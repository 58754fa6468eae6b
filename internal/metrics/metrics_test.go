package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxFlow(t *testing.T) {
	stats := []TaskStat{
		{Name: "a", ArrivalSec: 0, CompletionSec: 10},
		{Name: "b", ArrivalSec: 5, CompletionSec: 30}, // flow 25
		{Name: "c", ArrivalSec: 0, CompletionSec: -1}, // unfinished: ignored
	}
	if got := MaxFlow(stats); got != 25 {
		t.Errorf("MaxFlow = %g, want 25", got)
	}
	if MaxFlow(nil) != 0 {
		t.Error("empty MaxFlow != 0")
	}
}

func TestMaxStretch(t *testing.T) {
	stats := []TaskStat{
		{Name: "a", ArrivalSec: 0, CompletionSec: 10}, // stretch 5
		{Name: "b", ArrivalSec: 0, CompletionSec: 12}, // stretch 3
	}
	iso := map[string]float64{"a": 2, "b": 4}
	got, err := MaxStretch(stats, iso)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("MaxStretch = %g, want 5", got)
	}
	if _, err := MaxStretch(stats, map[string]float64{"a": 2}); err == nil {
		t.Error("missing isolation time accepted")
	}
}

func TestAvgProcessTime(t *testing.T) {
	stats := []TaskStat{
		{ArrivalSec: 0, CompletionSec: 10},
		{ArrivalSec: 10, CompletionSec: 30},
		{ArrivalSec: 0, CompletionSec: -1},
	}
	if got := AvgProcessTime(stats); got != 15 {
		t.Errorf("AvgProcessTime = %g, want 15", got)
	}
	if AvgProcessTime(nil) != 0 {
		t.Error("empty avg != 0")
	}
	if CompletedCount(stats) != 2 {
		t.Errorf("CompletedCount = %d, want 2", CompletedCount(stats))
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentDecrease(100, 64); got != 36 {
		t.Errorf("PercentDecrease = %g, want 36 (the paper's headline)", got)
	}
	if got := PercentIncrease(100, 110); got != 10 {
		t.Errorf("PercentIncrease = %g, want 10", got)
	}
	if PercentDecrease(0, 5) != 0 || PercentIncrease(0, 5) != 0 {
		t.Error("zero base not handled")
	}
}

func TestThroughputOver(t *testing.T) {
	samples := []ThroughputSample{
		{AtSec: 0, Instructions: 0},
		{AtSec: 1, Instructions: 1000},
		{AtSec: 2, Instructions: 3000},
	}
	if got := ThroughputOver(samples, 0, 2); got != 1500 {
		t.Errorf("ThroughputOver = %g, want 1500", got)
	}
	// Interpolated half-window.
	if got := ThroughputOver(samples, 1, 2); got != 2000 {
		t.Errorf("ThroughputOver(1,2) = %g, want 2000", got)
	}
	if ThroughputOver(samples, 2, 2) != 0 {
		t.Error("empty window != 0")
	}
	if ThroughputOver(samples[:1], 0, 1) != 0 {
		t.Error("single sample != 0")
	}
}

func TestBoxStats(t *testing.T) {
	b := BoxStats([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("box = %+v", b)
	}
	if b.N != 5 {
		t.Errorf("N = %d", b.N)
	}
	single := BoxStats([]float64{7})
	if single.Min != 7 || single.Max != 7 || single.Median != 7 {
		t.Errorf("single box = %+v", single)
	}
	if BoxStats(nil) != (Box{}) {
		t.Error("empty box not zero")
	}
}

func TestBoxStatsOrderInvariant(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := BoxStats(xs)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		b := BoxStats(rev)
		return a == b && a.Min <= a.Q1 && a.Q1 <= a.Median && a.Median <= a.Q3 && a.Q3 <= a.Max
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	BoxStats(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("BoxStats sorted the caller's slice")
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean != 0")
	}
}

func TestFlowSecAndCompleted(t *testing.T) {
	ts := TaskStat{ArrivalSec: 3, CompletionSec: 10}
	if ts.FlowSec() != 7 || !ts.Completed() {
		t.Error("FlowSec/Completed wrong")
	}
	if (TaskStat{CompletionSec: -1}).Completed() {
		t.Error("unfinished task reported completed")
	}
}
