package exec

import (
	"testing"

	"phasetune/internal/amp"
)

// TestMemoShimIsNoOp pins the deprecated memo names: LaneFor returns the
// image lane, Advance replays nothing, and StepLane steps exactly as Step.
func TestMemoShimIsNoOp(t *testing.T) {
	img := nestedImage(t, 50)
	cm := DefaultCostModel()
	ps := ParamsFor(cm, amp.Quad2Fast2Slow())
	// A share below the program's 512 KB working set, so the cache share
	// changes what every memory block costs.
	par, shareKB := &ps[1], 128.0
	shim := NewProcess(1, img, &cm, 3, nil)
	ref := NewProcess(1, img, &cm, 3, nil)
	shim.EnableMemo()
	lane := NewSegmentMemo(0).LaneFor(shim, par, shareKB, ps[0].PsPerCycle)
	if want := ref.Lane(par, shareKB, ps[0].PsPerCycle); lane != want {
		t.Fatalf("LaneFor returned %p, image lane %p", lane, want)
	}
	for !ref.Exited() {
		if c := shim.Advance(lane, 1<<40); c != 0 {
			t.Fatalf("Advance replayed %d cycles", c)
		}
		if got, want := shim.StepLane(lane, 0), ref.Step(par, 0, shareKB); got != want {
			t.Fatalf("StepLane returned %+v, Step %+v", got, want)
		}
	}
	shim.EndSlice()
	if !shim.Exited() || shim.Counters != ref.Counters {
		t.Fatalf("StepLane left counters %+v, Step %+v", shim.Counters, ref.Counters)
	}
	if st := NewSegmentMemo(0).Stats(); st != (MemoStats{}) || st.HitRate() != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}
