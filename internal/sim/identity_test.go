package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/phase"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// A run's Result must not depend on the deprecated memo fields. The test
// pins that the way the dist wire format does — by canonical JSON bytes.
// That it depends on nothing else outside its wire spec (image source,
// observers, scheduling) is checked on generated campaigns by
// internal/dist FuzzRunInvariants.

// identityConfig builds one run cell. Closed cells draw a slot-queue workload
// from the suite; open cells materialize a Poisson stream, which runs under
// the overcommit dispatcher like every open run.
func identityConfig(t testing.TB, machine *amp.Machine, mode Mode, open bool, seed uint64) RunConfig {
	t.Helper()
	cost := exec.DefaultCostModel()
	cfg := RunConfig{
		Machine:     machine,
		Cost:        &cost,
		DurationSec: 2,
		Mode:        mode,
		Params:      transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true},
		TypingOpts:  phase.Options{K: 2, MinBlockInstrs: 5},
		Seed:        seed,
	}
	if open {
		stream, err := workload.Spec{
			Seed:     seed,
			Arrivals: &workload.ArrivalSpec{Kind: workload.Poisson, RatePerSec: 3, HorizonSec: 1.5},
		}.MaterializeOpen(cost, machine)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stream = stream
	} else {
		suite, err := workload.Suite(cost, machine)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = workload.Spec{Slots: 2, QueueLen: 2, Seed: seed}.Build(suite)
	}
	return cfg
}

// resultBytes canonically encodes a run result — the same identity the
// dist layer commits to its result files.
func resultBytes(t testing.TB, res *Result) []byte {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func runBytes(t testing.TB, cfg RunConfig) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res)
}

// TestMemoFieldsIgnored pins the deprecated memo fields: a run or a sweep
// carrying a memo gives the same bytes as one without, and the memo
// records nothing.
func TestMemoFieldsIgnored(t *testing.T) {
	grid := []RunConfig{
		identityConfig(t, amp.Quad2Fast2Slow(), Tuned, false, 3),
		identityConfig(t, amp.Hex2Big2Medium2Little(), Hybrid, true, 4),
	}
	memo := exec.NewSegmentMemo(0)
	ctx := context.Background()
	want, err := Sweep(ctx, grid, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(ctx, grid, SweepOptions{Workers: 2, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range grid {
		cfg.Memo = memo
		ref := resultBytes(t, want[i])
		if !bytes.Equal(ref, resultBytes(t, got[i])) || !bytes.Equal(ref, runBytes(t, cfg)) {
			t.Errorf("grid[%d]: a memo changed the result", i)
		}
	}
	if st := memo.Stats(); st != (exec.MemoStats{}) {
		t.Errorf("memo recorded %+v", st)
	}
}
