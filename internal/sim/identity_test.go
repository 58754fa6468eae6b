package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/phase"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// A run's Result must not depend on where its images and cost tables come
// from: private images, a shared image cache, or a concurrent sweep. These
// tests pin that the way the dist wire format does — by canonical JSON
// bytes.

var identityModes = []Mode{Baseline, Tuned, Dynamic, Oracle, Hybrid}

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

// TestImageSharingPropertyRandomConfigs drives random (policy, machine,
// arrivals, ledger, trace) combinations through both image sources and
// requires byte-identical results — and, when tracing, byte-identical
// trace files, since the cost tables may not be visible to observers:
// private images, each pricing from its own tables, and the shared cache,
// whose tables every earlier trial has already built and used.
func TestImageSharingPropertyRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	machines := []*amp.Machine{
		amp.Quad2Fast2Slow(),
		amp.ThreeCore2Fast1Slow(),
		amp.Hex2Big2Medium2Little(),
	}
	cache := NewImageCache()
	traceJSON := func(tr *trace.Tracer) []byte {
		if tr == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for trial := 0; trial < 10; trial++ {
		mode := identityModes[rng.Intn(len(identityModes))]
		machine := machines[rng.Intn(len(machines))]
		open := rng.Intn(2) == 1
		ledger := rng.Intn(2) == 1
		traced := rng.Intn(2) == 1
		seed := uint64(rng.Int63())
		name := fmt.Sprintf("trial%d_%s_open%v_ledger%v_trace%v", trial, mode, open, ledger, traced)
		t.Run(name, func(t *testing.T) {
			cfg := identityConfig(t, machine, mode, open, seed)
			cfg.Ledger = ledger
			cfg.DurationSec = 1 + rng.Float64()

			var want, wantTrace []byte
			for i, c := range []*ImageCache{nil, cache} {
				run := cfg
				run.Cache = c
				if traced {
					run.Trace = trace.New()
				}
				got := runBytes(t, run)
				gotTrace := traceJSON(run.Trace)
				if i == 0 {
					want, wantTrace = got, gotTrace
					continue
				}
				if !bytes.Equal(want, got) {
					t.Error("shared cache: result diverged from the private-image run")
				}
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Error("shared cache: trace diverged from the private-image run")
				}
			}
		})
	}
}

// TestSweepWorkersMatchSequential runs a grid through Sweep on four
// workers, twice, and requires the results to match a one-worker sweep —
// the concurrent, shared-cache configuration the experiment campaign uses.
func TestSweepWorkersMatchSequential(t *testing.T) {
	var grid []RunConfig
	for _, mode := range []Mode{Baseline, Tuned, Dynamic} {
		for seed := uint64(1); seed <= 2; seed++ {
			grid = append(grid, identityConfig(t, amp.Quad2Fast2Slow(), mode, false, seed))
		}
	}
	cache := NewImageCache()

	ctx := context.Background()
	want, err := Sweep(ctx, grid, SweepOptions{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := Sweep(ctx, grid, SweepOptions{Workers: 4, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if !bytes.Equal(resultBytes(t, want[i]), resultBytes(t, got[i])) {
				t.Errorf("pass %d grid[%d]: concurrent sweep diverged from sequential sweep", pass, i)
			}
		}
	}
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
