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
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/trace"
	"phasetune/internal/transition"
	"phasetune/internal/workload"
)

// The segment memo's contract is invisibility: a memoized run's Result is
// byte-identical to an unmemoized one, cold cache or warm, across every
// policy, machine, and system mode. These tests pin that contract the same
// way the dist wire format does — by canonical JSON bytes.

var memoModes = []Mode{Baseline, Tuned, Dynamic, Oracle, Hybrid}

func memoMachines() map[string]*amp.Machine {
	return map[string]*amp.Machine{
		"quad2f2s":  amp.Quad2Fast2Slow(),
		"three2f1s": amp.ThreeCore2Fast1Slow(),
		"hex2b2m2l": amp.Hex2Big2Medium2Little(),
	}
}

// memoConfig builds one run cell. Closed cells draw a slot-queue workload
// from the suite; open cells materialize a Poisson stream and enable the
// overcommit dispatcher the way serving experiments do.
func memoConfig(t testing.TB, machine *amp.Machine, mode Mode, open bool, seed uint64) RunConfig {
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
		sched := osched.DefaultConfig()
		sched.Overcommit.Enabled = true
		cfg.Stream = stream
		cfg.Sched = &sched
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

func runBytes(t testing.TB, cfg RunConfig, memo *exec.SegmentMemo) []byte {
	t.Helper()
	cfg.Memo = memo
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res)
}

// TestMemoGoldenIdentity is the tentpole guarantee: across all five
// policies, three machines, and closed/open system modes, a memoized run —
// cold cache and warm — produces a Result byte-identical to an unmemoized
// run. Ledger accounting is on everywhere so conserved cycle attribution
// is part of the pinned bytes.
func TestMemoGoldenIdentity(t *testing.T) {
	cache := NewImageCache()
	for mname, machine := range memoMachines() {
		for _, mode := range memoModes {
			for _, open := range []bool{false, true} {
				sys := "closed"
				if open {
					sys = "open"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", mname, mode, sys), func(t *testing.T) {
					cfg := memoConfig(t, machine, mode, open, 11)
					cfg.Ledger = true
					cfg.Cache = cache

					plain := runBytes(t, cfg, nil)
					memo := exec.NewSegmentMemo(0)
					cold := runBytes(t, cfg, memo)
					warm := runBytes(t, cfg, memo)

					if !bytes.Equal(plain, cold) {
						t.Errorf("cold memoized result diverged from unmemoized run")
					}
					if !bytes.Equal(plain, warm) {
						t.Errorf("warm memoized result diverged from unmemoized run")
					}
					stats := memo.Stats()
					if stats.Hits == 0 {
						t.Errorf("warm rerun never hit the memo: %+v", stats)
					}
				})
			}
		}
	}
}

// TestMemoFullIdentity runs every policy through a memo that fills within
// the first run, the state every campaign grid reaches at the default
// bound: once full, the memo only counts the steps of new recordings, and
// results must still be byte-identical, cold and warm.
func TestMemoFullIdentity(t *testing.T) {
	cache := NewImageCache()
	for _, mode := range memoModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := memoConfig(t, amp.Hex2Big2Medium2Little(), mode, false, 13)
			cfg.Ledger = true
			cfg.Cache = cache

			plain := runBytes(t, cfg, nil)
			memo := exec.NewSegmentMemo(32)
			cold := runBytes(t, cfg, memo)
			full := memo.Stats()
			warm := runBytes(t, cfg, memo)

			if !bytes.Equal(plain, cold) || !bytes.Equal(plain, warm) {
				t.Fatalf("full memo changed the result (cold equal %v, warm equal %v)",
					bytes.Equal(plain, cold), bytes.Equal(plain, warm))
			}
			st := memo.Stats()
			if full.Fill() != 1 || st.Chunks != full.Chunks || st.RecordedSteps != full.RecordedSteps {
				t.Errorf("memo not full, or kept chunks once full: after cold %+v, after warm %+v", full, st)
			}
			if st.Hits == 0 {
				t.Errorf("full memo served no hits: %+v", st)
			}
		})
	}
}

// TestMemoPropertyRandomConfigs drives random (policy, machine, arrivals,
// ledger, trace) combinations through the three lane sources and requires
// byte-identical results — and, when tracing, byte-identical trace files,
// since neither the tables nor the memo may be visible to observers: no
// cache and no memo (private images, each pricing from its own tables),
// the shared cache (the default: tables shared with every earlier trial),
// and the shared cache with a memo.
func TestMemoPropertyRandomConfigs(t *testing.T) {
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
		mode := memoModes[rng.Intn(len(memoModes))]
		machine := machines[rng.Intn(len(machines))]
		open := rng.Intn(2) == 1
		ledger := rng.Intn(2) == 1
		traced := rng.Intn(2) == 1
		seed := uint64(rng.Int63())
		name := fmt.Sprintf("trial%d_%s_open%v_ledger%v_trace%v", trial, mode, open, ledger, traced)
		t.Run(name, func(t *testing.T) {
			cfg := memoConfig(t, machine, mode, open, seed)
			cfg.Ledger = ledger
			cfg.DurationSec = 1 + rng.Float64()

			var want, wantTrace []byte
			for i, way := range []struct {
				name  string
				cache *ImageCache
				memo  *exec.SegmentMemo
			}{
				{"private images", nil, nil},
				{"shared cache", cache, nil},
				{"shared cache and memo", cache, exec.NewSegmentMemo(0)},
			} {
				c := cfg
				c.Cache = way.cache
				if traced {
					c.Trace = trace.New()
				}
				got := runBytes(t, c, way.memo)
				gotTrace := traceJSON(c.Trace)
				if i == 0 {
					want, wantTrace = got, gotTrace
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s: result diverged from the private-image run", way.name)
				}
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Errorf("%s: trace diverged from the private-image run", way.name)
				}
			}
		})
	}
}

// TestMemoCacheReuse mirrors the image-cache tests: a cold memo records
// without hitting, an identical rerun replays from cache, and distinct
// specs neither collide nor leak each other's outcomes.
func TestMemoCacheReuse(t *testing.T) {
	cfg := memoConfig(t, amp.Quad2Fast2Slow(), Tuned, false, 5)
	// Memo lanes key on artifact identity, so cross-run reuse requires the
	// runs to draw their images from one shared cache (sessions, sweeps,
	// and dist workers all do).
	cfg.Cache = NewImageCache()
	memo := exec.NewSegmentMemo(0)

	cold := runBytes(t, cfg, memo)
	stats := memo.Stats()
	if stats.Hits != 0 {
		t.Errorf("cold run reported %d hits, want 0", stats.Hits)
	}
	if stats.Misses == 0 || stats.RecordedSteps == 0 {
		t.Errorf("cold run recorded nothing: %+v", stats)
	}

	warm := runBytes(t, cfg, memo)
	wstats := memo.Stats()
	if wstats.Hits == 0 || wstats.ReplayedSteps == 0 {
		t.Errorf("warm rerun replayed nothing: %+v", wstats)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm rerun diverged from cold run")
	}

	// A different spec sharing the memo must produce its own result — the
	// cache may only serve outcomes keyed to identical execution state.
	other := memoConfig(t, amp.Quad2Fast2Slow(), Tuned, false, 6)
	otherMemoized := runBytes(t, other, memo)
	otherPlain := runBytes(t, other, nil)
	if !bytes.Equal(otherMemoized, otherPlain) {
		t.Error("cross-spec reuse perturbed the result")
	}
	if bytes.Equal(otherMemoized, cold) {
		t.Error("distinct seeds produced identical results; memo leaked outcomes across specs")
	}
}

// TestMemoSweepShared runs a grid through Sweep with one shared memo and
// requires the results to match a memo-free sequential sweep — the
// concurrent, shared-cache configuration the experiment campaign uses.
func TestMemoSweepShared(t *testing.T) {
	var grid []RunConfig
	for _, mode := range []Mode{Baseline, Tuned, Dynamic} {
		for seed := uint64(1); seed <= 2; seed++ {
			grid = append(grid, memoConfig(t, amp.Quad2Fast2Slow(), mode, false, seed))
		}
	}
	cache := NewImageCache()

	ctx := context.Background()
	plain, err := Sweep(ctx, grid, SweepOptions{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	memo := exec.NewSegmentMemo(0)
	memoized, err := Sweep(ctx, grid, SweepOptions{Workers: 4, Cache: cache, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := Sweep(ctx, grid, SweepOptions{Workers: 4, Cache: cache, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		want := resultBytes(t, plain[i])
		if got := resultBytes(t, memoized[i]); !bytes.Equal(want, got) {
			t.Errorf("grid[%d]: concurrent memoized sweep diverged from sequential memo-free sweep", i)
		}
		if got := resultBytes(t, rerun[i]); !bytes.Equal(want, got) {
			t.Errorf("grid[%d]: warm memoized sweep diverged", i)
		}
	}
}
