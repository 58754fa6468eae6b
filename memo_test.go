package phasetune_test

import (
	"context"
	"testing"

	"phasetune"
)

// TestSessionMemoInvisibleAndWarm pins the public memo contract: sessions
// carry no memo by default, one attached with WithSegmentMemo gives the
// same bytes cold and warm, warm reruns replay from cache, and a memo
// shared across sessions (with the image cache that anchors its lanes)
// carries its outcomes over.
func TestSessionMemoInvisibleAndWarm(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepGrid(t, suite)
	ctx := context.Background()

	bare := phasetune.NewSession(phasetune.WithWorkers(2))
	if bare.Memo() != nil {
		t.Fatal("default session carries a memo")
	}
	want, err := bare.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	sess := phasetune.NewSession(phasetune.WithSegmentMemo(phasetune.NewSegmentMemo(0)), phasetune.WithWorkers(2))
	cold, err := sess.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		ref := encode(t, want[i])
		if got := encode(t, cold[i]); string(got) != string(ref) {
			t.Errorf("spec %d: cold memoized result differs from default run", i)
		}
		if got := encode(t, warm[i]); string(got) != string(ref) {
			t.Errorf("spec %d: warm memoized result differs from default run", i)
		}
	}
	stats := sess.MemoStats()
	if stats.Hits == 0 || stats.ReplayedSteps == 0 {
		t.Errorf("warm sweep never replayed: %+v", stats)
	}
	if stats.HitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", stats.HitRate())
	}

	// A session adopting the first session's memo and image cache starts
	// warm: its first sweep replays outcomes recorded by the other session.
	adopted := phasetune.NewSession(
		phasetune.WithSegmentMemo(sess.Memo()),
		phasetune.WithCache(sess.Cache()),
		phasetune.WithWorkers(2),
	)
	before := sess.Memo().Stats().Hits
	again, err := adopted.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got := encode(t, again[i]); string(got) != string(encode(t, want[i])) {
			t.Errorf("spec %d: adopted-memo result differs", i)
		}
	}
	if after := adopted.MemoStats().Hits; after <= before {
		t.Errorf("adopted memo gained no hits (%d -> %d)", before, after)
	}
}

// TestMemoCountersPinned runs a small grid sequentially and pins every
// counter of an attached memo, for the default bound and for a bound the
// grid fills. The
// grid runs one workload under policies that share images, so chunks
// recorded by one cell replay in the next; a sequential sweep makes the
// counts deterministic. A change to chunk boundaries, lookup cadence or
// state keys shows here even when every Result byte holds.
func TestMemoCountersPinned(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	w := phasetune.NewWorkload(suite, 4, 8, 1)
	var specs []phasetune.RunSpec
	for _, pol := range []phasetune.Policy{
		phasetune.PolicyNone, phasetune.PolicyStatic, phasetune.PolicyStaticSpill,
		phasetune.PolicyDynamicGreedy, phasetune.PolicyHybrid,
	} {
		specs = append(specs, phasetune.RunSpec{Workload: w, DurationSec: 15, Policy: pol, Params: phasetune.BestParams(), Seed: 1})
	}
	for _, tc := range []struct {
		name string
		memo *phasetune.SegmentMemo
		want phasetune.MemoStats
	}{
		{"default", phasetune.NewSegmentMemo(0), phasetune.MemoStats{
			Lanes: 28, Chunks: 7212, Limit: 262144, Hits: 1348, Misses: 7212,
			ReplayedSteps: 252532, RecordedSteps: 1397802,
		}},
		{"full", phasetune.NewSegmentMemo(2000), phasetune.MemoStats{
			Lanes: 28, Chunks: 2000, Limit: 2000, Hits: 337, Misses: 8187,
			ReplayedSteps: 66967, RecordedSteps: 413406,
		}},
	} {
		sess := phasetune.NewSession(phasetune.WithSegmentMemo(tc.memo), phasetune.WithWorkers(1))
		if _, err := sess.Sweep(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if got := sess.MemoStats(); got != tc.want {
			t.Errorf("%s memo counters:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
