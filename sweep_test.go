package phasetune_test

import (
	"context"
	"encoding/json"
	"testing"

	"phasetune"
)

// sweepGrid is a small but representative spec grid: two seeds, baseline
// plus two technique families, exercising shared-workload comparisons and
// distinct artifacts.
func sweepGrid() []phasetune.RunSpec {
	loop45 := phasetune.BestParams()
	bb15 := phasetune.TechniqueParams{Technique: phasetune.BasicBlock, MinSize: 15, PropagateThroughUntyped: true}
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		w := phasetune.WorkloadSpec{Slots: 4, QueueLen: 8, Seed: seed}
		specs = append(specs,
			phasetune.RunSpec{Workload: w, DurationSec: 15, Policy: phasetune.PolicyNone, Seed: seed},
			phasetune.RunSpec{Workload: w, DurationSec: 15, Policy: phasetune.PolicyStatic, Params: loop45, Seed: seed},
			phasetune.RunSpec{Workload: w, DurationSec: 15, Policy: phasetune.PolicyStatic, Params: bb15, Seed: seed},
		)
	}
	return specs
}

// encode canonicalizes a run result for byte comparison (JSON encodes maps
// with sorted keys, so identical results give identical bytes).
func encode(t testing.TB, res *phasetune.RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepMatchesSequentialRun asserts the acceptance property of the
// sweep engine: for a fixed grid, Sweep over a concurrent worker pool with
// a shared artifact cache returns results byte-identical to the equivalent
// sequential loop over one fresh session per run (which shares nothing and
// re-runs the static pipeline every time).
func TestSweepMatchesSequentialRun(t *testing.T) {
	specs := sweepGrid()

	// Sequential reference: nothing shared between runs.
	var want [][]byte
	for _, spec := range specs {
		res, err := phasetune.NewSession().Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, encode(t, res))
	}

	// Concurrent sweep with artifact sharing.
	sess := phasetune.NewSession(phasetune.WithWorkers(4))
	results, err := sess.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("sweep returned %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if got := encode(t, res); string(got) != string(want[i]) {
			t.Errorf("spec %d: sweep result differs from sequential run", i)
		}
	}

	// A second sweep of the same grid must be deterministic too (and now
	// fully cache-served).
	again, err := sess.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if got := encode(t, res); string(got) != string(want[i]) {
			t.Errorf("spec %d: repeated sweep result differs", i)
		}
	}
}

// TestSweepInstrumentsOncePerBenchmarkTechnique asserts the cache
// guarantee: across a whole sweep campaign, the static pipeline runs
// exactly once per distinct (benchmark, image spec) pair, no matter how
// many runs and seeds consume the artifacts.
func TestSweepInstrumentsOncePerBenchmarkTechnique(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	specs := sweepGrid()

	// Expected pipeline executions: distinct (benchmark, kind) pairs over
	// the grid, where kind is baseline or the technique params. Error
	// injection is off, so seeds do not split artifacts.
	type pairKey struct {
		bench  string
		params phasetune.TechniqueParams
		base   bool
	}
	distinct := map[pairKey]bool{}
	requests := 0
	for _, spec := range specs {
		seen := map[string]bool{}
		for _, slot := range spec.Workload.Build(suite).Slots {
			for _, b := range slot {
				if seen[b.Name()] {
					continue
				}
				seen[b.Name()] = true
				requests++
				distinct[pairKey{b.Name(), spec.Params, spec.Policy == phasetune.PolicyNone}] = true
			}
		}
	}

	sess := phasetune.NewSession(phasetune.WithWorkers(8))
	if _, err := sess.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	stats := sess.CacheStats()
	if int(stats.Misses) != len(distinct) {
		t.Errorf("static pipeline ran %d times, want one per distinct pair = %d",
			stats.Misses, len(distinct))
	}
	if int(stats.Hits) != requests-len(distinct) {
		t.Errorf("cache hits = %d, want %d (of %d image requests)",
			stats.Hits, requests-len(distinct), requests)
	}

	// Replaying the whole campaign must add zero pipeline runs.
	if _, err := sess.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if after := sess.CacheStats(); after.Misses != stats.Misses {
		t.Errorf("replay ran the pipeline %d more times", after.Misses-stats.Misses)
	}
}

// TestRunContextCancellation asserts a cancelled context aborts a run.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := phasetune.NewSession()
	_, err := sess.RunContext(ctx, phasetune.RunSpec{
		Workload: phasetune.WorkloadSpec{Slots: 4, QueueLen: 8, Seed: 1}, DurationSec: 1000, Seed: 1,
	})
	if err != context.Canceled {
		t.Fatalf("RunContext with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestStagedPipelineMatchesInstrument asserts the staged API composes to
// the session's cached preparation of the same image.
func TestStagedPipelineMatchesInstrument(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	p := suite[0].Prog
	cost := phasetune.DefaultCost()

	cached, err := phasetune.NewSession().Instrument(p, phasetune.BestParams())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := cached.Image, cached.Stats
	analysis, err := phasetune.Analyze(p, phasetune.DefaultTyping())
	if err != nil {
		t.Fatal(err)
	}
	art, err := analysis.Instrument(phasetune.BestParams(), cost)
	if err != nil {
		t.Fatal(err)
	}
	if art.Stats != stats {
		t.Errorf("staged stats %+v != session stats %+v", art.Stats, stats)
	}
	if art.Image.NumMarks() != img.NumMarks() {
		t.Errorf("staged image has %d marks, session image %d", art.Image.NumMarks(), img.NumMarks())
	}

	// One analysis serves multiple techniques.
	bb, err := analysis.Instrument(phasetune.TechniqueParams{
		Technique: phasetune.BasicBlock, MinSize: 15, PropagateThroughUntyped: true,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Stats == art.Stats {
		t.Error("distinct techniques produced identical stats (suspicious)")
	}
}
