// Benchmarks comparing the sequential experiment loop (a fresh session per
// run, no artifact sharing) against the sweep engine (bounded worker pool plus
// content-keyed image cache) on the same technique grid, so BENCH_*.json
// tracks the win. The grid is the shape every experiment driver has: a few
// technique variants by a few workload seeds over one suite.
package phasetune_test

import (
	"context"
	"testing"

	"phasetune"
)

// benchSweepSpecs builds the shared grid: 3 technique variants x 2 seeds,
// 4-slot workloads over the full suite, 10 simulated seconds.
func benchSweepSpecs() []phasetune.RunSpec {
	variants := []phasetune.TechniqueParams{
		phasetune.BestParams(),
		{Technique: phasetune.BasicBlock, MinSize: 15, PropagateThroughUntyped: true},
		{Technique: phasetune.Interval, MinSize: 45, PropagateThroughUntyped: true},
	}
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		w := phasetune.WorkloadSpec{Slots: 4, QueueLen: 8, Seed: seed}
		for _, params := range variants {
			specs = append(specs, phasetune.RunSpec{
				Workload: w, DurationSec: 10, Policy: phasetune.PolicyStatic,
				Params: params, Seed: seed,
			})
		}
	}
	return specs
}

// BenchmarkGridSequential is the pre-sweep architecture: every run gets a
// fresh session, so it re-executes the full static pipeline for every
// benchmark in every run.
func BenchmarkGridSequential(b *testing.B) {
	specs := benchSweepSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := phasetune.NewSession().Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridSweep runs the identical grid through Session.Sweep: the
// runs fan across the worker pool and each distinct (benchmark, technique)
// artifact is prepared once per session — later sweeps of the campaign do
// no static-pipeline work at all.
func BenchmarkGridSweep(b *testing.B) {
	specs := benchSweepSpecs()
	sess := phasetune.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Sweep(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := sess.CacheStats()
	b.ReportMetric(float64(stats.Misses), "pipeline-runs")
	b.ReportMetric(float64(stats.Hits), "cache-hits")
}
