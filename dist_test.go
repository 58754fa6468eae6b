package phasetune_test

import (
	"context"
	"sync"
	"testing"

	"phasetune"
)

// shardedGrid mirrors sweepGrid in serializable form: Queues instead of a
// built Workload, plus dynamic- and hybrid-policy cells so policy
// resolution (and the placement engine) crosses the wire too.
func shardedGrid() []phasetune.RunSpec {
	loop45 := phasetune.BestParams()
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		q := &phasetune.WorkloadSpec{Slots: 3, QueueLen: 4, Seed: seed}
		specs = append(specs,
			phasetune.RunSpec{Queues: q, DurationSec: 5, Policy: phasetune.PolicyNone, Seed: seed},
			phasetune.RunSpec{Queues: q, DurationSec: 5, Policy: phasetune.PolicyStatic, Params: loop45, Seed: seed},
			phasetune.RunSpec{Queues: q, DurationSec: 5, Policy: phasetune.PolicyDynamicProbe, Seed: seed},
			phasetune.RunSpec{Queues: q, DurationSec: 5, Policy: phasetune.PolicyHybrid, Seed: seed},
		)
	}
	return specs
}

// TestSweepShardedMatchesSweep is the public fabric contract: the sharded
// sweep (wire specs, per-worker caches, deterministic merge) returns
// results byte-identical to the local Sweep of the same specs.
func TestSweepShardedMatchesSweep(t *testing.T) {
	specs := shardedGrid()
	sess := phasetune.NewSession()
	want, err := sess.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		got, err := phasetune.NewSession().SweepSharded(context.Background(), specs, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if string(encode(t, got[i])) != string(encode(t, want[i])) {
				t.Errorf("shards=%d: spec %d differs from Sweep", shards, i)
			}
		}
	}
}

// TestHybridShardedCampaignGolden is the golden contract for the new
// policy: a PolicyHybrid campaign sharded across the fabric — per-worker
// caches, wire-format specs, placement engines rebuilt on each worker —
// merges byte-identically to running the same specs sequentially through
// RunContext. The hybrid runtime spans both hook planes (marks and the
// kernel monitor), so this pins that the whole engine-backed path is a
// pure function of its spec.
func TestHybridShardedCampaignGolden(t *testing.T) {
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{3, 9} {
		specs = append(specs, phasetune.RunSpec{
			Queues:      &phasetune.WorkloadSpec{Slots: 4, QueueLen: 4, Seed: seed},
			DurationSec: 8, Policy: phasetune.PolicyHybrid, Seed: seed,
		})
	}
	sess := phasetune.NewSession(phasetune.WithMachine(phasetune.TriTypeAMP()))
	var want []string
	for _, spec := range specs {
		res, err := sess.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(encode(t, res)))
	}
	for _, shards := range []int{2, 3} {
		got, err := phasetune.NewSession(phasetune.WithMachine(phasetune.TriTypeAMP())).
			SweepSharded(context.Background(), specs, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range got {
			if string(encode(t, got[i])) != want[i] {
				t.Errorf("shards=%d: hybrid spec %d differs from sequential run", shards, i)
			}
		}
	}
}

// TestServingShardedCampaignGolden pins the open-system serving form's
// fabric contract: Arrivals specs — fleet, arrival schedule, and per-job
// seeds regenerated on each worker, overcommit dispatcher rebuilt from the
// environment — shard and merge byte-identically to sequential RunContext
// runs of the same specs. This is what lets sweepd workers split a serving
// campaign.
func TestServingShardedCampaignGolden(t *testing.T) {
	machine := phasetune.QuadAMP()
	newSess := func() *phasetune.Session {
		return phasetune.NewSession(
			phasetune.WithMachine(machine),
			phasetune.WithOvercommit(phasetune.OvercommitConfig{Enabled: true}),
		)
	}
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{3, 9} {
		for _, policy := range []phasetune.Policy{phasetune.PolicyNone, phasetune.PolicyHybrid} {
			arr := phasetune.ServingArrivals(machine, phasetune.ArrivalPoisson, 1.2, 6)
			specs = append(specs, phasetune.RunSpec{
				Arrivals: &arr, DurationSec: 8, Policy: policy, Seed: seed,
			})
		}
	}
	sess := newSess()
	var want []string
	overcommitted := false
	for _, spec := range specs {
		res, err := sess.RunContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakRunnable > len(machine.Cores) {
			overcommitted = true
		}
		want = append(want, string(encode(t, res)))
	}
	if !overcommitted {
		t.Error("no serving run ever exceeded the core count at 1.2x load")
	}
	for _, shards := range []int{2, 3} {
		got, err := newSess().SweepSharded(context.Background(), specs, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range got {
			if string(encode(t, got[i])) != want[i] {
				t.Errorf("shards=%d: serving spec %d differs from sequential run", shards, i)
			}
		}
	}
}

// TestSweepShardedRejectsBuiltWorkloads: specs that cannot cross a process
// boundary are rejected up front.
func TestSweepShardedRejectsBuiltWorkloads(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	sess := phasetune.NewSession()
	_, err = sess.SweepSharded(context.Background(), []phasetune.RunSpec{
		{Workload: phasetune.NewWorkload(suite, 2, 2, 1), DurationSec: 1, Seed: 1},
	}, 2)
	if err == nil {
		t.Fatal("SweepSharded accepted a built *Workload")
	}
	_, err = sess.SweepSharded(context.Background(), []phasetune.RunSpec{
		{DurationSec: 1, Seed: 1},
	}, 2)
	if err == nil {
		t.Fatal("SweepSharded accepted a spec with no workload at all")
	}
}

// TestQueuesSpecsRunLocally: Queues-based specs work through the plain
// local path too (RunContext builds the workload from the session suite),
// and give the same bytes as the equivalent built-Workload spec.
func TestQueuesSpecsRunLocally(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	sess := phasetune.NewSession()
	viaQueues, err := sess.Run(phasetune.RunSpec{
		Queues: &phasetune.WorkloadSpec{Slots: 2, QueueLen: 2, Seed: 7}, DurationSec: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaWorkload, err := sess.Run(phasetune.RunSpec{
		Workload: phasetune.NewWorkload(suite, 2, 2, 7), DurationSec: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(encode(t, viaQueues)) != string(encode(t, viaWorkload)) {
		t.Error("Queues-based run differs from built-Workload run")
	}
}

// TestServeAndWorkLoopback drives the full public fabric over loopback
// HTTP: Serve coordinates, two Work goroutines execute, and the merged
// results match a local Sweep byte for byte.
func TestServeAndWorkLoopback(t *testing.T) {
	specs := shardedGrid()
	want, err := phasetune.NewSession().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	type serveOut struct {
		results []*phasetune.RunResult
		err     error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		results, err := phasetune.Serve(ctx, phasetune.NewSession(), specs, phasetune.ServeOptions{
			Addr:     "127.0.0.1:0",
			OnListen: func(addr string) { addrCh <- addr },
		})
		serveCh <- serveOut{results, err}
	}()
	addr := <-addrCh

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := phasetune.Work(ctx, "http://"+addr, phasetune.WorkOptions{Name: "t"}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	out := <-serveCh
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.results) != len(want) {
		t.Fatalf("%d results, want %d", len(out.results), len(want))
	}
	for i := range out.results {
		if string(encode(t, out.results[i])) != string(encode(t, want[i])) {
			t.Errorf("spec %d: fabric result differs from Sweep", i)
		}
	}
}
