package phasetune_test

import (
	"context"
	"errors"
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

// TestHybridShardedCampaignGolden is the golden contract for the new
// policy: a PolicyHybrid campaign served over loopback to fabric workers —
// per-worker caches, wire-format specs, placement engines rebuilt on each
// worker —
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
	for _, workers := range []int{2, 3} {
		got := serveLoopback(t, phasetune.NewSession(phasetune.WithMachine(phasetune.TriTypeAMP())), specs, workers)
		for i := range got {
			if string(encode(t, got[i])) != want[i] {
				t.Errorf("workers=%d: hybrid spec %d differs from sequential run", workers, i)
			}
		}
	}
}

// TestServingShardedCampaignGolden pins the open-system serving form's
// fabric contract: Arrivals specs — fleet, arrival schedule, and per-job
// seeds regenerated on each worker, overcommit dispatcher rebuilt from the
// environment — are served to fabric workers over loopback and merge
// byte-identically to sequential RunContext
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
	for _, workers := range []int{2, 3} {
		got := serveLoopback(t, newSess(), specs, workers)
		for i := range got {
			if string(encode(t, got[i])) != want[i] {
				t.Errorf("workers=%d: serving spec %d differs from sequential run", workers, i)
			}
		}
	}
}

// TestServeRejectsUnserializableSpecs: specs that cannot cross a process
// boundary — a built Workload, or no workload at all — are rejected with
// ErrNeedQueues before the coordinator listens.
func TestServeRejectsUnserializableSpecs(t *testing.T) {
	suite, err := phasetune.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]phasetune.RunSpec{
		"built workload": {Workload: phasetune.NewWorkload(suite, 2, 2, 1), DurationSec: 1, Seed: 1},
		"no workload":    {DurationSec: 1, Seed: 1},
	} {
		// A coordinator that listens would wait for workers forever;
		// cancelling on listen turns that into a prompt failure.
		ctx, cancel := context.WithCancel(context.Background())
		listened := false
		_, err := phasetune.Serve(ctx, phasetune.NewSession(), []phasetune.RunSpec{spec},
			phasetune.ServeOptions{Addr: "127.0.0.1:0", OnListen: func(string) { listened = true; cancel() }})
		cancel()
		if !errors.Is(err, phasetune.ErrNeedQueues) {
			t.Errorf("%s: error %v, want ErrNeedQueues", name, err)
		}
		if listened {
			t.Errorf("%s: Serve listened before rejecting the spec", name)
		}
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

// TestServeAndWorkLoopback is the public fabric contract over loopback
// HTTP: Serve coordinates, two Work goroutines execute (wire specs,
// per-worker caches, deterministic merge), and the merged results match a
// local Sweep byte for byte.
func TestServeAndWorkLoopback(t *testing.T) {
	checkFabricMatchesSweep(t, 2)
}

// TestSweepShardedMatchesSweep pins that sharding a sweep does not change
// it: the same grid served to one worker and to three Work goroutines
// merges to Sweep's results.
func TestSweepShardedMatchesSweep(t *testing.T) {
	checkFabricMatchesSweep(t, 1, 3)
}

// checkFabricMatchesSweep serves shardedGrid to each worker count in turn
// and compares the merged results with a local Sweep byte for byte.
func checkFabricMatchesSweep(t *testing.T, workerCounts ...int) {
	t.Helper()
	specs := shardedGrid()
	want, err := phasetune.NewSession().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		got := serveLoopback(t, phasetune.NewSession(), specs, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if string(encode(t, got[i])) != string(encode(t, want[i])) {
				t.Errorf("workers=%d: spec %d: fabric result differs from Sweep", workers, i)
			}
		}
	}
}

// serveLoopback serves specs from sess on a kernel-picked loopback port to
// n Work goroutines and returns the merged results.
func serveLoopback(t *testing.T, sess *phasetune.Session, specs []phasetune.RunSpec, n int) []*phasetune.RunResult {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	type serveOut struct {
		results []*phasetune.RunResult
		err     error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		results, err := phasetune.Serve(ctx, sess, specs, phasetune.ServeOptions{
			Addr:     "127.0.0.1:0",
			OnListen: func(addr string) { addrCh <- addr },
		})
		serveCh <- serveOut{results, err}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case out := <-serveCh:
		t.Fatalf("Serve returned before listening: %v", out.err)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
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
		t.Fatalf("%d workers: %v", n, out.err)
	}
	return out.results
}
