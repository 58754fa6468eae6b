package phasetune_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"phasetune"
)

// shardedGrid is a grid for the fabric: baseline and static cells plus
// dynamic- and hybrid-policy cells, so policy resolution (and the
// placement engine) crosses the wire too.
func shardedGrid() []phasetune.RunSpec {
	loop45 := phasetune.BestParams()
	var specs []phasetune.RunSpec
	for _, seed := range []uint64{1, 2} {
		q := phasetune.WorkloadSpec{Slots: 3, QueueLen: 4, Seed: seed}
		specs = append(specs,
			phasetune.RunSpec{Workload: q, DurationSec: 5, Policy: phasetune.PolicyNone, Seed: seed},
			phasetune.RunSpec{Workload: q, DurationSec: 5, Policy: phasetune.PolicyStatic, Params: loop45, Seed: seed},
			phasetune.RunSpec{Workload: q, DurationSec: 5, Policy: phasetune.PolicyDynamicProbe, Seed: seed},
			phasetune.RunSpec{Workload: q, DurationSec: 5, Policy: phasetune.PolicyHybrid, Seed: seed},
		)
	}
	return specs
}

// TestServeRejectsUnserializableSpecs: a spec whose workload sets neither
// slots nor arrivals describes no jobs, and Serve rejects it before the
// coordinator listens.
func TestServeRejectsUnserializableSpecs(t *testing.T) {
	// A coordinator that listens would wait for workers forever;
	// cancelling on listen turns that into a prompt failure.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listened := false
	_, err := phasetune.Serve(ctx, phasetune.NewSession(), []phasetune.RunSpec{{DurationSec: 1, Seed: 1}},
		phasetune.ServeOptions{Addr: "127.0.0.1:0", OnListen: func(string) { listened = true; cancel() }})
	if err == nil || !strings.Contains(err.Error(), "neither Slots nor Arrivals") {
		t.Errorf("error %v, want the empty-workload refusal", err)
	}
	if listened {
		t.Error("Serve listened before rejecting the spec")
	}
}

// TestServeRejectsEmptyQueues: a closed workload whose slots queue no jobs
// is refused before the coordinator listens, as Run and Sweep refuse it.
func TestServeRejectsEmptyQueues(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listened := false
	spec := phasetune.RunSpec{Workload: phasetune.WorkloadSpec{Slots: 2, Seed: 1}, DurationSec: 1, Seed: 1}
	_, err := phasetune.Serve(ctx, phasetune.NewSession(), []phasetune.RunSpec{spec},
		phasetune.ServeOptions{Addr: "127.0.0.1:0", OnListen: func(string) { listened = true; cancel() }})
	if err == nil || !strings.Contains(err.Error(), "QueueLen must be at least 1") {
		t.Errorf("error %v, want the empty-queue refusal", err)
	}
	if listened {
		t.Error("Serve listened before rejecting the spec")
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
