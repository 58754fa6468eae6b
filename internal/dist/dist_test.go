package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// testCampaign is a small but representative grid: baseline, static-tuned,
// dynamic, hybrid, and oracle cells across two seeds on the quad AMP —
// plus one alternation-axis cell and one drift-damped hybrid cell, so the
// v3 wire fields cross the fabric in every determinism test — with tiny
// workloads so the whole suite stays fast.
func testCampaign() Campaign {
	env := EnvSpec{
		Version: SpecVersion,
		Machine: *amp.Quad2Fast2Slow(),
		Cost:    exec.DefaultCostModel(),
		Typing:  phase.Options{K: 2, MinBlockInstrs: 5},
	}
	loop45 := transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true}
	tcfg := tuning.DefaultConfig()
	var specs []Spec
	for _, seed := range []uint64{1, 2} {
		q := workload.Spec{Slots: 2, QueueLen: 2, Seed: seed}
		specs = append(specs,
			Spec{Queues: q, DurationSec: 2, Mode: sim.Baseline, Tuning: tcfg, Seed: seed},
			Spec{Queues: q, DurationSec: 2, Mode: sim.Tuned, Params: loop45, Tuning: tcfg, Seed: seed},
			Spec{Queues: q, DurationSec: 2, Mode: sim.Dynamic, Tuning: tcfg, Online: online.DefaultConfig(), Seed: seed},
			Spec{Queues: q, DurationSec: 2, Mode: sim.Hybrid, Params: loop45, Tuning: tcfg, Online: online.DefaultConfig(), Seed: seed},
			Spec{Queues: q, DurationSec: 2, Mode: sim.Oracle, Params: loop45, Tuning: tcfg, Seed: seed},
		)
	}
	damped := online.DefaultConfig()
	damped.Hybrid.Drift = online.DefaultDrift
	altQ := workload.Spec{Slots: 2, QueueLen: 2, Seed: 1, Alternations: 64}
	specs = append(specs,
		Spec{Queues: altQ, DurationSec: 2, Mode: sim.Dynamic, Tuning: tcfg, Online: online.DefaultConfig(), Seed: 1},
		Spec{Queues: workload.Spec{Slots: 2, QueueLen: 2, Seed: 1}, DurationSec: 2,
			Mode: sim.Hybrid, Params: loop45, Tuning: tcfg, Online: damped, Seed: 1},
	)
	return Campaign{Env: env, Specs: specs}
}

// sequentialRaw executes the campaign one spec at a time in-process and
// returns the canonical encodings — the reference the fabric must match
// byte for byte.
func sequentialRaw(t testing.TB, camp Campaign) []json.RawMessage {
	t.Helper()
	suite, err := camp.Env.Suite()
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	cache := sim.NewImageCache()
	out := make([]json.RawMessage, len(camp.Specs))
	for i, sp := range camp.Specs {
		cfg, err := camp.Env.RunConfig(sp, suite, cache)
		if err != nil {
			t.Fatalf("sequential spec %d: %v", i, err)
		}
		res, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("sequential spec %d: %v", i, err)
		}
		raw, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("encode spec %d: %v", i, err)
		}
		out[i] = raw
	}
	return out
}

// requireIdentical compares fabric results against the sequential
// reference byte for byte.
func requireIdentical(t *testing.T, label string, want []json.RawMessage, got []*sim.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, res := range got {
		raw, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: encode %d: %v", label, i, err)
		}
		if !bytes.Equal(raw, want[i]) {
			t.Errorf("%s: spec %d differs from sequential run", label, i)
		}
	}
}

// TestSpecRoundTrip pins the wire contract: a campaign survives JSON
// serialization exactly, so coordinator and workers agree on every run.
func TestSpecRoundTrip(t *testing.T) {
	camp := testCampaign()
	blob, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	var back Campaign
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("campaign JSON does not round-trip byte-identically")
	}
	if err := back.Env.Validate(); err != nil {
		t.Errorf("round-tripped env invalid: %v", err)
	}
}

// TestShardedByteIdenticalToSequential is the fabric's core property: for
// any shard count, RunLocal's merged results are byte-identical to running
// the grid sequentially in one process.
func TestShardedByteIdenticalToSequential(t *testing.T) {
	t.Parallel()
	camp := testCampaign()
	want := sequentialRaw(t, camp)
	for _, shards := range []int{1, 2, 3, 5} {
		got, err := RunLocal(context.Background(), camp, LocalOptions{Workers: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireIdentical(t, fmt.Sprintf("shards=%d", shards), want, got)
	}
}

// TestShardedChunkSizesByteIdentical varies the lease chunking, which
// changes scheduling but must not change output.
func TestShardedChunkSizesByteIdentical(t *testing.T) {
	t.Parallel()
	camp := testCampaign()
	want := sequentialRaw(t, camp)
	for _, chunk := range []int{2, 3, len(camp.Specs)} {
		got, err := RunLocal(context.Background(), camp, LocalOptions{Workers: 2, ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		requireIdentical(t, fmt.Sprintf("chunk=%d", chunk), want, got)
	}
}

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestCrashedWorkerWorkIsRedispatched injects a worker crash mid-lease:
// the worker completes one run but exits before committing anything else,
// its lease expires, a second worker re-runs the lost specs, and the
// merged output is still byte-identical to the sequential reference.
func TestCrashedWorkerWorkIsRedispatched(t *testing.T) {
	camp := testCampaign()
	want := sequentialRaw(t, camp)
	clock := newFakeClock()
	ttl := 30 * time.Second
	coord, err := NewCoordinator(camp, Options{ChunkSize: 3, LeaseTTL: ttl, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	tr := LocalTransport{coord}

	crasher := &Worker{Name: "crasher", Transport: tr, crashAfter: 2}
	if err := crasher.Run(context.Background()); err != errCrashed {
		t.Fatalf("crasher returned %v, want errCrashed", err)
	}
	if p := coord.Progress(); p.Done >= p.Total {
		t.Fatalf("crasher finished the campaign alone: %+v", p)
	}

	// The crasher's lease is still live; a healthy worker must make
	// progress only once the lease expires.
	clock.Advance(ttl + time.Second)
	healthy := &Worker{Name: "healthy", Transport: tr}
	if err := healthy.Run(context.Background()); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	got, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "crash/retry", want, got)
	if p := coord.Progress(); p.ExpiredLeases == 0 {
		t.Errorf("no lease expired: %+v", p)
	}
}

// oneSpecCoordinator builds a 1-spec campaign with two registered workers
// both holding the same spec index (the second via lease expiry).
func oneSpecCoordinator(t *testing.T) (*Coordinator, *fakeClock, *LeaseReply, *LeaseReply, string, string) {
	t.Helper()
	camp := testCampaign()
	camp.Specs = camp.Specs[:1]
	clock := newFakeClock()
	coord, err := NewCoordinator(camp, Options{LeaseTTL: 10 * time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := coord.Register("w1", SpecVersion)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := coord.Register("w2", SpecVersion)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := coord.Lease(r1.WorkerID)
	if err != nil || l1.Status != StatusLease {
		t.Fatalf("w1 lease: %v %+v", err, l1)
	}
	// w2 sees no work while w1's lease is live...
	if lr, err := coord.Lease(r2.WorkerID); err != nil || lr.Status != StatusWait {
		t.Fatalf("w2 lease while live = %+v, %v; want wait", lr, err)
	}
	// ...and inherits the spec once the lease expires.
	clock.Advance(11 * time.Second)
	l2, err := coord.Lease(r2.WorkerID)
	if err != nil || l2.Status != StatusLease || len(l2.Indices) != 1 || l2.Indices[0] != 0 {
		t.Fatalf("w2 lease after expiry = %+v, %v; want index 0", l2, err)
	}
	return coord, clock, l1, l2, r1.WorkerID, r2.WorkerID
}

// runSpecRaw executes one spec of the campaign directly.
func runSpecRaw(t *testing.T, camp Campaign, idx int) json.RawMessage {
	t.Helper()
	suite, err := camp.Env.Suite()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := camp.Env.RunConfig(camp.Specs[idx], suite, sim.NewImageCache())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHeartbeatKeepsLeaseAlive pins the liveness rule: a heartbeating
// worker never loses its lease, no matter how long the run takes.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	camp := testCampaign()
	camp.Specs = camp.Specs[:1]
	clock := newFakeClock()
	coord, err := NewCoordinator(camp, Options{LeaseTTL: 10 * time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := coord.Register("w1", SpecVersion)
	r2, _ := coord.Register("w2", SpecVersion)
	if lr, _ := coord.Lease(r1.WorkerID); lr.Status != StatusLease {
		t.Fatalf("w1 got %+v", lr)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(8 * time.Second)
		if _, err := coord.Heartbeat(r1.WorkerID); err != nil {
			t.Fatal(err)
		}
	}
	if lr, _ := coord.Lease(r2.WorkerID); lr.Status != StatusWait {
		t.Fatalf("heartbeated lease was lost: w2 got %+v", lr)
	}
	if p := coord.Progress(); p.ExpiredLeases != 0 {
		t.Errorf("expired leases = %d, want 0", p.ExpiredLeases)
	}
}

// TestStragglerCommitWinsAndDuplicateRejected covers at-most-once commit:
// after re-dispatch, whichever worker commits a spec first wins — here the
// expired straggler — and the loser's commit is rejected as a duplicate.
func TestStragglerCommitWinsAndDuplicateRejected(t *testing.T) {
	coord, _, l1, l2, w1, w2 := oneSpecCoordinator(t)
	camp := Campaign{Env: coord.env, Specs: coord.specs}
	raw := runSpecRaw(t, camp, 0)

	// The straggler (expired lease) commits first: accepted.
	cr, err := coord.Commit(CommitRequest{WorkerID: w1, LeaseID: l1.LeaseID, Index: 0, Result: raw})
	if err != nil || cr.Status != CommitOK {
		t.Fatalf("straggler commit = %+v, %v; want ok", cr, err)
	}
	// The re-dispatched worker commits second: duplicate.
	cr, err = coord.Commit(CommitRequest{WorkerID: w2, LeaseID: l2.LeaseID, Index: 0, Result: raw})
	if err != nil || cr.Status != CommitDuplicate {
		t.Fatalf("duplicate commit = %+v, %v; want duplicate", cr, err)
	}
	p := coord.Progress()
	if p.Done != 1 || p.DuplicateCommits != 1 {
		t.Errorf("progress = %+v; want 1 done, 1 duplicate", p)
	}
	results, err := coord.Wait(context.Background())
	if err != nil || len(results) != 1 {
		t.Fatalf("wait: %v (%d results)", err, len(results))
	}
}

// TestCommitValidation covers the protocol's rejection paths.
func TestCommitValidation(t *testing.T) {
	camp := testCampaign()
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Lease("nobody"); err == nil {
		t.Error("lease from unregistered worker accepted")
	}
	r, _ := coord.Register("w", SpecVersion)
	l, _ := coord.Lease(r.WorkerID)
	if _, err := coord.Commit(CommitRequest{WorkerID: r.WorkerID, LeaseID: l.LeaseID, Index: len(camp.Specs)}); err == nil {
		t.Error("out-of-range commit accepted")
	}
	if _, err := coord.Commit(CommitRequest{WorkerID: r.WorkerID, LeaseID: l.LeaseID, Index: 0}); err == nil {
		t.Error("empty commit accepted")
	}
}

// TestRunFailureAbortsCampaign: a reported run failure fails Wait.
func TestRunFailureAbortsCampaign(t *testing.T) {
	camp := testCampaign()
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := coord.Register("w", SpecVersion)
	l, _ := coord.Lease(r.WorkerID)
	if _, err := coord.Commit(CommitRequest{
		WorkerID: r.WorkerID, LeaseID: l.LeaseID, Index: l.Indices[0], Error: "boom",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Wait(context.Background()); err == nil {
		t.Fatal("Wait succeeded after a reported failure")
	}
	// Workers are released so they can exit.
	if lr, _ := coord.Lease(r.WorkerID); lr.Status != StatusDone {
		t.Errorf("post-abort lease = %+v, want done", lr)
	}
}

// TestAbortReleasesWait: Abort fails an unfinished campaign (the
// all-workers-dead path) but never overrides a completed one.
func TestAbortReleasesWait(t *testing.T) {
	camp := testCampaign()
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.Abort(fmt.Errorf("all workers gone"))
	if _, err := coord.Wait(context.Background()); err == nil {
		t.Fatal("Wait succeeded after Abort")
	}

	// A finished campaign ignores Abort.
	camp.Specs = camp.Specs[:1]
	done, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := done.Register("w", SpecVersion)
	l, _ := done.Lease(r.WorkerID)
	raw := runSpecRaw(t, camp, 0)
	if _, err := done.Commit(CommitRequest{WorkerID: r.WorkerID, LeaseID: l.LeaseID, Index: 0, Result: raw}); err != nil {
		t.Fatal(err)
	}
	done.Abort(fmt.Errorf("late abort"))
	if _, err := done.Wait(context.Background()); err != nil {
		t.Fatalf("Abort overrode a completed campaign: %v", err)
	}
}

// flakyTransport fails each call's first attempt with a transport-level
// error; retries must absorb it.
type flakyTransport struct {
	LocalTransport
	mu     sync.Mutex
	failed map[string]bool
}

func (t *flakyTransport) flake(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed == nil {
		t.failed = map[string]bool{}
	}
	if !t.failed[key] {
		t.failed[key] = true
		return fmt.Errorf("connection reset (injected)")
	}
	return nil
}

func (t *flakyTransport) Lease(ctx context.Context, workerID string) (*LeaseReply, error) {
	if err := t.flake("lease-" + workerID); err != nil {
		return nil, err
	}
	return t.LocalTransport.Lease(ctx, workerID)
}

func (t *flakyTransport) Commit(ctx context.Context, req CommitRequest) (*CommitReply, error) {
	if err := t.flake(fmt.Sprintf("commit-%d", req.Index)); err != nil {
		return nil, err
	}
	return t.LocalTransport.Commit(ctx, req)
}

// TestWorkerSurvivesTransientTransportFailures: one dropped lease poll and
// one dropped commit per spec must not kill the worker or the campaign.
func TestWorkerSurvivesTransientTransportFailures(t *testing.T) {
	t.Parallel()
	camp := testCampaign()
	camp.Specs = camp.Specs[:2]
	want := sequentialRaw(t, camp)
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Name: "flaky", Transport: &flakyTransport{LocalTransport: LocalTransport{coord}}}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker died on transient failures: %v", err)
	}
	got, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "flaky", want, got)
}

// TestHTTPFabricByteIdentical runs the full protocol over loopback HTTP —
// two workers against an httptest server — and demands byte-identical
// output again.
func TestHTTPFabricByteIdentical(t *testing.T) {
	t.Parallel()
	camp := testCampaign()
	want := sequentialRaw(t, camp)
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w := &Worker{
			Name:      fmt.Sprintf("http-%d", i),
			Transport: &Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i)
	}
	got, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	requireIdentical(t, "http", want, got)
	if !coord.Quiesced() {
		t.Error("coordinator not quiesced after workers exited")
	}
}

// TestEmptyCampaign completes immediately.
func TestEmptyCampaign(t *testing.T) {
	camp := testCampaign()
	camp.Specs = nil
	results, err := RunLocal(context.Background(), camp, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("%d results from empty campaign", len(results))
	}
}

// TestRegisterRejectsWireVersionMismatch pins the two-way version gate: a
// worker from another wire generation (an old build omits the field and
// decodes as 0) must fail registration instead of being handed specs it
// would silently misinterpret.
func TestRegisterRejectsWireVersionMismatch(t *testing.T) {
	coord, err := NewCoordinator(testCampaign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Register("old-build", 0); err == nil {
		t.Error("coordinator admitted a version-0 worker")
	}
	if _, err := coord.Register("future-build", SpecVersion+1); err == nil {
		t.Error("coordinator admitted a future-version worker")
	}
	if _, err := coord.Register("same-build", SpecVersion); err != nil {
		t.Errorf("coordinator rejected a matching worker: %v", err)
	}
}

// slowQuad returns the quad machine with every clock scaled so its slowest
// core type runs hz cycles per second (nominal ratios kept).
func slowQuad(hz float64) amp.Machine {
	m := *amp.Quad2Fast2Slow()
	m.Types = append([]amp.CoreType(nil), m.Types...)
	slowGHz := m.Types[len(m.Types)-1].FreqGHz
	for i := range m.Types {
		m.Types[i].CyclesPerSec = hz * m.Types[i].FreqGHz / slowGHz
	}
	return m
}

// envTransport serves a real coordinator but hands a registering worker
// the given environment instead of the coordinator's.
type envTransport struct {
	LocalTransport
	env EnvSpec
}

func (t envTransport) Register(ctx context.Context, name string) (*RegisterReply, error) {
	reg, err := t.LocalTransport.Register(ctx, name)
	if err == nil {
		reg.Env = t.env
	}
	return reg, err
}

// TestStallingSchedulerRefused pins the one stall an environment can still
// carry: the scheduler's periods are constants, but the machine arrives
// from the wire, and one whose slowest core type retires less than a cycle
// per fixed timeslice (under 10 cycles/s) would spin a worker until its
// context fires, which on the fabric is never: the worker's heartbeats
// keep its lease alive. Validate, NewCoordinator and a registering worker
// all refuse it; the worker's deadline turns a regression into a failure
// instead of a hang.
func TestStallingSchedulerRefused(t *testing.T) {
	for name, hz := range map[string]float64{
		"half a cycle per timeslice": 0.5 / osched.TimesliceSec,
		"tiny clock":                 1e-300,
	} {
		t.Run(name, func(t *testing.T) {
			camp := testCampaign()
			camp.Env.Machine = slowQuad(hz)
			if err := camp.Env.Validate(); err == nil {
				t.Error("Validate accepted the environment")
			}
			if _, err := NewCoordinator(camp, Options{}); err == nil {
				t.Error("NewCoordinator accepted the campaign")
			}
			coord, err := NewCoordinator(testCampaign(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			w := Worker{Name: "slow", Transport: envTransport{LocalTransport{coord}, camp.Env}}
			if err := w.Run(ctx); err == nil || ctx.Err() != nil {
				t.Fatalf("worker error = %v, want a refusal before the deadline", err)
			}
		})
	}
}
