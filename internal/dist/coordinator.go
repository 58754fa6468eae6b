package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"phasetune/internal/sim"
)

// Status is a lease poll outcome.
type Status string

const (
	// StatusLease grants a chunk of specs.
	StatusLease Status = "lease"
	// StatusWait means no work is available right now; poll again.
	StatusWait Status = "wait"
	// StatusDone means the campaign is finished (or aborted); the worker
	// should exit.
	StatusDone Status = "done"
)

// CommitStatus is a commit outcome.
type CommitStatus string

const (
	// CommitOK accepted the result.
	CommitOK CommitStatus = "ok"
	// CommitDuplicate rejected the result because the spec index was
	// already committed (at-most-once per index; the payloads are
	// byte-identical by construction, so rejection is benign).
	CommitDuplicate CommitStatus = "duplicate"
)

// RegisterReply answers a worker registration.
type RegisterReply struct {
	// WorkerID is the coordinator-assigned identity for all later calls.
	WorkerID string `json:"worker_id"`
	// Env is the campaign environment the worker rebuilds its stack from.
	Env EnvSpec `json:"env"`
	// TotalSpecs is the campaign grid size (progress reporting).
	TotalSpecs int `json:"total_specs"`
	// LeaseTTLSec is the lease lifetime; workers should heartbeat at a
	// fraction of it.
	LeaseTTLSec float64 `json:"lease_ttl_sec"`
}

// LeaseReply answers a lease poll.
type LeaseReply struct {
	// Status says whether work was granted.
	Status Status `json:"status"`
	// LeaseID identifies the lease on commit (StatusLease only).
	LeaseID string `json:"lease_id,omitempty"`
	// Indices are the granted spec indices in the campaign grid.
	Indices []int `json:"indices,omitempty"`
	// Specs are the corresponding wire specs, parallel to Indices.
	Specs []Spec `json:"specs,omitempty"`
	// RetrySec suggests a poll delay (StatusWait only).
	RetrySec float64 `json:"retry_sec,omitempty"`
}

// CommitRequest reports one finished run (or a deterministic failure).
type CommitRequest struct {
	// WorkerID identifies the committing worker.
	WorkerID string `json:"worker_id"`
	// LeaseID is the lease the index was granted under.
	LeaseID string `json:"lease_id"`
	// Index is the spec index in the campaign grid.
	Index int `json:"index"`
	// Result is the canonical encoding of the run result (EncodeResult).
	Result json.RawMessage `json:"result,omitempty"`
	// Error, when non-empty, reports a run failure; it aborts the campaign
	// (runs are deterministic, so a retry would fail identically).
	Error string `json:"error,omitempty"`
}

// CommitReply answers a commit.
type CommitReply struct {
	// Status reports acceptance or duplicate rejection.
	Status CommitStatus `json:"status"`
}

// HeartbeatReply answers a heartbeat.
type HeartbeatReply struct {
	// Done tells the worker the campaign has finished.
	Done bool `json:"done"`
}

// Progress is a coordinator state snapshot (the "progress" half of the
// /status payload).
type Progress struct {
	// Total, Done, Queued, and Leased partition the campaign grid
	// (Done + Queued + Leased == Total while healthy).
	Total, Done, Queued, Leased int
	// Workers counts registered workers.
	Workers int
	// ExpiredLeases counts leases reclaimed after missed heartbeats.
	ExpiredLeases int
	// DuplicateCommits counts commits rejected as duplicates.
	DuplicateCommits int
	// Failed reports a campaign abort.
	Failed bool
}

// Options configures a coordinator.
type Options struct {
	// ChunkSize is how many specs one lease grants (default 1 — runs are
	// heavy relative to a round-trip, so fine-grained leases balance best).
	ChunkSize int
	// LeaseTTL is how long a lease lives without a heartbeat before its
	// uncommitted indices are re-dispatched (default 30s).
	LeaseTTL time.Duration
	// Clock overrides time.Now (tests drive expiry with a fake clock).
	Clock func() time.Time
	// OnResult, when set, streams each accepted commit (decoded) as it
	// lands, with the spec's grid index. It fires from the committing
	// request's goroutine, outside the coordinator lock.
	OnResult func(index int, res *sim.Result)
}

// DefaultLeaseTTL is the lease lifetime when Options.LeaseTTL is zero.
const DefaultLeaseTTL = 30 * time.Second

// lease is one outstanding grant.
type lease struct {
	worker   string
	pending  map[int]bool // granted indices not yet committed
	deadline time.Time
}

// workerState tracks one registered worker for fabric introspection: when
// it joined, when it was last heard from (any authenticated call counts as
// a liveness proof, not just heartbeats), how many results it committed,
// and whether it has been told the campaign is done.
type workerState struct {
	registeredAt time.Time
	lastSeen     time.Time
	commits      int
	released     bool
}

// Coordinator owns a campaign: it chunks the grid into leases, tracks
// worker liveness, re-dispatches expired leases, enforces at-most-once
// commit per spec index, and merges results in grid order. All methods
// are safe for concurrent use; LocalTransport and the HTTP handler call
// the same entry points.
type Coordinator struct {
	env   EnvSpec
	specs []Spec
	opts  Options

	mu         sync.Mutex
	queue      []int // spec indices awaiting dispatch
	grantedAt  map[int]time.Time
	results    []json.RawMessage
	remaining  int
	leases     map[string]*lease
	workers    map[string]*workerState
	nextWorker int
	nextLease  int
	failErr    error
	failIndex  int
	done       chan struct{}
	doneClosed bool

	// Protocol event counters for the introspection views, each advanced
	// at exactly one site. Registrations and accepted commits need no
	// counter: they are len(workers) and len(specs)-remaining.
	leasesGranted int
	leaseWaits    int
	duplicates    int
	failedCommits int
	expired       int
	heartbeats    int
	roundtrip     histogram
}

// NewCoordinator validates the campaign and builds a coordinator with the
// whole grid queued.
func NewCoordinator(camp Campaign, opts Options) (*Coordinator, error) {
	if err := camp.Env.Validate(); err != nil {
		return nil, err
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 1
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Coordinator{
		env:       camp.Env,
		specs:     camp.Specs,
		opts:      opts,
		results:   make([]json.RawMessage, len(camp.Specs)),
		remaining: len(camp.Specs),
		queue:     make([]int, len(camp.Specs)),
		grantedAt: map[int]time.Time{},
		leases:    map[string]*lease{},
		workers:   map[string]*workerState{},
		failIndex: len(camp.Specs),
		done:      make(chan struct{}),
	}
	for i := range camp.Specs {
		c.queue[i] = i
	}
	if c.remaining == 0 {
		c.closeDoneLocked()
	}
	return c, nil
}

// finishedLocked reports campaign completion (success or abort).
func (c *Coordinator) finishedLocked() bool {
	return c.remaining == 0 || c.failErr != nil
}

// closeDoneLocked releases Wait exactly once.
func (c *Coordinator) closeDoneLocked() {
	if !c.doneClosed {
		c.doneClosed = true
		close(c.done)
	}
}

// failLocked records a run failure (lowest index wins, like sim.Sweep) and
// aborts the campaign.
func (c *Coordinator) failLocked(index int, err error) {
	if c.failErr == nil || index < c.failIndex {
		c.failErr, c.failIndex = err, index
	}
	c.closeDoneLocked()
}

// expireLocked reclaims leases whose deadline passed, returning their
// uncommitted indices to the queue in ascending order.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		var back []int
		for idx := range l.pending {
			back = append(back, idx)
		}
		sort.Ints(back)
		c.queue = append(c.queue, back...)
		delete(c.leases, id)
		c.expired++
	}
}

// Register admits a worker and hands it the campaign environment. The
// worker's wire version must match this build's: an older worker would
// silently drop newer Spec fields and commit divergent bytes, breaking
// the deterministic-merge contract.
func (c *Coordinator) Register(name string, version int) (*RegisterReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != SpecVersion {
		return nil, fmt.Errorf("dist: worker %q speaks wire version %d, coordinator speaks %d", name, version, SpecVersion)
	}
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	if name != "" {
		id = fmt.Sprintf("%s-%s", id, name)
	}
	now := c.opts.Clock()
	c.workers[id] = &workerState{registeredAt: now, lastSeen: now}
	return &RegisterReply{
		WorkerID:    id,
		Env:         c.env,
		TotalSpecs:  len(c.specs),
		LeaseTTLSec: c.opts.LeaseTTL.Seconds(),
	}, nil
}

// Lease grants the next chunk of pending specs, or reports wait/done.
func (c *Coordinator) Lease(workerID string) (*LeaseReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("dist: unknown worker %q", workerID)
	}
	now := c.opts.Clock()
	ws.lastSeen = now
	c.expireLocked(now)
	if c.finishedLocked() {
		ws.released = true
		return &LeaseReply{Status: StatusDone}, nil
	}
	if len(c.queue) == 0 {
		retry := c.opts.LeaseTTL.Seconds() / 10
		if retry > 0.5 {
			retry = 0.5
		}
		c.leaseWaits++
		return &LeaseReply{Status: StatusWait, RetrySec: retry}, nil
	}
	n := c.opts.ChunkSize
	if n > len(c.queue) {
		n = len(c.queue)
	}
	indices := append([]int(nil), c.queue[:n]...)
	c.queue = c.queue[n:]
	c.nextLease++
	id := fmt.Sprintf("l%d", c.nextLease)
	l := &lease{worker: workerID, pending: map[int]bool{}, deadline: now.Add(c.opts.LeaseTTL)}
	for _, idx := range indices {
		l.pending[idx] = true
		// Stamp the grant for the commit round-trip histogram; a re-grant
		// after expiry restarts the clock, so the histogram measures the
		// grant that actually produced the committed result.
		c.grantedAt[idx] = now
	}
	c.leases[id] = l
	c.leasesGranted++
	specs := make([]Spec, len(indices))
	for i, idx := range indices {
		specs[i] = c.specs[idx]
	}
	return &LeaseReply{Status: StatusLease, LeaseID: id, Indices: indices, Specs: specs}, nil
}

// Commit records one run result. The first commit for a spec index wins —
// even from an expired lease (the straggler's result is byte-identical to
// any re-dispatched execution); later commits are rejected as duplicates.
func (c *Coordinator) Commit(req CommitRequest) (*CommitReply, error) {
	c.mu.Lock()
	ws, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: unknown worker %q", req.WorkerID)
	}
	if req.Index < 0 || req.Index >= len(c.specs) {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: commit index %d out of range [0,%d)", req.Index, len(c.specs))
	}
	now := c.opts.Clock()
	ws.lastSeen = now
	c.expireLocked(now)
	if req.Error != "" {
		c.failedCommits++
		c.failLocked(req.Index, fmt.Errorf("dist: spec %d failed on %s: %s", req.Index, req.WorkerID, req.Error))
		c.mu.Unlock()
		return &CommitReply{Status: CommitOK}, nil
	}
	if len(req.Result) == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: commit for spec %d carries no result", req.Index)
	}
	if c.results[req.Index] != nil {
		c.duplicates++
		c.mu.Unlock()
		return &CommitReply{Status: CommitDuplicate}, nil
	}
	c.results[req.Index] = append(json.RawMessage(nil), req.Result...)
	c.remaining--
	ws.commits++
	if granted, ok := c.grantedAt[req.Index]; ok {
		c.roundtrip.observe(now.Sub(granted).Microseconds())
		delete(c.grantedAt, req.Index)
	}
	// Retire the index everywhere it may still be scheduled: its own
	// lease, any re-dispatched lease, and the pending queue.
	for id, l := range c.leases {
		delete(l.pending, req.Index)
		if len(l.pending) == 0 {
			delete(c.leases, id)
		}
	}
	for i, idx := range c.queue {
		if idx == req.Index {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	if c.remaining == 0 {
		c.closeDoneLocked()
	}
	onResult := c.opts.OnResult
	raw := c.results[req.Index]
	c.mu.Unlock()

	if onResult != nil {
		if res, err := DecodeResult(raw); err == nil {
			onResult(req.Index, res)
		}
	}
	return &CommitReply{Status: CommitOK}, nil
}

// Abort fails the campaign (releasing Wait with err) unless it already
// finished. RunLocal uses it when every worker has exited with work still
// outstanding — without it, Wait would block on results no one can commit.
func (c *Coordinator) Abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finishedLocked() {
		return
	}
	c.failLocked(len(c.specs), err)
}

// Heartbeat extends the deadlines of the worker's live leases.
func (c *Coordinator) Heartbeat(workerID string) (*HeartbeatReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("dist: unknown worker %q", workerID)
	}
	now := c.opts.Clock()
	ws.lastSeen = now
	c.heartbeats++
	c.expireLocked(now)
	for _, l := range c.leases {
		if l.worker == workerID {
			l.deadline = now.Add(c.opts.LeaseTTL)
		}
	}
	return &HeartbeatReply{Done: c.finishedLocked()}, nil
}

// Progress snapshots coordinator state.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked()
}

// progressLocked is Progress with c.mu held; every introspection view
// renders from it.
func (c *Coordinator) progressLocked() Progress {
	leased := 0
	for _, l := range c.leases {
		leased += len(l.pending)
	}
	return Progress{
		Total:            len(c.specs),
		Done:             len(c.specs) - c.remaining,
		Queued:           len(c.queue),
		Leased:           leased,
		Workers:          len(c.workers),
		ExpiredLeases:    c.expired,
		DuplicateCommits: c.duplicates,
		Failed:           c.failErr != nil,
	}
}

// Quiesced reports whether every registered worker has been told the
// campaign is done — the point at which a server can stop listening
// without stranding workers mid-poll.
func (c *Coordinator) Quiesced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finishedLocked() {
		return false
	}
	for _, ws := range c.workers {
		if !ws.released {
			return false
		}
	}
	return true
}

// RawResults returns the committed result encodings in grid order. It
// errors unless the campaign completed successfully.
func (c *Coordinator) RawResults() ([]json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		return nil, c.failErr
	}
	if c.remaining != 0 {
		return nil, fmt.Errorf("dist: campaign incomplete (%d of %d specs outstanding)", c.remaining, len(c.specs))
	}
	out := make([]json.RawMessage, len(c.results))
	for i, raw := range c.results {
		out[i] = append(json.RawMessage(nil), raw...)
	}
	return out, nil
}

// Wait blocks until the campaign completes (or ctx fires) and returns the
// decoded results in grid order — the deterministic merge: the slice is
// bit-identical to running every spec sequentially in one process.
func (c *Coordinator) Wait(ctx context.Context) ([]*sim.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
	}
	raws, err := c.RawResults()
	if err != nil {
		return nil, err
	}
	out := make([]*sim.Result, len(raws))
	for i, raw := range raws {
		res, err := DecodeResult(raw)
		if err != nil {
			return nil, fmt.Errorf("dist: spec %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}
