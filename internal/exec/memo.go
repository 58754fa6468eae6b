// Segment-outcome memoization, opt-in. Campaign grids re-simulate the
// same code over and over: across a policy column many of a task's phase
// segments execute identically under different placements. The memo
// replays such segments instead of stepping them. No run uses it unless
// its caller attaches one (osched.Kernel.Memo, sim.RunConfig.Memo): since
// the interpreter went flat, stepping natively from the image's cost
// tables (Process.Lane) costs less than the memo's hashing, lookups and
// recording on every measured campaign.
//
// A run of steps is a pure function of the interpreter state it starts
// from — (image, program counter, call stack, loop counters, rng stream
// position) — and of the pricing environment it runs under — (core-type
// parameters, effective cache share, syscall cost, fastest clock). The
// memo exploits exactly that: a *chunk* records the observable deltas of
// up to maxChunkSteps consecutive steps (cycles, instructions, memory
// references, integer ledger picoseconds) together with the end state, and
// replaying it is O(1) in the number of steps.
//
// The identity contract. Memoization must be invisible to every observer:
// marks, monitor windows, ledger charges, traces, and the scheduler's
// slice accounting. Chunks therefore split at every observer-visible
// boundary:
//
//   - phase marks never record (the tuning hook runs between two steps the
//     observer can distinguish), so a chunk never spans a mark;
//   - the exit step never records (OnExit is a hook);
//   - a slice boundary closes the open recording (the scheduler regains
//     control there);
//   - replay is refused unless the whole chunk fits the remaining slice
//     budget exactly as the unmemoized loop would have stepped it
//     (cycles before the last step < remaining ⇔ every step would have
//     started).
//
// Within a chunk nothing is observable: counters and the ledger are plain
// integer sums, so one batched add equals the per-step adds it replaces,
// and a memo's lane prices from the image lane's cost table, the one an
// unmemoized run steps from — memoized and unmemoized runs price every
// block identically by construction.
//
// Concurrency follows the ImageCache singleflight idiom: lanes and chunks
// are immutable once published, lookups take a read lock, and the first
// recorder to finish a chunk wins (a losing duplicate is discarded — both
// are correct by construction, so results never depend on the race).
//
// Allocation discipline. A recording lives in its process's reusable
// recorder and allocates nothing; only a chunk the memo keeps is copied
// out, into two memo-wide slabs: its header, and one exact-size tail
// holding its end stack and loop writes. Each lane files its chunks in one
// open-addressed table keyed by the state hash, so a kept chunk costs its
// header, its tail and a table slot or two. A recording the memo would
// refuse (it is full, or another recorder already published the state) is
// never copied, and once the memo is full new recordings only count their
// steps: chunk boundaries, and with them the lookup cadence and the hit
// and miss counts, are those of a memo that records and discards.
package exec

import (
	"math"
	"sync"
	"sync/atomic"
)

// maxChunkSteps bounds one chunk. Longer chunks amortize the lookup better
// but are refused more often near slice boundaries; 256 steps is far past
// the point where the per-chunk overhead stops mattering.
const maxChunkSteps = 256

// A chunk counts its steps in 16 bits; this fails to compile otherwise.
const _ = uint16(maxChunkSteps)

// DefaultMemoChunks is the default bound on cached chunks across all
// lanes. On the quick showdown grid a kept chunk costs 134.2 bytes (its
// 112-byte header, 8.4 bytes of tail and 13.8 bytes of lane table), so
// the full memo holds about 35 MB. When full, the memo stops recording
// new chunks but keeps serving hits.
const DefaultMemoChunks = 1 << 18

// Slab block sizes, in elements: a memo's first block of each kind is
// small, so short-lived memos stay cheap, and blocks double up to the cap.
const (
	slabMin = 64
	slabMax = 4096
)

// slab carves exact-length slices out of shared blocks, so a memo holding
// hundreds of thousands of chunks makes a few hundred allocations rather
// than a few per chunk. The unused tail of the current block is the only
// slack. Not safe for concurrent use.
type slab[T any] struct {
	block []T
}

// take returns a zeroed slice of length and capacity n (nil for n == 0).
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > cap(s.block)-len(s.block) {
		size := min(max(2*cap(s.block), slabMin), slabMax)
		s.block = make([]T, 0, max(size, n))
	}
	i := len(s.block)
	s.block = s.block[:i+n]
	return s.block[i : i+n : i+n]
}

// chunkKey identifies an interpreter state within a lane: the exact rng
// stream position (splitmix64 state is one word, so this dimension is
// collision-free) plus a hash of (program counter, call stack, loop
// counters). Replay additionally verifies the start position and stack
// depth stored in the chunk.
type chunkKey struct {
	pos uint64
	rng uint64
}

// loopWrite is one loop-counter cell's final value within a chunk.
type loopWrite struct {
	loop, val int32
}

// chunk is the recorded outcome of a run of steps, filed under the state
// it starts from: the observable deltas plus the end state to restore.
// Immutable once published. The 32-bit deltas bound what one chunk may
// record; finalize keeps no recording that would not fit them.
type chunk struct {
	key chunkKey

	cycles       int64 // total body cycles of all steps
	idealPs      int64 // ledger fastest-clock counterfactual, integer sum
	endStackHash uint64
	endLoopHash  uint64
	endRng       uint64

	// tail holds the end stack as endStackLen return-block ids, bottom
	// frame first, then the loop writes as (loop, val) pairs.
	tail []int32

	instrs, memRefs uint32
	lastCycles      uint32 // the final step's cycles (budget check)

	startPC, startStackLen int32
	endPC, endStackLen     int32
	steps                  uint16
}

// split returns the tail's end stack and loop writes.
func (c *chunk) split() (stack, writes []int32) {
	return c.tail[:c.endStackLen], c.tail[c.endStackLen:]
}

// laneMinSlots is a fresh lane's table length.
const laneMinSlots = 8

// Lane is an image priced under one environment: its block cost table
// and, on a memo's lane, the chunk store. The image's own lanes
// (Process.Lane) carry no memo and no store; a memo's lane shares the
// image lane's table.
type Lane struct {
	memo    *SegmentMemo
	key     priceKey // an image lane's environment (zero on a memo's lane)
	par     CoreParams
	shareKB float64
	cost    []blockCost // indexed by global block id

	// table is an open-addressed chunk store indexed by key.pos with
	// linear probing; nil slots are empty. Its length is a power of two
	// and n, the chunks it holds, stays at or below 3/4 of it, so every
	// probe sequence reaches an empty slot.
	mu    sync.RWMutex
	table []*chunk
	n     int
}

// slot returns the index of key's chunk in the table, or of the empty slot
// where it would go.
func (l *Lane) slot(key chunkKey) uint64 {
	mask := uint64(len(l.table) - 1)
	i := key.pos & mask
	for c := l.table[i]; c != nil && c.key != key; c = l.table[i] {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the cached chunk for a state key, or nil.
func (l *Lane) lookup(key chunkKey) *chunk {
	l.mu.RLock()
	c := l.table[l.slot(key)]
	l.mu.RUnlock()
	return c
}

// grow doubles the table and re-files every chunk. The caller holds the
// write lock.
func (l *Lane) grow() {
	old := l.table
	l.table = make([]*chunk, 2*len(old))
	for _, c := range old {
		if c != nil {
			l.table[l.slot(c.key)] = c
		}
	}
}

// insert publishes a recorded chunk under key, copying its header into the
// memo's chunk slab and its end stack and loop writes into one exact-size
// tail. First writer wins: concurrent recorders starting from the same
// state record byte-equivalent prefixes, so replay correctness never
// depends on which one lands. A refused chunk (memo full, state already
// published) allocates nothing.
func (l *Lane) insert(key chunkKey, c *chunk, stack []int32, writes []loopWrite) {
	m := l.memo
	if m.full() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.slot(key)
	if l.table[i] != nil {
		return
	}
	if 4*(l.n+1) > 3*len(l.table) {
		l.grow()
		i = l.slot(key)
	}
	m.slabMu.Lock()
	kept := &m.chunkSlab.take(1)[0]
	tail := m.tailSlab.take(len(stack) + 2*len(writes))
	m.slabMu.Unlock()
	*kept = *c
	kept.key = key
	kept.endStackLen = int32(len(stack))
	kept.tail = tail
	tail = tail[copy(tail, stack):]
	for _, w := range writes {
		tail[0], tail[1] = w.loop, w.val
		tail = tail[2:]
	}
	l.table[i] = kept
	l.n++
	m.entries.Add(1)
	m.recordedSteps.Add(uint64(c.steps))
}

// SegmentMemo is a shared store of memoized segment outcomes. Safe for
// concurrent use by every run of a sweep; a nil *SegmentMemo disables
// memoization entirely.
type SegmentMemo struct {
	limit   int64
	entries atomic.Int64

	hits          atomic.Uint64
	misses        atomic.Uint64
	replayedSteps atomic.Uint64
	recordedSteps atomic.Uint64

	// lanes maps each image lane (Process.Lane) to the memo's lane over
	// the same table.
	mu    sync.RWMutex
	lanes map[*Lane]*Lane

	// The slabs hold every kept chunk across all lanes: its header and
	// its tail.
	slabMu    sync.Mutex
	chunkSlab slab[chunk]
	tailSlab  slab[int32]
}

// full reports whether the memo has reached its chunk bound.
func (m *SegmentMemo) full() bool { return m.entries.Load() >= m.limit }

// NewSegmentMemo creates a memo bounded to maxChunks cached chunks
// (DefaultMemoChunks when maxChunks <= 0).
func NewSegmentMemo(maxChunks int) *SegmentMemo {
	if maxChunks <= 0 {
		maxChunks = DefaultMemoChunks
	}
	return &SegmentMemo{limit: int64(maxChunks), lanes: map[*Lane]*Lane{}}
}

// MemoStats is a point-in-time snapshot of memo effectiveness.
type MemoStats struct {
	// Lanes and Chunks size the store; Limit is its chunk bound.
	Lanes, Chunks, Limit int
	// Hits and Misses count chunk lookups during dispatch.
	Hits, Misses uint64
	// ReplayedSteps counts interpreter steps served from cache, and
	// RecordedSteps the steps of the chunks the memo kept.
	ReplayedSteps, RecordedSteps uint64
}

// Fill returns Chunks/Limit: 1 once the memo has stopped recording.
func (s MemoStats) Fill() float64 {
	if s.Limit == 0 {
		return 0
	}
	return float64(s.Chunks) / float64(s.Limit)
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the memo's counters.
func (m *SegmentMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.RLock()
	lanes := len(m.lanes)
	m.mu.RUnlock()
	return MemoStats{
		Lanes:         lanes,
		Chunks:        int(m.entries.Load()),
		Limit:         int(m.limit),
		Hits:          m.hits.Load(),
		Misses:        m.misses.Load(),
		ReplayedSteps: m.replayedSteps.Load(),
		RecordedSteps: m.recordedSteps.Load(),
	}
}

// LaneFor resolves (building on first use) the lane for a process's image
// under the given pricing environment. Called once per dispatch burst.
// Lanes key on the image lane they price from, so images are compared by
// identity: the ImageCache already dedupes them by content, and cross-run
// reuse requires the runs to draw images from one shared cache.
func (m *SegmentMemo) LaneFor(p *Process, par *CoreParams, shareKB float64, fastPs int64) *Lane {
	base := p.Lane(par, shareKB, fastPs)
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.lanes[base]
	if l == nil {
		l = &Lane{memo: m, par: base.par, shareKB: base.shareKB, cost: base.cost, table: make([]*chunk, laneMinSlots)}
		m.lanes[base] = l
	}
	return l
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// The state-hash constants, folded into each block's keys at image build.
// Frames and non-zero loop cells combine by XOR, so a push and its pop, or
// a cell write and its reset, cancel exactly.
const (
	hashGamma = 0x9e3779b97f4a7c15
	frameSeed = 0x8f51a2c4b3e6d970
	loopSeed  = 0x1d8e4f2a9c6b5e37
)

// memoState is a process's memoization side-state: incremental hashes
// summarizing the parts of the interpreter state the program counter does
// not (call stack, loop counters), plus the active chunk recorder.
type memoState struct {
	stackHash uint64
	loopHash  uint64
	rec       recorder
}

// recorder accumulates an in-progress chunk. It is reused across
// recordings, so recording allocates nothing once its writes buffer has
// grown to the process's widest loop nest.
type recorder struct {
	active bool
	// keep is false for a recording the memo will refuse because it was
	// full when the recording started: such a recording only counts steps,
	// so it closes where a kept one would.
	keep          bool
	lane          *Lane
	key           chunkKey
	startPC       int32
	startStackLen int32
	steps         int32
	cycles        int64
	lastCycles    int64
	idealPs       int64
	startInstrs   uint64
	startMemRefs  uint64
	// writes holds each loop-counter cell the recording wrote, once, in
	// first-write order; finalize fills in the final values.
	writes []loopWrite
}

// noteFrame maintains the stack hash across pushing or popping a frame
// that returns to the block with the given frameKey, at the given depth.
func (m *memoState) noteFrame(frameKey uint64, depth int) {
	m.stackHash ^= mix64(frameKey + uint64(depth)*hashGamma)
}

// noteLoopWrite maintains the loop-counter hash across one update of the
// cell of the counted back edge info and feeds the recorder's write set.
func (m *memoState) noteLoopWrite(info *blockInfo, old, val int32) {
	if old != 0 {
		m.loopHash ^= mix64(info.loopKey + uint64(uint32(old))*hashGamma)
	}
	if val != 0 {
		m.loopHash ^= mix64(info.loopKey + uint64(uint32(val))*hashGamma)
	}
	if m.rec.active && m.rec.keep {
		m.rec.touch(info.loop)
	}
}

// touch adds a loop-counter cell to the write set unless it is already
// there. A chunk writes a handful of distinct cells, so a scan beats a map.
func (r *recorder) touch(loop int32) {
	for _, w := range r.writes {
		if w.loop == loop {
			return
		}
	}
	r.writes = append(r.writes, loopWrite{loop: loop})
}

// start arms the recorder at the current state (a lookup miss).
func (r *recorder) start(p *Process, lane *Lane, key chunkKey) {
	r.active = true
	r.keep = !lane.memo.full()
	r.lane = lane
	r.key = key
	r.startPC = p.pc
	r.startStackLen = int32(len(p.stack))
	r.steps = 0
	r.cycles = 0
	r.lastCycles = 0
	r.idealPs = 0
	r.startInstrs = p.Counters.Instructions
	r.startMemRefs = p.Counters.MemRefs
	r.writes = r.writes[:0]
}

// finalize closes the active recording and offers the chunk to its lane,
// unless its deltas are too wide for the chunk's 32-bit fields.
func (m *memoState) finalize(p *Process) {
	r := &m.rec
	r.active = false
	if !r.keep || r.steps == 0 {
		return
	}
	instrs := p.Counters.Instructions - r.startInstrs
	memRefs := p.Counters.MemRefs - r.startMemRefs
	if instrs > math.MaxUint32 || memRefs > math.MaxUint32 || r.lastCycles > math.MaxUint32 {
		return
	}
	for i := range r.writes {
		w := &r.writes[i]
		w.val = p.loopCounts[w.loop]
	}
	c := chunk{
		cycles:        r.cycles,
		idealPs:       r.idealPs,
		endStackHash:  m.stackHash,
		endLoopHash:   m.loopHash,
		endRng:        p.rand.State(),
		instrs:        uint32(instrs),
		memRefs:       uint32(memRefs),
		lastCycles:    uint32(r.lastCycles),
		startPC:       r.startPC,
		startStackLen: r.startStackLen,
		endPC:         p.pc,
		steps:         uint16(r.steps),
	}
	r.lane.insert(r.key, &c, p.stack, r.writes)
}

// EnableMemo arms segment memoization for this process. Must be called
// before the first step: the incremental hashes summarize the interpreter
// state from its initial (empty) configuration.
func (p *Process) EnableMemo() {
	if p.memo == nil {
		p.memo = &memoState{}
	}
}

// Advance attempts to replay a cached chunk at the current state under the
// given lane, returning the cycles consumed (0: no replay — the caller
// must take a native step). budget is the remaining slice budget; a chunk
// replays only if the unmemoized loop would have started every one of its
// steps (cycles before the last step strictly below budget, matching
// `for used < slice`).
// A lookup miss arms the recorder, so the following native steps build the
// chunk that will serve this state next time. No lookup happens while a
// recording is open, nor on a lane without a memo.
func (p *Process) Advance(lane *Lane, budget int64) int64 {
	if m := p.memo; m == nil || m.rec.active || lane.memo == nil {
		return 0
	}
	return p.replay(lane, budget)
}

// replay is Advance past its gate: the memo is enabled and no recording
// is open.
func (p *Process) replay(lane *Lane, budget int64) int64 {
	m := p.memo
	info := &p.Img.blocks[p.pc]
	if len(info.markIDs) > 0 || (info.kind == termRet && len(p.stack) == 0) {
		// Observer boundary (mark hook / exit hook): always native.
		return 0
	}
	key := chunkKey{pos: info.posKey ^ m.stackHash ^ m.loopHash, rng: p.rand.State()}
	c := lane.lookup(key)
	if c == nil {
		lane.memo.misses.Add(1)
		m.rec.start(p, lane, key)
		return 0
	}
	if c.startPC != p.pc || int(c.startStackLen) != len(p.stack) {
		// ~128-bit key collision: vanishingly unlikely, but refuse rather
		// than corrupt the run.
		lane.memo.misses.Add(1)
		return 0
	}
	if c.cycles-int64(c.lastCycles) >= budget {
		return 0
	}
	p.replayChunk(lane, c)
	return c.cycles
}

// replayChunk applies a chunk's deltas and restores its end state.
func (p *Process) replayChunk(lane *Lane, c *chunk) {
	p.Counters.AddBatch(uint64(c.instrs), uint64(c.cycles), uint64(c.memRefs))
	if p.Work != nil {
		p.Work.Add(c.cycles*lane.par.PsPerCycle, c.idealPs)
	}
	stack, writes := c.split()
	for ; len(writes) > 0; writes = writes[2:] {
		p.loopCounts[writes[0]] = writes[1]
	}
	p.stack = append(p.stack[:0], stack...)
	p.pc = c.endPC
	p.rand.SetState(c.endRng)
	p.memo.stackHash = c.endStackHash
	p.memo.loopHash = c.endLoopHash
	lane.memo.hits.Add(1)
	lane.memo.replayedSteps.Add(uint64(c.steps))
}

// StepLane is Step with the block cost read from the lane's precomputed
// tables (no per-step float math) and the chunk recorder attached: one
// native step of runLane. Results are identical to Step by construction
// (the tables are built from the same helpers). Without EnableMemo it is
// Step.
func (p *Process) StepLane(lane *Lane, coreID int) StepResult {
	if p.memo == nil {
		return p.Step(&lane.par, coreID, lane.shareKB)
	}
	_, res := p.runLane(lane, coreID, 0, false)
	return res
}

// RunLane runs the Advance-else-StepLane loop of a dispatch burst in one
// call, for up to budget cycles. It stops once the budget is spent, the
// process exits, or a phase mark requests an affinity change, returning
// the cycles used and the last native step's result (zero when a replay
// spent the budget). Unless both the process (EnableMemo) and the lane
// carry a memo, every step is native, priced from the lane's cost table.
func (p *Process) RunLane(lane *Lane, coreID int, budget int64) (used int64, res StepResult) {
	if budget <= 0 {
		return 0, StepResult{}
	}
	return p.runLane(lane, coreID, budget, true)
}

// runLane is the one interpreter loop under a lane, shared by StepLane and
// RunLane. It checks the budget after each move, so with lookup off and no
// budget it takes exactly one native step. With a memo and lookup set,
// each state reached while no recording is open is first offered to the
// memo. Without one it looks up and records nothing; advanceControl still
// keeps an armed process's state hashes.
func (p *Process) runLane(lane *Lane, coreID int, budget int64, lookup bool) (used int64, res StepResult) {
	m := p.memo
	if lane.memo == nil {
		m = nil
	}
	lookup = lookup && m != nil
	blocks, cost := p.Img.blocks, lane.cost
	for {
		if lookup && !m.rec.active {
			if c := p.replay(lane, budget-used); c > 0 {
				used += c
				if used >= budget {
					return used, StepResult{}
				}
				continue
			}
		}
		info := &blocks[p.pc]
		if m != nil && m.rec.active && (len(info.markIDs) > 0 || (info.kind == termRet && len(p.stack) == 0)) {
			// Observer boundary: close the recording before executing it.
			m.finalize(p)
		}
		res = StepResult{}
		if len(info.markIDs) > 0 {
			p.execMarks(info, &lane.par, coreID, &res)
		}
		bc := &cost[p.pc]
		if p.Work != nil {
			p.Work.Add(bc.actualPs, bc.idealPs)
		}
		p.Counters.Add(uint64(info.instrs), uint64(bc.ic))
		if info.memRefs > 0 {
			p.Counters.AddMem(uint64(info.memRefs))
		}
		res.Cycles += bc.ic

		p.advanceControl(info, &res)

		if m != nil && m.rec.active {
			// The recording was closed above if this step carried a mark
			// or exited, so the whole step belongs to the chunk.
			m.rec.steps++
			m.rec.cycles += res.Cycles
			m.rec.lastCycles = res.Cycles
			m.rec.idealPs += bc.idealPs
			if m.rec.steps >= maxChunkSteps {
				m.finalize(p)
			}
		}
		used += res.Cycles
		if used >= budget || res.Exited || res.WantMask != 0 {
			return used, res
		}
	}
}

// EndSlice closes any recording in progress: a slice boundary is a point
// where the scheduler — an observer — regains control. The kernel calls it
// when a dispatch burst ends.
func (p *Process) EndSlice() {
	if p.memo != nil && p.memo.rec.active {
		p.memo.finalize(p)
	}
}
