package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"phasetune/internal/amp"
	"phasetune/internal/ledger"
	"phasetune/internal/prog"
	"phasetune/internal/rng"
)

// nestedProgram calls a procedure holding two nested counted loops and a
// random branch from a long counted outer loop, so its chunks end inside a
// call (a non-empty end stack) and rewrite loop counters many times each.
func nestedProgram(outer float64) *prog.Program {
	b := prog.NewBuilder("nested")
	main := b.Proc("main")
	b.SetEntry("main")
	main.Loop(outer, func(pb *prog.ProcBuilder) {
		pb.CallProc("kernel")
	}).Ret()
	b.Proc("kernel").Loop(7, func(pb *prog.ProcBuilder) {
		pb.Loop(5, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntALU: 6, Load: 2, WorkingSetKB: 512, Locality: 0.5})
		})
		pb.IfElse(0.3, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntMul: 4})
		}, func(pb *prog.ProcBuilder) {
			pb.Straight(prog.BlockMix{IntALU: 2})
		})
	}).Ret()
	return b.MustBuild()
}

// dispatch drives p the way the kernel does, for up to slices slices of
// slice cycles each: RunLane until the slice is spent or the process
// exits, then close the recording at the slice boundary.
func dispatch(p *Process, lane *Lane, slice int64, slices int) {
	for n := 0; n < slices && !p.Exited(); n++ {
		for used := int64(0); used < slice && !p.Exited(); {
			ran, _ := p.RunLane(lane, 0, slice-used)
			used += ran
		}
		p.EndSlice()
	}
}

// stepLoop is the per-step loop RunLane replaces, the reference it must
// match: Advance where a chunk fits, StepLane otherwise, until the budget
// is spent, the process exits or a mark requests an affinity change. Like
// RunLane it returns the last native step's result, zero when the run
// ended on a replay.
func stepLoop(p *Process, lane *Lane, budget int64) (used int64, res StepResult) {
	for used < budget {
		if c := p.Advance(lane, budget-used); c > 0 {
			used += c
			res = StepResult{}
			continue
		}
		res = p.StepLane(lane, 0)
		used += res.Cycles
		if res.Exited || res.WantMask != 0 {
			break
		}
	}
	return used, res
}

// memoFixture is one image, core and lane environment shared by a test's
// processes.
type memoFixture struct {
	img *Image
	cm  CostModel
	par *CoreParams
}

func newMemoFixture(t testing.TB, outer float64) *memoFixture {
	img, err := NewImage(nestedProgram(outer), nil, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ps := ParamsFor(DefaultCostModel(), amp.Quad2Fast2Slow())
	return &memoFixture{img: img, cm: DefaultCostModel(), par: &ps[0]}
}

func (f *memoFixture) process(seed uint64) *Process {
	p := NewProcess(1, f.img, &f.cm, seed, nil)
	p.EnableMemo()
	return p
}

func (f *memoFixture) lane(m *SegmentMemo, p *Process) *Lane {
	return m.LaneFor(p, f.par, 4096, f.par.PsPerCycle)
}

// kept returns every chunk filed in the memo's lane tables.
func kept(m *SegmentMemo) []*chunk {
	var out []*chunk
	for _, l := range m.lanes {
		for _, c := range l.table {
			if c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

func TestSlabTake(t *testing.T) {
	var s slab[int32]
	if got := s.take(0); got != nil {
		t.Fatalf("take(0) = %v, want nil", got)
	}
	a := s.take(3)
	b := s.take(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("take sizes: a len %d cap %d, b len %d cap %d, want exact", len(a), cap(a), len(b), cap(b))
	}
	a[2] = 7
	if b[0] != 0 {
		t.Fatal("neighbouring takes alias")
	}
	// Appending to a full-capacity take must copy, never write into the
	// next chunk's cells.
	_ = append(a, 9)
	if b[0] != 0 {
		t.Fatal("append to a take overwrote its neighbour")
	}
	for i := 0; i < 4*slabMax; i++ {
		s.take(1)
	}
	if c := cap(s.block); c > slabMax {
		t.Fatalf("block capacity %d exceeds slabMax %d", c, slabMax)
	}
	if big := s.take(2 * slabMax); len(big) != 2*slabMax || cap(big) != 2*slabMax {
		t.Fatalf("oversize take: len %d cap %d", len(big), cap(big))
	}
}

// TestMemoKeepsExactChunks runs processes through a fresh memo and checks
// every kept chunk: its tail holds the end stack and loop writes at their
// exact size, each loop cell at most once, and memoized execution matches
// the plain interpreter step for step.
func TestMemoKeepsExactChunks(t *testing.T) {
	f := newMemoFixture(t, 300)
	memo := NewSegmentMemo(0)
	for seed := uint64(1); seed <= 3; seed++ {
		plain := NewProcess(1, f.img, &f.cm, seed, nil)
		plain.RunIsolated(f.par, 0, 4096, 0)
		for pass := 0; pass < 2; pass++ {
			p := f.process(seed)
			dispatch(p, f.lane(memo, p), 5000, math.MaxInt)
			if !p.Exited() || p.Counters != plain.Counters {
				t.Fatalf("seed %d pass %d: memoized counters %+v, plain %+v", seed, pass, p.Counters, plain.Counters)
			}
		}
	}
	st := memo.Stats()
	if st.Hits == 0 || st.Chunks == 0 {
		t.Fatalf("fixture never replayed: %+v", st)
	}
	var deep, multi int
	for _, c := range kept(memo) {
		stack, writes := c.split()
		if cap(c.tail) != len(c.tail) || len(writes)%2 != 0 {
			t.Fatalf("chunk tail not exact: len %d cap %d, %d frames and %d write cells",
				len(c.tail), cap(c.tail), c.endStackLen, len(writes))
		}
		seen := map[int32]bool{}
		for ; len(writes) > 0; writes = writes[2:] {
			cell := writes[0]
			if seen[cell] {
				t.Fatalf("loop cell %v stored twice in one chunk", cell)
			}
			seen[cell] = true
		}
		if len(stack) > 0 {
			deep++
		}
		if len(seen) > 1 {
			multi++
		}
	}
	if deep == 0 || multi == 0 {
		t.Fatalf("fixture too shallow: %d chunks end in a call, %d write several loop cells", deep, multi)
	}
}

// TestLaneInsertFirstWriterWins pins the two refusals: a state already
// published keeps its first chunk, and a full memo takes nothing.
func TestLaneInsertFirstWriterWins(t *testing.T) {
	f := newMemoFixture(t, 10)
	memo := NewSegmentMemo(2)
	lane := f.lane(memo, f.process(1))
	stack := []int32{2}
	writes := []loopWrite{{loop: 3, val: 4}}

	lane.insert(chunkKey{pos: 1}, &chunk{steps: 3}, stack, writes)
	lane.insert(chunkKey{pos: 1}, &chunk{steps: 5}, nil, nil)
	c := lane.lookup(chunkKey{pos: 1})
	if c == nil || c.steps != 3 || c.key != (chunkKey{pos: 1}) || c.endStackLen != 1 || len(c.tail) != 3 {
		t.Fatalf("first writer lost: %+v", c)
	}
	stack[0], writes[0] = 0, loopWrite{}
	if want := []int32{2, 3, 4}; !slices.Equal(c.tail, want) {
		t.Fatalf("kept tail %v, want %v: it shares the recorder's buffers", c.tail, want)
	}

	lane.insert(chunkKey{pos: 2}, &chunk{steps: 1}, nil, nil)
	lane.insert(chunkKey{pos: 3}, &chunk{steps: 1}, nil, nil)
	if lane.lookup(chunkKey{pos: 3}) != nil {
		t.Fatal("full memo accepted a chunk")
	}
	if st := memo.Stats(); st.Chunks != 2 || st.RecordedSteps != 4 || st.Fill() != 1 {
		t.Fatalf("stats after refusals: %+v", st)
	}
}

// TestMemoFullRecordsNothing fills a small memo, then requires further
// dispatch to allocate nothing and keep nothing while still serving hits.
func TestMemoFullRecordsNothing(t *testing.T) {
	f := newMemoFixture(t, 1e6)
	memo := NewSegmentMemo(16)
	first := f.process(1)
	dispatch(first, f.lane(memo, first), 5000, 40)
	full := memo.Stats()
	if full.Chunks != 16 || full.Fill() != 1 {
		t.Fatalf("memo did not fill: %+v", full)
	}

	p := f.process(2)
	lane := f.lane(memo, p)
	dispatch(p, lane, 5000, 40) // grow the recorder's buffers
	allocs := testing.AllocsPerRun(20, func() { dispatch(p, lane, 5000, 10) })
	if allocs != 0 {
		t.Errorf("full memo: %v allocations per 10 slices, want 0", allocs)
	}
	st := memo.Stats()
	if st.Chunks != full.Chunks || st.RecordedSteps != full.RecordedSteps {
		t.Errorf("full memo kept more: %+v, was %+v", st, full)
	}
	if st.Misses <= full.Misses {
		t.Errorf("full memo stopped looking up: %+v", st)
	}

	again := f.process(1)
	dispatch(again, f.lane(memo, again), 5000, 40)
	if memo.Stats().Hits == 0 {
		t.Error("full memo stopped serving hits")
	}
}

// TestLaneTableProbesPastCollisions files keys whose positions share their
// low bits, so each probes past the others: the last ones wrap around the
// table's end. Every key must still be found, in probe order, and an
// absent key with the same low bits must miss.
func TestLaneTableProbesPastCollisions(t *testing.T) {
	f := newMemoFixture(t, 10)
	lane := f.lane(NewSegmentMemo(0), f.process(1))
	const last = laneMinSlots - 1
	keys := []chunkKey{{pos: last}, {pos: last | 1<<40}, {pos: last | 2<<40, rng: 9}, {pos: last, rng: 1}}
	for i, k := range keys {
		lane.insert(k, &chunk{steps: uint16(i + 1)}, nil, nil)
	}
	if len(lane.table) != laneMinSlots {
		t.Fatalf("table grew to %d slots for %d chunks", len(lane.table), len(keys))
	}
	for i, k := range keys {
		slot := (last + i) % laneMinSlots
		if c := lane.table[slot]; c == nil || c.key != k {
			t.Fatalf("key %d: slot %d holds %+v, want it after %d collisions", i, slot, c, i)
		}
		if c := lane.lookup(k); c == nil || int(c.steps) != i+1 {
			t.Fatalf("key %d: lookup = %+v", i, c)
		}
	}
	if c := lane.lookup(chunkKey{pos: last | 3<<40}); c != nil {
		t.Fatalf("absent colliding key found %+v", c)
	}
}

// TestLaneTableGrows files many chunks into one lane: the table must stay
// a power of two at or below 3/4 load, find every chunk after each growth,
// and miss every absent key.
func TestLaneTableGrows(t *testing.T) {
	f := newMemoFixture(t, 10)
	memo := NewSegmentMemo(0)
	lane := f.lane(memo, f.process(1))
	const n = 5000
	key := func(i int) chunkKey { return chunkKey{pos: mix64(uint64(i)), rng: uint64(i)} }
	for i := 0; i < n; i++ {
		lane.insert(key(i), &chunk{steps: uint16(i%maxChunkSteps + 1)}, nil, nil)
	}
	size := len(lane.table)
	if size&(size-1) != 0 || 4*lane.n > 3*size || lane.n != n {
		t.Fatalf("%d chunks in %d slots", lane.n, size)
	}
	for i := 0; i < n; i++ {
		if c := lane.lookup(key(i)); c == nil || c.key != key(i) {
			t.Fatalf("chunk %d lost after growth: %+v", i, c)
		}
		if c := lane.lookup(chunkKey{pos: key(i).pos, rng: n + uint64(i)}); c != nil {
			t.Fatalf("absent key %d found %+v", i, c)
		}
	}
	if st := memo.Stats(); st.Chunks != n {
		t.Fatalf("memo counts %d chunks, want %d", st.Chunks, n)
	}
}

// TestLaneConcurrentInsertLookup mixes inserts and lookups on one lane
// from several goroutines while its table grows. Goroutines insert
// overlapping key ranges, so first-writer-wins refusals race too; every
// key must end up filed once. The race detector checks the locking.
func TestLaneConcurrentInsertLookup(t *testing.T) {
	f := newMemoFixture(t, 10)
	memo := NewSegmentMemo(0)
	lane := f.lane(memo, f.process(1))
	const goroutines, keys = 4, 2000
	key := func(i int) chunkKey { return chunkKey{pos: mix64(uint64(i))} }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g * keys / 2; i < g*keys/2+keys; i++ {
				if c := lane.lookup(key(i)); c != nil && c.key != key(i) {
					t.Errorf("lookup %d returned the chunk of %+v", i, c.key)
					return
				}
				lane.insert(key(i), &chunk{steps: 1}, []int32{int32(g)}, nil)
				if lane.lookup(key(i)) == nil {
					t.Errorf("chunk %d missing after its insert", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := (goroutines + 1) * keys / 2
	if st := memo.Stats(); st.Chunks != total || lane.n != total {
		t.Fatalf("%d chunks filed (lane holds %d), want %d", st.Chunks, lane.n, total)
	}
	for i := 0; i < total; i++ {
		if lane.lookup(key(i)) == nil {
			t.Fatalf("chunk %d lost", i)
		}
	}
}

// TestChunkHeaderSize pins the compact header, key included.
func TestChunkHeaderSize(t *testing.T) {
	if size := unsafe.Sizeof(chunk{}); size > 112 {
		t.Fatalf("chunk header is %d bytes, want at most 112", size)
	}
}

// maxBytesPerChunk bounds what a kept chunk of the fill fixture costs:
// header, tail and its share of the table slots. The implementation
// measured 156.0 bytes (a 112-byte header, 28.0 bytes of tail and 16
// bytes of table at half load); the bound leaves 10% on top.
const maxBytesPerChunk = 172

// TestMemoBytesPerChunk fills a memo from the fixture and bounds the bytes
// each kept chunk holds: its header, its tail, and the lane table slots
// divided among the chunks they file.
func TestMemoBytesPerChunk(t *testing.T) {
	f := newMemoFixture(t, 1e6)
	const limit = 1 << 12
	memo := NewSegmentMemo(limit)
	for seed := uint64(1); memo.Stats().Fill() < 1; seed++ {
		p := f.process(seed)
		dispatch(p, f.lane(memo, p), 5000, 200)
	}
	var tail, slots int
	for _, l := range memo.lanes {
		slots += len(l.table)
	}
	chunks := kept(memo)
	for _, c := range chunks {
		tail += len(c.tail)
	}
	header := unsafe.Sizeof(chunk{})
	total := int(header)*len(chunks) + int(unsafe.Sizeof(int32(0)))*tail + int(unsafe.Sizeof((*chunk)(nil)))*slots
	perChunk := float64(total) / float64(len(chunks))
	t.Logf("%d chunks: %d-byte headers, %d tail cells, %d table slots: %.1f bytes per chunk",
		len(chunks), header, tail, slots, perChunk)
	if perChunk > maxBytesPerChunk {
		t.Fatalf("%.1f bytes per kept chunk, want at most %d", perChunk, maxBytesPerChunk)
	}
}

// wideTrips is how often wideSyscallProgram executes its syscall.
const wideTrips = 40

// wideSyscallProgram loops over a syscall, whose cost a test may set past
// 32 bits, between two ordinary blocks.
func wideSyscallProgram() *prog.Program {
	b := prog.NewBuilder("wide")
	b.Proc("main").Loop(wideTrips, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 3}).Syscall().Straight(prog.BlockMix{IntALU: 2})
	}).Ret()
	return b.MustBuild()
}

// TestMemoRefusesWideRecordings runs a program whose syscall step costs
// more cycles than a chunk's 32-bit last-step field holds. Each such step
// ends its slice, and so its recording: no kept chunk may cover it, so a
// second pass misses at every syscall again, and both passes must count
// exactly what the plain interpreter counts. At the default syscall cost
// the same recordings are kept and replayed.
func TestMemoRefusesWideRecordings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		syscall float64
		wide    bool
	}{
		{"wide", 1 << 33, true},
		{"narrow", DefaultCostModel().SyscallCycles, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cm := DefaultCostModel()
			cm.SyscallCycles = tc.syscall
			img, err := NewImage(wideSyscallProgram(), nil, cm)
			if err != nil {
				t.Fatal(err)
			}
			par := &ParamsFor(cm, amp.Quad2Fast2Slow())[0]
			plain := NewProcess(1, img, &cm, 1, nil)
			plain.RunIsolated(par, 0, 4096, 0)
			memo := NewSegmentMemo(0)
			var misses [2]uint64
			for pass := range misses {
				before := memo.Stats().Misses
				p := NewProcess(1, img, &cm, 1, nil)
				p.EnableMemo()
				dispatch(p, memo.LaneFor(p, par, 4096, par.PsPerCycle), 5000, math.MaxInt)
				if !p.Exited() || p.Counters != plain.Counters {
					t.Fatalf("pass %d: memoized counters %+v, plain %+v", pass, p.Counters, plain.Counters)
				}
				misses[pass] = memo.Stats().Misses - before
			}
			covered := 0
			for _, c := range kept(memo) {
				if c.cycles >= int64(tc.syscall) {
					covered++
				}
			}
			if tc.wide && (covered > 0 || misses[1] < wideTrips) {
				t.Fatalf("%d kept chunks cover the wide step; second pass missed %d times, want at least %d",
					covered, misses[1], wideTrips)
			}
			if !tc.wide && (covered == 0 || misses[1] >= wideTrips) {
				t.Fatalf("no kept chunk covers the syscall (%d) or the second pass missed %d times", covered, misses[1])
			}
		})
	}
}

// The memo benchmarks time the dispatch regimes on the nested fixture:
// recording into a fresh memo and stepping past a full one, per 5000-cycle
// slice, and replaying a warm lane, per pass. Plain Step, per step, is the
// cold baseline.
func BenchmarkStepPlain(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	p := NewProcess(1, f.img, &f.cm, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(f.par, 0, 4096)
	}
}

func BenchmarkMemoRecord(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	const laneSlices = 32
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += laneSlices {
		p := f.process(uint64(done) + 1)
		dispatch(p, f.lane(NewSegmentMemo(0), p), 5000, min(laneSlices, b.N-done))
	}
}

func BenchmarkMemoRecordFull(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	memo := NewSegmentMemo(16)
	p := f.process(1)
	lane := f.lane(memo, p)
	dispatch(p, lane, 5000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	dispatch(p, lane, 5000, b.N)
}

func BenchmarkMemoReplay(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	const passSlices = 32
	memo := NewSegmentMemo(0)
	warm := f.process(1)
	lane := f.lane(memo, warm)
	dispatch(warm, lane, 5000, passSlices)
	b.ReportAllocs()
	b.ResetTimer()
	before := memo.Stats().ReplayedSteps
	for i := 0; i < b.N; i++ {
		dispatch(f.process(1), lane, 5000, passSlices)
	}
	b.ReportMetric(float64(memo.Stats().ReplayedSteps-before)/float64(b.N), "replayed-steps/op")
}

// maskHook requests an affinity change at every other phase mark, so a
// run meets marks that stop it and marks that do not.
type maskHook struct{ marks int }

func (h *maskHook) OnMark(p *Process, markID, coreID int) MarkAction {
	h.marks++
	return MarkAction{Mask: uint64(h.marks%2) << 1}
}
func (h *maskHook) OnExit(p *Process) {}

// TestRunLaneMatchesStepLoop drives four processes of one image through
// the same random slice budgets on the slow core: one by RunLane, one by
// the per-step loop it replaces (each with a memo of its own), one plain,
// without a memo, stepping through Step's float pricing, and one by
// RunLane on the image's own lane, with no memo, as the kernel runs by
// default. Every call must return the same cycles and stopping step, and
// after every slice the four must agree on counters, program counter,
// stack, loop counters, rng state and the ledger work they charged (which
// pins the tables' fastest-clock counterfactual to Step's), the two
// memoized ones also on their state hashes and memo counters. Each seed
// runs three times: the second run slices like the first and replays what
// it recorded, the third slices differently, so replays meet budgets
// their chunks do not fit.
func TestRunLaneMatchesStepLoop(t *testing.T) {
	nested := newMemoFixture(t, 300)
	ps := ParamsFor(DefaultCostModel(), amp.Quad2Fast2Slow())
	slow, fastPs := &ps[1], ps[0].PsPerCycle
	for _, img := range []*Image{nested.img, instrumentedImage(t)} {
		cm := DefaultCostModel()
		runMemo, refMemo := NewSegmentMemo(0), NewSegmentMemo(0)
		for seed := uint64(1); seed <= 8; seed++ {
			for pass := uint64(0); pass < 3; pass++ {
				run := NewProcess(1, img, &cm, seed, &maskHook{})
				ref := NewProcess(1, img, &cm, seed, &maskHook{})
				plain := NewProcess(1, img, &cm, seed, &maskHook{})
				table := NewProcess(1, img, &cm, seed, &maskHook{})
				procs := []*Process{run, ref, plain, table}
				for _, q := range procs {
					q.Work = ledger.NewCollector(1, fastPs).Work()
				}
				run.EnableMemo()
				ref.EnableMemo()
				runLane := runMemo.LaneFor(run, slow, 4096, fastPs)
				refLane := refMemo.LaneFor(ref, slow, 4096, fastPs)
				plainLane := NewSegmentMemo(0).LaneFor(plain, slow, 4096, fastPs)
				tableLane := table.Lane(slow, 4096, fastPs)
				if ran, res := run.RunLane(runLane, 0, 0); ran != 0 || res != (StepResult{}) {
					t.Fatalf("RunLane with no budget ran %d cycles to %+v", ran, res)
				}
				budgets := rng.New(seed<<8 | pass/2)
				for slice := 0; !run.Exited(); slice++ {
					where := fmt.Sprintf("%s seed %d pass %d slice %d", img.Name, seed, pass, slice)
					budget := int64(1 + budgets.Intn(12000))
					for used := int64(0); used < budget && !run.Exited(); {
						ranRun, resRun := run.RunLane(runLane, 0, budget-used)
						ranRef, resRef := stepLoop(ref, refLane, budget-used)
						ranPlain, resPlain := stepLoop(plain, plainLane, budget-used)
						ranTable, resTable := table.RunLane(tableLane, 0, budget-used)
						// A replay ends a memoized run where the native ones
						// end on a step: only the stop must agree.
						resPlain.Cycles, resTable.Cycles = resRun.Cycles, resRun.Cycles
						if ranRun != ranRef || resRun != resRef || ranRun != ranPlain || resRun != resPlain ||
							ranRun != ranTable || resRun != resTable {
							t.Fatalf("%s: RunLane ran %d cycles to %+v, step loop %d to %+v, plain %d to %+v, table %d to %+v",
								where, ranRun, resRun, ranRef, resRef, ranPlain, resPlain, ranTable, resTable)
						}
						used += ranRun
					}
					for _, q := range procs {
						q.EndSlice()
					}
					work := run.Work.Drain()
					for _, q := range procs[1:] {
						if run.Counters != q.Counters || run.pc != q.pc || !slices.Equal(run.stack, q.stack) ||
							!slices.Equal(run.loopCounts, q.loopCounts) || run.rand.State() != q.rand.State() ||
							run.MarksExecuted != q.MarksExecuted || run.Exited() != q.Exited() {
							t.Fatalf("%s: RunLane left pc %d stack %v loops %v counters %+v, reference pc %d stack %v loops %v counters %+v",
								where, run.pc, run.stack, run.loopCounts, run.Counters, q.pc, q.stack, q.loopCounts, q.Counters)
						}
						if got := q.Work.Drain(); !slices.Equal(work, got) {
							t.Fatalf("%s: RunLane charged ledger work %+v, reference %+v", where, work, got)
						}
					}
					rm, fm := run.memo, ref.memo
					if rm.stackHash != fm.stackHash || rm.loopHash != fm.loopHash || rm.rec.active != fm.rec.active ||
						runMemo.Stats() != refMemo.Stats() {
						t.Fatalf("%s: RunLane memo %+v hashes %x/%x, step loop memo %+v hashes %x/%x", where,
							runMemo.Stats(), rm.stackHash, rm.loopHash, refMemo.Stats(), fm.stackHash, fm.loopHash)
					}
				}
			}
		}
		if st := runMemo.Stats(); st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("%s: the runs never replayed or never recorded: %+v", img.Name, st)
		}
	}
}

// TestBranchThresholdMatchesFloat64 checks that the integer branch draw
// takes a branch on exactly the draws where the float draw it replaced
// does: at the edges of each threshold and on a million random draws.
func TestBranchThresholdMatchesFloat64(t *testing.T) {
	a, b := 0.1, 0.2
	const draws = 1 << 53
	for _, p := range []float64{
		0, math.SmallestNonzeroFloat64, 1.0 / draws, 0.25, a + b, 1 - 1.0/draws, 1,
		math.NaN(), -0.5, 1.5,
	} {
		th := branchThreshold(p)
		edge := math.Ceil(p * draws)
		for _, x := range []float64{edge - 1, edge, draws - 1} {
			if !(x >= 0 && x < draws) {
				continue
			}
			u := uint64(x)
			if want, got := float64(u)/draws < p, u < th; got != want {
				t.Errorf("p=%g: draw %d taken %v, float draw %v", p, u, got, want)
			}
		}
		floats, ints := rng.New(uint64(th)+1), rng.New(uint64(th)+1)
		for i := 0; i < 1_000_000; i++ {
			if want, got := floats.Float64() < p, ints.Uint64()>>11 < th; got != want {
				t.Fatalf("p=%g: random draw %d taken %v, float draw %v", p, i, got, want)
			}
		}
	}
}
