package exec

import (
	"math"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/prog"
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

// dispatch drives p the way the kernel does, for up to moves moves (one
// native step or one chunk replay each): replay when a chunk fits the
// slice, otherwise step, and close the recording at every slice boundary.
func dispatch(p *Process, lane *Lane, slice int64, moves int) {
	for n := 0; n < moves && !p.Exited(); {
		for used := int64(0); used < slice && !p.Exited() && n < moves; n++ {
			if c := p.Advance(lane, slice-used); c > 0 {
				used += c
				continue
			}
			used += p.StepLane(lane, 0).Cycles
		}
		p.EndSlice()
	}
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

func TestSlabTake(t *testing.T) {
	var s slab[loopWrite]
	if got := s.take(0); got != nil {
		t.Fatalf("take(0) = %v, want nil", got)
	}
	a := s.take(3)
	b := s.take(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("take sizes: a len %d cap %d, b len %d cap %d, want exact", len(a), cap(a), len(b), cap(b))
	}
	a[2] = loopWrite{val: 7}
	if b[0] != (loopWrite{}) {
		t.Fatal("neighbouring takes alias")
	}
	// Appending to a full-capacity take must copy, never write into the
	// next chunk's cells.
	_ = append(a, loopWrite{val: 9})
	if b[0] != (loopWrite{}) {
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
// every kept chunk: end stack and loop writes are stored at their exact
// size, each loop cell at most once, and memoized execution matches the
// plain interpreter step for step.
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
	for _, l := range memo.lanes {
		for _, c := range l.chunks {
			if cap(c.endStack) != len(c.endStack) || cap(c.loopWrites) != len(c.loopWrites) {
				t.Fatalf("chunk slices not exact: stack %d/%d, writes %d/%d",
					len(c.endStack), cap(c.endStack), len(c.loopWrites), cap(c.loopWrites))
			}
			seen := map[[2]int32]bool{}
			for _, w := range c.loopWrites {
				cell := [2]int32{w.proc, w.block}
				if seen[cell] {
					t.Fatalf("loop cell %v stored twice in one chunk", cell)
				}
				seen[cell] = true
			}
			if len(c.endStack) > 0 {
				deep++
			}
			if len(c.loopWrites) > 1 {
				multi++
			}
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
	stack := []frame{{proc: 1, block: 2}}
	writes := []loopWrite{{proc: 1, block: 3, val: 4}}

	lane.insert(chunkKey{pos: 1}, &chunk{steps: 3}, stack, writes)
	lane.insert(chunkKey{pos: 1}, &chunk{steps: 5}, nil, nil)
	c := lane.lookup(chunkKey{pos: 1})
	if c == nil || c.steps != 3 || len(c.endStack) != 1 || len(c.loopWrites) != 1 {
		t.Fatalf("first writer lost: %+v", c)
	}
	stack[0], writes[0] = frame{}, loopWrite{}
	if c.endStack[0] != (frame{proc: 1, block: 2}) || c.loopWrites[0].val != 4 {
		t.Fatal("kept chunk shares the recorder's buffers")
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
	dispatch(first, f.lane(memo, first), 5000, 20000)
	full := memo.Stats()
	if full.Chunks != 16 || full.Fill() != 1 {
		t.Fatalf("memo did not fill: %+v", full)
	}

	p := f.process(2)
	lane := f.lane(memo, p)
	dispatch(p, lane, 5000, 20000) // grow the recorder's buffers
	allocs := testing.AllocsPerRun(20, func() { dispatch(p, lane, 5000, 5000) })
	if allocs != 0 {
		t.Errorf("full memo: %v allocations per 5000 moves, want 0", allocs)
	}
	st := memo.Stats()
	if st.Chunks != full.Chunks || st.RecordedSteps != full.RecordedSteps {
		t.Errorf("full memo kept more: %+v, was %+v", st, full)
	}
	if st.Misses <= full.Misses {
		t.Errorf("full memo stopped looking up: %+v", st)
	}

	again := f.process(1)
	dispatch(again, f.lane(memo, again), 5000, 20000)
	if memo.Stats().Hits == 0 {
		t.Error("full memo stopped serving hits")
	}
}

// The memo benchmarks time the dispatch regimes on the nested fixture:
// recording into a fresh memo and stepping past a full one, per move, and
// replaying a warm lane, per pass. Plain Step is the cold baseline.
func BenchmarkStepPlain(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	p := NewProcess(1, f.img, &f.cm, 1, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Step(f.par, 0, 4096)
	}
}

func BenchmarkMemoRecord(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	const laneMoves = 1 << 14
	b.ReportAllocs()
	for done := 0; done < b.N; done += laneMoves {
		p := f.process(uint64(done) + 1)
		dispatch(p, f.lane(NewSegmentMemo(0), p), 5000, min(laneMoves, b.N-done))
	}
}

func BenchmarkMemoRecordFull(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	memo := NewSegmentMemo(16)
	p := f.process(1)
	lane := f.lane(memo, p)
	dispatch(p, lane, 5000, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	dispatch(p, lane, 5000, b.N)
}

func BenchmarkMemoReplay(b *testing.B) {
	f := newMemoFixture(b, 1e9)
	const passMoves = 1 << 14
	memo := NewSegmentMemo(0)
	warm := f.process(1)
	lane := f.lane(memo, warm)
	dispatch(warm, lane, 5000, passMoves)
	b.ReportAllocs()
	b.ResetTimer()
	before := memo.Stats().ReplayedSteps
	for i := 0; i < b.N; i++ {
		dispatch(f.process(1), lane, 5000, passMoves)
	}
	b.ReportMetric(float64(memo.Stats().ReplayedSteps-before)/float64(b.N), "replayed-steps/op")
}
