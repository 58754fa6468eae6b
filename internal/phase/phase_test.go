package phase

import (
	"math"
	"testing"

	"phasetune/internal/cfg"
	"phasetune/internal/prog"
	"phasetune/internal/rng"
)

// phasedProgram builds a program with a clearly compute-bound region and a
// clearly memory-bound region.
func phasedProgram(t *testing.T) (*prog.Program, []*cfg.Graph) {
	t.Helper()
	b := prog.NewBuilder("phased")
	main := b.Proc("main")
	// Compute phase: big integer blocks, no memory.
	main.Loop(50, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{IntALU: 20, IntMul: 4})
	})
	// Memory phase: load-heavy blocks with a working set far beyond cache.
	main.Loop(50, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{Load: 14, Store: 6, IntALU: 4, WorkingSetKB: 64 * 1024, Locality: 0.2})
	})
	main.Ret()
	p := b.MustBuild()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	return p, graphs
}

func TestBlockFeaturesSeparate(t *testing.T) {
	_, graphs := phasedProgram(t)
	g := graphs[0]
	var comp, mem *cfg.Block
	for _, blk := range g.Blocks {
		m := blk.Mix()
		if m.Total() < 10 {
			continue
		}
		if m.MemOps() == 0 {
			comp = blk
		} else {
			mem = blk
		}
	}
	if comp == nil || mem == nil {
		t.Fatal("fixture did not produce both block kinds")
	}
	fc, fm := BlockFeatures(comp), BlockFeatures(mem)
	if fc.MemIntensity >= fm.MemIntensity {
		t.Errorf("mem intensity: compute %g >= memory %g", fc.MemIntensity, fm.MemIntensity)
	}
	if fc.CacheBadness >= fm.CacheBadness {
		t.Errorf("cache badness: compute %g >= memory %g", fc.CacheBadness, fm.CacheBadness)
	}
}

func TestClusterBlocksSeparatesPhases(t *testing.T) {
	p, graphs := phasedProgram(t)
	ty, err := ClusterBlocks(p, graphs, Options{K: 2, MinBlockInstrs: 10, Seed: 1})
	if err != nil {
		t.Fatalf("ClusterBlocks: %v", err)
	}
	if ty.K != 2 {
		t.Fatalf("K = %d, want 2", ty.K)
	}
	// The compute block must be type 0 (canonical order: lower memory
	// intensity first) and the memory block type 1.
	g := graphs[0]
	for _, blk := range g.Blocks {
		m := blk.Mix()
		if m.Total() < 10 {
			continue
		}
		got := ty.TypeOf(BlockKey{Proc: 0, Block: blk.ID})
		want := Type(0)
		if m.MemOps() > 0 {
			want = 1
		}
		if got != want {
			t.Errorf("block %d (mem ops %d) typed %d, want %d", blk.ID, m.MemOps(), got, want)
		}
	}
}

func TestMinBlockSizeExcludes(t *testing.T) {
	p, graphs := phasedProgram(t)
	ty, err := ClusterBlocks(p, graphs, Options{K: 2, MinBlockInstrs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for key := range ty.Types {
		blk := graphs[key.Proc].Blocks[key.Block]
		if blk.NumInstrs() < 10 {
			t.Errorf("block %v with %d instrs typed despite min size 10", key, blk.NumInstrs())
		}
	}
}

func TestTypeOfUntyped(t *testing.T) {
	ty := &Typing{K: 2, Types: map[BlockKey]Type{{0, 1}: 1}}
	if got := ty.TypeOf(BlockKey{0, 99}); got != Untyped {
		t.Errorf("TypeOf(absent) = %d, want Untyped", got)
	}
	if got := ty.TypeOf(BlockKey{0, 1}); got != 1 {
		t.Errorf("TypeOf(present) = %d, want 1", got)
	}
}

func TestInjectErrorFraction(t *testing.T) {
	ty := &Typing{K: 2, Types: map[BlockKey]Type{}}
	for i := 0; i < 100; i++ {
		ty.Types[BlockKey{0, i}] = Type(i % 2)
	}
	for _, frac := range []float64{0, 0.1, 0.2, 0.3, 1} {
		inj := ty.InjectError(frac, rng.New(42))
		flipped := 0
		for k, v := range ty.Types {
			if inj.Types[k] != v {
				flipped++
			}
		}
		want := int(frac * 100)
		if flipped != want {
			t.Errorf("frac %g: flipped %d blocks, want %d", frac, flipped, want)
		}
	}
}

func TestInjectErrorClampsAndPreservesOriginal(t *testing.T) {
	ty := &Typing{K: 2, Types: map[BlockKey]Type{{0, 0}: 0, {0, 1}: 1}}
	orig := ty.Clone()
	_ = ty.InjectError(2.0, rng.New(1)) // clamped to 1, must not touch ty
	for k, v := range orig.Types {
		if ty.Types[k] != v {
			t.Error("InjectError mutated the receiver")
		}
	}
	inj := ty.InjectError(-1, rng.New(1))
	for k, v := range ty.Types {
		if inj.Types[k] != v {
			t.Error("negative fraction flipped blocks")
		}
	}
}

func TestInjectErrorSingleType(t *testing.T) {
	ty := &Typing{K: 1, Types: map[BlockKey]Type{{0, 0}: 0}}
	inj := ty.InjectError(1, rng.New(1))
	if inj.Types[BlockKey{0, 0}] != 0 {
		t.Error("single-type typing changed by error injection")
	}
}

func TestOracleTyping(t *testing.T) {
	ipc := map[BlockKey][]float64{
		{0, 0}: {1.0, 1.0},  // equal IPC -> compute type 0
		{0, 1}: {0.3, 0.6},  // slow core much better -> memory type 1
		{0, 2}: {0.9, 0.95}, // below threshold -> type 0
	}
	ty := OracleTyping(ipc, 0.2)
	if ty.TypeOf(BlockKey{0, 0}) != 0 {
		t.Error("equal-IPC block not typed 0")
	}
	if ty.TypeOf(BlockKey{0, 1}) != 1 {
		t.Error("slow-favored block not typed 1")
	}
	if ty.TypeOf(BlockKey{0, 2}) != 0 {
		t.Error("sub-threshold block not typed 0")
	}
	if ty.TypeOf(BlockKey{0, 3}) != Untyped {
		t.Error("missing block not untyped")
	}
}

func TestAgreement(t *testing.T) {
	a := &Typing{K: 2, Types: map[BlockKey]Type{{0, 0}: 0, {0, 1}: 1, {0, 2}: 0}}
	b := &Typing{K: 2, Types: map[BlockKey]Type{{0, 0}: 0, {0, 1}: 0, {0, 2}: 0, {0, 3}: 1}}
	got := Agreement(a, b)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Agreement = %g, want 2/3", got)
	}
	if Agreement(&Typing{Types: map[BlockKey]Type{}}, b) != 0 {
		t.Error("Agreement with no common blocks should be 0")
	}
}

func TestComputeStats(t *testing.T) {
	ty := &Typing{K: 2, Types: map[BlockKey]Type{{0, 0}: 0, {0, 1}: 1, {0, 2}: 1}}
	s := ComputeStats(ty)
	if s.TypedBlocks != 3 || s.PerType[0] != 1 || s.PerType[1] != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestClusterBlocksErrors(t *testing.T) {
	p, graphs := phasedProgram(t)
	if _, err := ClusterBlocks(p, graphs, Options{K: 2, MinBlockInstrs: 10000}); err == nil {
		t.Error("impossible min size accepted")
	}
}

func TestClusterBlocksDeterministic(t *testing.T) {
	p, graphs := phasedProgram(t)
	a, err := ClusterBlocks(p, graphs, Options{K: 2, MinBlockInstrs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterBlocks(p, graphs, Options{K: 2, MinBlockInstrs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Types {
		if b.Types[k] != v {
			t.Fatalf("typing differs at %v", k)
		}
	}
}

// TestOptionsNormalized pins the one typing-default fill: a zero Options
// becomes k = 2 over blocks of at least 5 instructions, and set fields
// (including a negative MinBlockInstrs, which types every block) survive.
func TestOptionsNormalized(t *testing.T) {
	if got := (Options{}).Normalized(); got.K != 2 || got.MinBlockInstrs != 5 {
		t.Errorf("zero Options normalized to %+v, want K=2 MinBlockInstrs=5", got)
	}
	o := Options{K: 3, MinBlockInstrs: -1, Seed: 7, MergeEps: 0.1}
	if got := o.Normalized(); got != o {
		t.Errorf("set Options normalized to %+v, want %+v", got, o)
	}
}
