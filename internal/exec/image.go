package exec

import (
	"fmt"
	"math"
	"sync"

	"phasetune/internal/cfg"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/prog"
	"phasetune/internal/reuse"
)

// termKind classifies how a block transfers control.
type termKind uint8

const (
	termFall termKind = iota // unconditional fallthrough (or jump)
	termBranch
	termCall
	termRet
)

// blockInfo is the interpreter's precomputed view of one basic block.
// Blocks are numbered by global id: the image's procedures' blocks laid
// end to end in procedure order, so one index names a block anywhere.
type blockInfo struct {
	// The fields a step reads come first, so they share cache lines.
	kind termKind
	// syscall marks syscall special nodes (extra fixed cost).
	syscall   bool
	tripCount int32 // >0: counted loop back edge (taken tripCount-1 times)
	loop      int32 // counted back edge's loop-counter index (-1 none)
	taken     int32 // global id of the taken successor
	fall      int32 // global id of the fallthrough successor (-1 none: ret/exit)
	callee    int32 // global id of the callee's entry block for termCall
	// takenThresh is the branch's taken probability as a threshold on a
	// 53-bit draw (branchThreshold).
	takenThresh uint64
	// instrs is the retired-instruction count (phase marks excluded; they
	// are charged via CostModel.MarkInstrs).
	instrs int64
	// memRefs is the retired memory-reference count per execution.
	memRefs int64
	// markIDs lists phase marks executed at the top of this block, in order.
	markIDs []int32

	// baseCycles is the core-type-independent pipeline cost of the block's
	// instructions (per-class CPI summed), excluding memory stalls.
	baseCycles float64
	// l1MissRefs is the expected number of references per execution that
	// miss the private L1 and reach the shared cache.
	l1MissRefs float64
	// profile is the block's aggregated reuse profile.
	profile reuse.Profile
}

// branchThreshold converts a taken probability into the integer threshold
// the interpreter compares a 53-bit draw against: a branch is taken when
// rng.Uint64()>>11 < branchThreshold(p). Float64() is that draw times
// 2⁻⁵³, exactly, so the compare takes the branch on exactly the draws
// where Float64() < p does: never for p ≤ 0 or NaN, always for p ≥ 1.
func branchThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Image is an executable program image: the (optionally instrumented)
// program plus everything the interpreter precomputes. Images are immutable
// after construction, apart from their lazily built cost tables, and
// shared by all processes executing the same binary.
type Image struct {
	// Name is the program name.
	Name string
	// Prog is the executed program.
	Prog *prog.Program
	// Marks is the mark table (empty for uninstrumented images).
	Marks []instrument.Mark
	// Graphs are the CFGs of Prog.
	Graphs []*cfg.Graph

	blocks []blockInfo // indexed by global block id
	entry  int32       // global id of the entry procedure's first block
	loops  int32       // counted back edges, each with a loop-counter index
	memSig place.MemStats

	// lanes holds the image's cost tables, one lane per pricing
	// environment, each built at the first dispatch burst that needs it
	// (Process.Lane). Images shared through an ImageCache share them.
	laneMu sync.Mutex
	lanes  map[priceKey]*Lane
}

// priceKey identifies a pricing environment: processes of one image that
// agree on every field price every block identically.
type priceKey struct {
	par         CoreParams
	shareBits   uint64 // math.Float64bits of the effective cache share
	syscallBits uint64 // math.Float64bits of the cost model's syscall cost
	fastPs      int64  // fastest clock, prices the ledger counterfactual
}

// Lane is an image priced under one environment: the cost table RunLane
// steps from. Built and shared through Process.Lane.
type Lane struct {
	key     priceKey
	par     CoreParams
	shareKB float64
	cost    []blockCost // indexed by global block id
}

// blockCost is one block's precomputed pricing under a lane. Building it
// once per lane also removes the per-step math.Exp from the native path.
type blockCost struct {
	ic       int64 // body cycles (identical to Step's truncation)
	actualPs int64 // ic × PsPerCycle
	idealPs  int64 // fastest-clock counterfactual picoseconds
}

// Lane returns the process's image priced under one environment (core
// type, effective cache share, fastest clock, and the process's syscall
// cost), building its cost table on first use. The lane is shared by
// every process of the image. The process keeps the last lane it got, which
// spares most dispatch bursts the image's lock and map.
func (p *Process) Lane(par *CoreParams, shareKB float64, fastPs int64) *Lane {
	img, syscall := p.Img, p.cm.SyscallCycles
	key := priceKey{*par, math.Float64bits(shareKB), math.Float64bits(syscall), fastPs}
	if l := p.lane; l != nil && l.key == key {
		return l
	}
	img.laneMu.Lock()
	l := img.lanes[key]
	if l == nil {
		l = &Lane{key: key, par: *par, shareKB: shareKB, cost: make([]blockCost, len(img.blocks))}
		for b := range l.cost {
			info := &img.blocks[b]
			ic := bodyCycles(info, par, syscall, shareKB)
			l.cost[b] = blockCost{ic, ic * par.PsPerCycle, bodyIdealPs(info, par, ic, shareKB, fastPs)}
		}
		if img.lanes == nil {
			img.lanes = map[priceKey]*Lane{}
		}
		img.lanes[key] = l
	}
	img.laneMu.Unlock()
	p.lane = l
	return l
}

// MemSignature returns the image's aggregate shared-cache pressure
// signature, precomputed at image build, in the form a placement Decision
// carries (Decision.Mem): every runtime attaches this pointer as is, and
// the engine only reads it. A nil image has no signature.
//
// The aggregate is instruction-weighted over static blocks, not dynamic
// executions: loop-heavy phase bodies and cold utility code weigh by their
// static instruction counts. That dilutes L2RefsPerInstr for binaries with
// large cold sections, but the profile — weighted by memory references,
// which cold code barely has — stays phase-dominated, and the pricing it
// feeds is relative (crowded share vs. solo share), so the dilution shifts
// magnitudes without reordering candidates. A per-phase refinement (the
// phase-signature library of PAPERS.md's phase-distance mapping, or real
// L2 miss counters) would sharpen it; the oracle already computes the
// per-phase version from the same block data (online.OracleDecisions).
func (img *Image) MemSignature() *place.MemStats {
	if img == nil {
		return nil
	}
	return &img.memSig
}

// NewImage precomputes an image for execution. bin may be nil to execute an
// uninstrumented program; otherwise bin.Prog must equal p.
func NewImage(p *prog.Program, bin *instrument.Binary, cm CostModel) (*Image, error) {
	if bin != nil && bin.Prog != p {
		return nil, fmt.Errorf("exec: binary does not wrap the given program")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, err
	}
	// starts[pi] is the global id of procedure pi's first block.
	starts := make([]int32, len(graphs))
	n := 0
	for pi, g := range graphs {
		starts[pi] = int32(n)
		n += len(g.Blocks)
	}
	img := &Image{
		Name:   p.Name,
		Prog:   p,
		Graphs: graphs,
		blocks: make([]blockInfo, 0, n),
		entry:  starts[p.Entry],
	}
	if bin != nil {
		img.Marks = bin.Marks
	}
	for _, g := range graphs {
		for bi, b := range g.Blocks {
			info, err := summarizeBlock(b, g, cm, starts)
			if err != nil {
				return nil, fmt.Errorf("exec: %s/%s block %d: %w", p.Name, g.ProcName, bi, err)
			}
			info.loop = -1
			if info.tripCount > 0 {
				info.loop = img.loops
				img.loops++
			}
			img.blocks = append(img.blocks, info)
		}
	}
	img.memSig = memSignature(img.blocks)
	return img, nil
}

// memSignature aggregates the per-block summaries into the image's
// shared-cache signature.
func memSignature(blocks []blockInfo) place.MemStats {
	var sig place.MemStats
	var instrs int64
	var l1Miss float64
	refs := 0
	for i := range blocks {
		info := &blocks[i]
		instrs += info.instrs
		l1Miss += info.l1MissRefs
		if info.memRefs > 0 {
			sig.Profile = reuse.Combine(sig.Profile, refs, info.profile, int(info.memRefs))
			refs += int(info.memRefs)
		}
	}
	if instrs > 0 {
		sig.L2RefsPerInstr = l1Miss / float64(instrs)
	}
	return sig
}

// summarizeBlock precomputes the interpreter view of one block. starts maps
// procedure indexes to the global ids of their first blocks.
func summarizeBlock(b *cfg.Block, g *cfg.Graph, cm CostModel, starts []int32) (blockInfo, error) {
	base := starts[g.ProcIndex]
	info := blockInfo{fall: -1, taken: -1, callee: -1}
	var memRefs int
	for _, in := range b.Instrs {
		if in.Op == isa.PhaseMark {
			info.markIDs = append(info.markIDs, int32(in.MarkID))
			continue
		}
		info.baseCycles += cm.CPI[in.Op]
		info.instrs++
		if in.Op.IsMemory() {
			p := reuse.Profile{WorkingSetKB: in.Mem.WorkingSetKB, Locality: in.Mem.Locality}
			info.profile = reuse.Combine(info.profile, memRefs, p, 1)
			memRefs++
		}
		if in.Op == isa.Syscall {
			info.syscall = true
		}
	}
	info.memRefs = int64(memRefs)
	info.l1MissRefs = float64(memRefs) * info.profile.L1MissFraction()

	last := b.Instrs[len(b.Instrs)-1]
	switch last.Op {
	case isa.Branch:
		info.kind = termBranch
		info.takenThresh = branchThreshold(last.TakenProb)
		info.tripCount = last.TripCount
		info.taken = base + int32(g.BlockOf(last.Target))
		if fall, ok := fallBlock(g, b); ok {
			info.fall = base + int32(fall)
		} else {
			return info, fmt.Errorf("branch block has no fallthrough")
		}
	case isa.Jump:
		info.kind = termFall
		info.fall = base + int32(g.BlockOf(last.Target))
	case isa.Call:
		info.kind = termCall
		info.callee = starts[last.Target]
		if fall, ok := fallBlock(g, b); ok {
			info.fall = base + int32(fall)
		} else {
			return info, fmt.Errorf("call block has no return-to block")
		}
	case isa.Ret:
		info.kind = termRet
	default:
		info.kind = termFall
		if fall, ok := fallBlock(g, b); ok {
			info.fall = base + int32(fall)
		} else {
			return info, fmt.Errorf("block falls off procedure end")
		}
	}
	return info, nil
}

// fallBlock returns the block starting at b.End.
func fallBlock(g *cfg.Graph, b *cfg.Block) (int, bool) {
	lastBlock := g.Blocks[len(g.Blocks)-1]
	if b.End > lastBlock.Start {
		return 0, false
	}
	return g.BlockOf(b.End), true
}

// BlockIPC computes a block's isolated IPC on a core type via the same cost
// arithmetic the interpreter uses (phase marks excluded). It is the static
// per-block performance estimate behind the typing-accuracy oracle and the
// oracle placement policy.
func BlockIPC(b *cfg.Block, par *CoreParams, cm CostModel, shareKB float64) float64 {
	cycles := 0.0
	instrs := 0
	memRefs := 0
	prof := phase.BlockProfile(b)
	for _, in := range b.Instrs {
		if in.Op == isa.PhaseMark {
			continue
		}
		cycles += cm.CPI[in.Op]
		instrs++
		if in.Op.IsMemory() {
			memRefs++
		}
	}
	l1miss := float64(memRefs) * prof.L1MissFraction()
	cycles += l1miss * (par.L2HitCycles + prof.MissRatio(shareKB)*par.MemCycles)
	if cycles <= 0 {
		return 0
	}
	return float64(instrs) / cycles
}

// MarkType returns the phase type of a mark ID.
func (img *Image) MarkType(id int) phase.Type {
	return img.Marks[id].Type
}

// NumMarks returns the image's mark count.
func (img *Image) NumMarks() int { return len(img.Marks) }
