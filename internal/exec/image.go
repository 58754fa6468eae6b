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
	syscall bool
	// diamond marks a chain head whose chain, and the chains of both
	// successors of its random last branch, loop through one counted
	// edge back to that branch (buildChains): RunLane runs it as a loop.
	diamond   bool
	tripCount int32 // >0: counted loop back edge (taken tripCount-1 times)
	loop      int32 // counted back edge's loop-counter index (-1 none)
	taken     int32 // global id of the taken successor
	fall      int32 // global id of the fallthrough successor (-1 none: ret/exit)
	callee    int32 // global id of the callee's entry block for termCall
	// retTo is a return's target when it is known statically: the return
	// block of the only call site of a procedure other than the entry
	// (-1 none).
	retTo int32
	// The fused chain this block heads (buildChains); chainLast < 0: none.
	chainLast  int32 // global id of the chain's last block
	chainLoop  int32 // loop-counter index of the counted edge it crosses (-1 none)
	chainTrips int32 // that edge's trip count
	chainEdges int32 // edges followed from this block to chainLast
	// The chain's stack effect, applied before chainLast's terminator:
	// pop the outer frame chainPop, then push the return block chainPush
	// (-1 none). The chain leaves the stack as it found it when they are
	// equal.
	chainPop, chainPush int32
	// takenThresh is the branch's taken probability as a threshold on a
	// 53-bit draw (branchThreshold).
	takenThresh uint64
	// instrs is the retired-instruction count (phase marks excluded; they
	// are charged via CostModel.MarkInstrs). Counts are int32, as block
	// ids are: a chain holds far fewer than 2³¹ instructions.
	instrs int32
	// memRefs is the retired memory-reference count per execution.
	memRefs int32
	// chainInstrs and chainMemRefs sum instrs and memRefs over the chain.
	chainInstrs, chainMemRefs int32
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

// maxChainEdges caps a fused chain, so a cycle of mark-free jumps that
// never leaves itself still ends.
const maxChainEdges = 64

// chainWalk follows a chain from its head, one edge at a time. It is the
// one successor rule: buildChains defines chains by it and Process.Lane
// sums their costs by it.
type chainWalk struct {
	cur   int32 // global id of the block reached
	edges int32 // edges followed from the head
	loop  int32 // loop-counter index of the counted edge crossed (-1 none)
	trips int32 // that edge's trip count
	pop   int32 // the outer frame a return popped (-1 none)
	push  int32 // the return block a call pushed and no return popped (-1 none)
}

// walkFrom starts a walk at head h.
func walkFrom(h int) chainWalk {
	return chainWalk{cur: int32(h), loop: -1, pop: -1, push: -1}
}

// next moves the walk from its block to the block a native run executes
// next with no choice and no observation point, or reports false where
// the chain must end: the successor holds a mark, or the block ends in a
// random or second counted branch, a call with a pushed frame still open,
// or a return whose target is not known (neither the chain's own pushed
// frame nor, with no outer frame popped yet, a static retTo).
func (w *chainWalk) next(blocks []blockInfo) bool {
	b, to := &blocks[w.cur], *w
	to.cur = b.fall
	switch b.kind {
	case termBranch:
		if b.tripCount <= 1 || w.loop >= 0 {
			return false
		}
		to.cur, to.loop, to.trips = b.taken, b.loop, b.tripCount
	case termCall:
		if w.push >= 0 {
			return false
		}
		to.cur, to.push = b.callee, b.fall
	case termRet:
		switch {
		case w.push >= 0:
			to.cur, to.push = w.push, -1
		case w.pop < 0 && b.retTo >= 0:
			to.cur, to.pop = b.retTo, b.retTo
		default:
			return false
		}
	}
	if len(blocks[to.cur].markIDs) > 0 {
		return false
	}
	to.edges++
	*w = to
	return true
}

// buildChains gives every mark-free fallthrough block the chain it heads:
// the blocks a native run executes next with no observation point and no
// choice, which RunLane charges as one step. A chain follows fallthroughs
// and jumps through mark-free blocks, crosses at most one counted back
// edge on its taken side, and follows calls and returns whose targets are
// fixed (chainWalk): a call into its callee while the chain holds no
// other pushed frame, a return to the frame the chain's own call pushed,
// and, once, a return that pops an outer frame known statically (retTo).
// It ends at the first block that ends any other way, or after
// maxChainEdges edges. Its last block's terminator runs as a plain
// step's, after the chain's stack effect (one outer frame popped, one
// return block pushed) is applied. Crossing the counted edge is valid
// only while that loop's counter plus one stays below its trip count
// (RunLane's guard).
//
// It then marks each diamond arm: a chain head whose chain crosses a
// counted edge, leaves the stack as it found it, and ends at a mark-free
// random branch H, where both of H's successors head chains of that shape
// ending at H across the same counted edge. From an arm, a native run
// repeats arm chain, H's draw, arm chain, with no observation point in
// between, so RunLane runs those iterations in one inner loop. That takes
// in a phase loop whose body calls a helper procedure holding the diamond:
// its arms' chains return, cross the loop's edge and call the helper again
// (pop R, push R). A loop body of any other shape keeps the step loop.
func buildChains(blocks []blockInfo) {
	for h := range blocks {
		head := &blocks[h]
		head.chainLast, head.chainLoop, head.chainPop, head.chainPush = -1, -1, -1, -1
		if head.kind != termFall || len(head.markIDs) > 0 {
			continue
		}
		w := walkFrom(h)
		instrs, memRefs := head.instrs, head.memRefs
		for w.edges < maxChainEdges && w.next(blocks) {
			instrs += blocks[w.cur].instrs
			memRefs += blocks[w.cur].memRefs
		}
		if w.edges > 0 {
			head.chainLast, head.chainLoop, head.chainTrips, head.chainEdges = w.cur, w.loop, w.trips, w.edges
			head.chainPop, head.chainPush = w.pop, w.push
			head.chainInstrs, head.chainMemRefs = instrs, memRefs
		}
	}
	for a := range blocks {
		arm := &blocks[a]
		if arm.chainLoop < 0 {
			continue
		}
		h := &blocks[arm.chainLast] // mark-free, as every block a chain enters
		if h.kind != termBranch || h.tripCount != 0 {
			continue
		}
		same := func(s int32) bool {
			b := &blocks[s]
			return b.chainLast == arm.chainLast && b.chainLoop == arm.chainLoop && b.chainTrips == arm.chainTrips &&
				b.chainPop == b.chainPush
		}
		arm.diamond = same(int32(a)) && same(h.taken) && same(h.fall)
	}
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

// blockCost is one block's precomputed pricing under a lane, and that of
// the chain it heads (zero without one). Building it once per lane also
// removes the per-step math.Exp from the native path. Actual picoseconds
// are not stored: they are always cycles × PsPerCycle.
type blockCost struct {
	ic      int64 // body cycles (identical to Step's truncation)
	idealPs int64 // fastest-clock counterfactual picoseconds
	// chainIC and chainIdealPs sum ic and idealPs over the chain.
	chainIC, chainIdealPs int64
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
			l.cost[b] = blockCost{ic: ic, idealPs: bodyIdealPs(info, par, ic, shareKB, fastPs)}
		}
		// Chain sums walk every edge, so a block the chain visits twice
		// is charged twice.
		for h := range l.cost {
			info, c := &img.blocks[h], &l.cost[h]
			if info.chainLast < 0 {
				continue
			}
			for w := walkFrom(h); ; w.next(img.blocks) {
				c.chainIC += l.cost[w.cur].ic
				c.chainIdealPs += l.cost[w.cur].idealPs
				if w.edges == info.chainEdges {
					break
				}
			}
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
	// starts[pi] is the global id of procedure pi's first block, and
	// site[pi] the return block of pi's only call site (-1 none, -2
	// several); one allocation holds both.
	starts := make([]int32, 2*len(graphs))
	starts, site := starts[:len(graphs)], starts[len(graphs):]
	n := 0
	for pi, g := range graphs {
		starts[pi], site[pi] = int32(n), -1
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
			if info.kind == termCall {
				if callee := b.Instrs[len(b.Instrs)-1].Target; site[callee] == -1 {
					site[callee] = info.fall
				} else {
					site[callee] = -2
				}
			}
			img.blocks = append(img.blocks, info)
		}
	}
	// Every run of a procedure other than the entry was called, so when it
	// has one call site, its returns always go to that site's return block.
	for pi, g := range graphs {
		if pi == p.Entry || site[pi] < 0 {
			continue
		}
		for bi := range g.Blocks {
			if info := &img.blocks[starts[pi]+int32(bi)]; info.kind == termRet {
				info.retTo = site[pi]
			}
		}
	}
	buildChains(img.blocks)
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
		instrs += int64(info.instrs)
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
	info := blockInfo{fall: -1, taken: -1, callee: -1, retTo: -1}
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
	info.memRefs = int32(memRefs)
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
