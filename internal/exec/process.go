package exec

import (
	"math"

	"phasetune/internal/ledger"
	"phasetune/internal/perfcnt"
	"phasetune/internal/rng"
	"phasetune/internal/trace"
)

// MarkAction is what the tuning runtime asks for at a phase mark.
type MarkAction struct {
	// Mask, when non-zero, is the affinity mask the process requests
	// (the simulated sched_setaffinity call).
	Mask uint64
}

// MarkHook receives phase-mark events. The kernel installs the per-process
// tuning runtime here; overhead-measurement modes install cheaper hooks.
type MarkHook interface {
	// OnMark fires when the process executes the phase mark markID on core
	// coreID. Counter state is readable through p.Counters.
	OnMark(p *Process, markID int, coreID int) MarkAction
	// OnExit fires when the process terminates, so held resources (counter
	// event sets) can be released.
	OnExit(p *Process)
}

// QuantumHook is an optional extension of MarkHook: the kernel invokes it at
// the end of every scheduling quantum. The tuning runtime uses it to bound
// monitoring windows — a long code section between two phase marks contains
// many representative sub-sections, so a sample can be closed (and the next
// core type probed) without waiting for the next mark. This is the "simple
// feedback mechanism" extension the paper sketches in §VI-B.
type QuantumHook interface {
	MarkHook
	// OnQuantum fires after a scheduling quantum on core coreID; a non-zero
	// returned mask requests an affinity change, like a mark would.
	OnQuantum(p *Process, coreID int) MarkAction
}

// StepResult reports one step: a basic block's execution, or for a fused
// chain (RunLane), that of the chain's last block.
type StepResult struct {
	// Cycles consumed by the block (including mark payloads).
	Cycles int64
	// Exited reports program termination.
	Exited bool
	// WantMask, when non-zero, is an affinity-change request issued by a
	// phase mark in this block.
	WantMask uint64
}

// Process is one executing instance of an image.
type Process struct {
	// PID is the kernel-assigned process ID.
	PID int
	// Img is the executed image (shared, immutable).
	Img *Image
	// Counters is the virtualized performance-counter state.
	Counters perfcnt.Counters
	// Hook receives phase-mark events; nil disables mark processing beyond
	// cost accounting.
	Hook MarkHook
	// Work, when non-nil, accumulates per-step cycle attribution for the
	// run's ledger. The interpreter only writes to it — attribution never
	// feeds back into execution, so an attached Work cannot perturb a run.
	Work *ledger.Work
	// Trace, when non-nil, receives an instant at every phase mark that
	// reaches the hook. Like Work it is attached at spawn and only written
	// to, so a traced process executes exactly as an untraced one.
	Trace *trace.Tracer

	cm   *CostModel
	rand *rng.Source

	// pc is the global id of the block to execute next, and stack holds
	// the global ids of the blocks each open call returns to, outermost
	// first.
	pc     int32
	stack  []int32
	exited bool
	// loopCounts holds each counted back edge's progress, indexed by its
	// loop-counter index (blockInfo.loop).
	loopCounts []int32
	// lane is the image lane Lane returned last.
	lane *Lane

	// MarksExecuted counts dynamic phase-mark executions (diagnostics and
	// the time-overhead experiment).
	MarksExecuted uint64
}

// NewProcess creates a process at the image entry point. The seed drives
// branch outcomes, making every execution deterministic.
func NewProcess(pid int, img *Image, cm *CostModel, seed uint64, hook MarkHook) *Process {
	return &Process{
		PID:        pid,
		Img:        img,
		Hook:       hook,
		cm:         cm,
		rand:       rng.New(seed),
		pc:         img.entry,
		stack:      make([]int32, 0, 64),
		loopCounts: make([]int32, img.loops),
	}
}

// Exited reports whether the program has terminated.
func (p *Process) Exited() bool { return p.exited }

// SetSpilled records whether the placement engine currently holds the
// process off its chosen core type, so the ledger can charge subsequent
// asymmetry loss to the capacity-spill category. A no-op without a ledger.
func (p *Process) SetSpilled(s bool) {
	if p.Work != nil {
		p.Work.SetSpilled(s)
	}
}

// bodyCycles prices one execution of a block's body on a core with the
// given cache share. It is the single source of truth for block cost: Step
// calls it per step and every lane's cost table is built from it, so Step
// and RunLane price every block identically by construction. Products feeding additions are
// explicitly converted so the compiler cannot contract them into FMAs —
// the cross-architecture half of the determinism contract (DESIGN.md §13).
func bodyCycles(info *blockInfo, core *CoreParams, syscallCycles, shareKB float64) int64 {
	cycles := info.baseCycles
	if info.l1MissRefs > 0 {
		miss := info.profile.MissRatio(shareKB)
		cycles += float64(info.l1MissRefs * (core.L2HitCycles + float64(miss*core.MemCycles)))
	}
	if info.syscall {
		cycles += syscallCycles
	}
	ic := int64(cycles)
	if ic < 1 && info.instrs > 0 {
		ic = 1
	}
	return ic
}

// bodyIdealPs prices the block's fastest-clock counterfactual for the cycle
// ledger: the DRAM portion is wall-clock fixed (MemCycles ∝ frequency,
// PsPerCycle ∝ 1/frequency), so only the compute portion is repriced at the
// fastest clock. Truncated to integer picoseconds per block, so a cost
// table prices it once per block and any grouping of steps sums to the same
// total.
func bodyIdealPs(info *blockInfo, core *CoreParams, ic int64, shareKB float64, fastPs int64) int64 {
	var memCycles float64
	if info.l1MissRefs > 0 {
		miss := info.profile.MissRatio(shareKB)
		memCycles = float64(info.l1MissRefs * float64(miss*core.MemCycles))
	}
	comp := float64(ic) - memCycles
	if comp < 0 {
		comp = 0
	}
	return int64(float64(comp*float64(fastPs)) + float64(memCycles*float64(core.PsPerCycle)))
}

// execMarks runs the phase marks at the top of a block: counter and ledger
// charges, the trace instant, and the tuning-runtime hook.
func (p *Process) execMarks(info *blockInfo, core *CoreParams, coreID int, res *StepResult) {
	for _, mid := range info.markIDs {
		p.Counters.Add(uint64(p.cm.MarkInstrs), uint64(p.cm.MarkCycles))
		res.Cycles += p.cm.MarkCycles
		p.MarksExecuted++
		if p.Work != nil {
			// The mark opens a phase: attribute the mark payload and the
			// block body that follows to the entered phase.
			p.Work.SetPhase(int(p.Img.MarkType(int(mid))))
			p.Work.AddMark(p.cm.MarkCycles * core.PsPerCycle)
		}
		if p.Hook != nil {
			if p.Trace != nil {
				p.Trace.InstantNow("exec", "mark", trace.PidTasks, p.PID,
					trace.Arg{Key: "mark", Value: int(mid)},
					trace.Arg{Key: "core", Value: coreID})
			}
			act := p.Hook.OnMark(p, int(mid), coreID)
			if act.Mask != 0 {
				res.WantMask = act.Mask
			}
		}
	}
}

// Step executes the current basic block on a core with the given parameters
// and effective cache share, advances control flow, and returns the cost.
// Step must not be called after the process has exited.
func (p *Process) Step(core *CoreParams, coreID int, shareKB float64) StepResult {
	info := &p.Img.blocks[p.pc]
	var res StepResult

	// Phase marks run first: they sit at the top of the block.
	if len(info.markIDs) > 0 {
		p.execMarks(info, core, coreID, &res)
	}

	// Block body cost.
	ic := bodyCycles(info, core, p.cm.SyscallCycles, shareKB)
	if p.Work != nil {
		p.Work.Add(ic*core.PsPerCycle, bodyIdealPs(info, core, ic, shareKB, p.Work.FastPs()))
	}
	p.Counters.Add(uint64(info.instrs), uint64(ic))
	if info.memRefs > 0 {
		p.Counters.AddMem(uint64(info.memRefs))
	}
	res.Cycles += ic

	p.advanceControl(info, &res)
	return res
}

// advanceControl moves the program counter past the current block. It is
// small enough to inline into the step loops, so the common fallthrough
// costs no call; the other terminators go through branchControl.
func (p *Process) advanceControl(info *blockInfo, res *StepResult) {
	if info.kind == termFall {
		p.pc = info.fall
		return
	}
	p.branchControl(info, res)
}

// branchControl is advanceControl for branches, calls and returns.
func (p *Process) branchControl(info *blockInfo, res *StepResult) {
	switch info.kind {
	case termBranch:
		if info.tripCount > 0 {
			// Counted loop: taken tripCount-1 consecutive times, then fall
			// through once; the counter then resets for re-entry.
			c := &p.loopCounts[info.loop]
			*c++
			if *c < info.tripCount {
				p.pc = info.taken
			} else {
				*c = 0
				p.pc = info.fall
			}
		} else if p.rand.Uint64()>>11 < info.takenThresh {
			p.pc = info.taken
		} else {
			p.pc = info.fall
		}
	case termCall:
		p.stack = append(p.stack, info.fall)
		p.pc = info.callee
	case termRet:
		if len(p.stack) == 0 {
			p.exited = true
			res.Exited = true
			if p.Hook != nil {
				p.Hook.OnExit(p)
			}
			return
		}
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		p.pc = top
	}
}

// RunLane steps the process natively for up to budget cycles, pricing
// every block from the lane's cost table: one dispatch burst. It stops
// once the budget is spent, the process exits, or a phase mark requests an
// affinity change, returning the cycles used and the last step's result.
//
// A block that heads a fused chain (buildChains) runs its whole chain as
// one step when the native loop would have started every block in it,
// that is when used plus the cycles before the last block stays below
// the budget, and when the counted edge the chain crosses, if any, is not
// on its last trip. The step charges the chain's sums, applies the
// chain's stack effect (the calls and returns it crossed: pop its outer
// frame, push its open return block), and then runs the last block's
// terminator and returns that block's result. Results are identical to a
// loop of Step by construction (the tables are built from the same
// helpers, and the chain's returns pop only frames known statically).
//
// From a diamond arm (buildChains), RunLane runs whole loop iterations in
// an inner loop: each takes an arm's chain under exactly the chain guard,
// then draws H's branch to pick the next arm, with no branch on the draw.
// It first runs, unguarded, the iterations that pass the guard whatever
// arms they take, and counts only their taken draws. An arm's chain
// leaves the stack as it found it, so the loop touches no frame, even
// when each iteration returns from and calls again a helper procedure
// holding the diamond. It counts the iterations per arm and on exit
// charges the sums once and writes back the pc, the loop counter and the
// rng. That equals one chain step per iteration: the sums are integer,
// the draws come in the same order, and no mark, hook, trace instant or
// ledger phase change can occur inside a mark-free diamond, so one ledger
// Work.Add into the open segment equals many.
func (p *Process) RunLane(lane *Lane, coreID int, budget int64) (used int64, res StepResult) {
	blocks, cost, psPerCycle := p.Img.blocks, lane.cost, lane.par.PsPerCycle
	for used < budget {
		info, bc := &blocks[p.pc], &cost[p.pc]
		if info.diamond {
			h, hIC := &blocks[info.chainLast], cost[info.chainLast].ic
			loop, trips := info.chainLoop, info.chainTrips
			// Each iteration takes the chain of arms[s]: this block's first
			// (s = 2), then H's fallthrough (0) or taken (1) side as H's
			// draw picks it; n counts the iterations per arm.
			arms := [3]int32{h.fall, h.taken, p.pc}
			armIC := [3]int64{cost[h.fall].chainIC, cost[h.taken].chainIC, bc.chainIC}
			c, r, s := p.loopCounts[loop], *p.rand, uint64(2)
			var n [3]int64
			// First run the k iterations that pass both guards whatever
			// arms they take (each costs at most the dearest arm), only
			// counting the taken draws; then go on under the guards.
			if k := min(int64(trips-1-c), (budget+hIC-1-used)/max(armIC[0], armIC[1], armIC[2])); k > 0 {
				var taken int64
				for i := int64(1); i < k; i++ {
					taken += int64((r.Uint64()>>11 - h.takenThresh) >> 63)
				}
				n = [3]int64{k - 1 - taken, taken, 1}
				used += n[0]*armIC[0] + n[1]*armIC[1] + armIC[2]
				c += int32(k)
				s = (r.Uint64()>>11 - h.takenThresh) >> 63
			}
			for c+1 < trips && used+armIC[s]-hIC < budget {
				c++
				used += armIC[s]
				n[s]++
				s = (r.Uint64()>>11 - h.takenThresh) >> 63 // 1 when the draw is below the threshold
			}
			if c != p.loopCounts[loop] {
				p.pc, p.loopCounts[loop], *p.rand = arms[s], c, r
				var ic, idealPs, instrs, memRefs int64
				for i, a := range arms {
					ic += n[i] * cost[a].chainIC
					idealPs += n[i] * cost[a].chainIdealPs
					instrs += n[i] * int64(blocks[a].chainInstrs)
					memRefs += n[i] * int64(blocks[a].chainMemRefs)
				}
				if p.Work != nil {
					p.Work.Add(ic*psPerCycle, idealPs)
				}
				p.Counters.Add(uint64(instrs), uint64(ic))
				if memRefs > 0 {
					p.Counters.AddMem(uint64(memRefs))
				}
				res = StepResult{Cycles: hIC}
				continue
			}
		}
		if last := info.chainLast; last >= 0 &&
			(info.chainLoop < 0 || p.loopCounts[info.chainLoop]+1 < info.chainTrips) {
			if lastIC := cost[last].ic; used+bc.chainIC-lastIC < budget {
				if info.chainLoop >= 0 {
					p.loopCounts[info.chainLoop]++
				}
				if p.Work != nil {
					p.Work.Add(bc.chainIC*psPerCycle, bc.chainIdealPs)
				}
				p.Counters.Add(uint64(info.chainInstrs), uint64(bc.chainIC))
				if info.chainMemRefs > 0 {
					p.Counters.AddMem(uint64(info.chainMemRefs))
				}
				if info.chainPop != info.chainPush {
					if info.chainPop >= 0 {
						p.stack = p.stack[:len(p.stack)-1]
					}
					if info.chainPush >= 0 {
						p.stack = append(p.stack, info.chainPush)
					}
				}
				res = StepResult{Cycles: lastIC}
				p.pc = last // where an exit leaves it
				p.advanceControl(&blocks[last], &res)
				used += bc.chainIC
				if res.Exited {
					break
				}
				continue
			}
		}
		res = StepResult{}
		if len(info.markIDs) > 0 {
			p.execMarks(info, &lane.par, coreID, &res)
		}
		if p.Work != nil {
			p.Work.Add(bc.ic*psPerCycle, bc.idealPs)
		}
		p.Counters.Add(uint64(info.instrs), uint64(bc.ic))
		if info.memRefs > 0 {
			p.Counters.AddMem(uint64(info.memRefs))
		}
		res.Cycles += bc.ic

		p.advanceControl(info, &res)

		used += res.Cycles
		if res.Exited || res.WantMask != 0 {
			break
		}
	}
	return used, res
}

// RunIsolated executes the process to completion on a single core with a
// fixed cache share, returning total cycles. It is used for isolation
// timings (fairness metrics need per-process isolation runtimes) and tests.
// maxCycles bounds runaway programs (0 means no bound). It prices from the
// image's cost table, at the ledger's fastest clock when a Work is attached.
func (p *Process) RunIsolated(core *CoreParams, coreID int, shareKB float64, maxCycles int64) (cycles int64) {
	fastPs := core.PsPerCycle
	if p.Work != nil {
		fastPs = p.Work.FastPs()
	}
	lane := p.Lane(core, shareKB, fastPs)
	if maxCycles <= 0 {
		maxCycles = math.MaxInt64
	}
	for !p.exited && cycles < maxCycles {
		used, _ := p.RunLane(lane, coreID, maxCycles-cycles)
		cycles += used
	}
	return cycles
}
