// Package exec interprets program images on simulated AMP cores, charging
// cycle-accurate-shaped costs per basic block and invoking the tuning
// runtime at phase marks.
//
// The timing model implements the asymmetry that drives the whole paper:
// all cores share one microarchitecture (identical per-class CPI), but
// memory stalls are priced in *nanoseconds*, so a miss costs
// latency_ns x frequency_GHz cycles — proportionally more cycles on the
// faster core. Compute-bound code therefore runs 1.5x faster on the 2.4 GHz
// cores at equal IPC, while memory-bound code shows *higher* IPC on the
// 1.6 GHz cores and gains almost nothing from the fast ones. IPC measured
// by the tuning runtime consequently identifies the core type a section
// wastes the fewest cycles on (paper §II-B).
//
// Execution is native. Each image prices its blocks once per pricing
// environment into a cost table (Process.Lane), and the kernel runs every
// dispatch burst through RunLane on it, which takes a chain of mark-free
// blocks whose path is fixed (fallthroughs, one counted back edge, calls,
// and returns whose target is known) as one step when that cannot move a
// slice end or a loop exit, and runs a counted loop around a mark-free
// branch diamond (a generated phase loop, inline or in a helper procedure
// the loop calls) as an inner loop of such steps that charges its integer
// sums once, so the totals, the branch draws, the call stack and the
// slice ends equal the step loop's. Step, which runs one block per step
// and prices it in floating point, is the reference the tables must match
// (DESIGN.md §13).
package exec

import (
	"phasetune/internal/amp"
	"phasetune/internal/isa"
)

// CostModel fixes the microarchitectural constants shared by all cores.
type CostModel struct {
	// CPI is the base cycles-per-instruction per class, excluding memory
	// stall time for loads/stores (their CPI covers address generation and
	// L1 access only).
	CPI [isa.NumOpClasses]float64
	// L2HitCycles is the cost of an L1 miss served by the shared L2, in
	// cycles. The L2 is on-die and clocked with the core (underclocking the
	// core underclocks its caches), so the cost is the same cycle count on
	// every core type — cache-resident code shows no IPC asymmetry.
	L2HitCycles float64
	// MemLatencyNS is the latency of an access that misses the L2. DRAM is
	// off-chip with fixed wall-clock latency, so its cycle cost scales with
	// core frequency — the sole source of the IPC gap between core types.
	MemLatencyNS float64
	// MarkCycles is the execution cost of one phase mark's payload (saves,
	// table lookup, compare, restores). The paper's marks are tens of
	// instructions.
	MarkCycles int64
	// MarkInstrs is how many retired instructions a mark contributes; the
	// paper's throughput measurements "include the instructions inserted as
	// part of the phase marks" (§IV-C).
	MarkInstrs int64
	// SyscallCycles is the cost of a syscall special node.
	SyscallCycles float64
}

// DefaultCostModel returns constants loosely calibrated to the paper's
// Core 2 era: a 4-wide superscalar pipeline (sub-1 CPI for simple ops, so
// compute code reaches IPC 2-3 as on real hardware), a 14-cycle on-die L2,
// and ~200-cycle DRAM at 2.4 GHz (83 ns).
func DefaultCostModel() CostModel {
	cm := CostModel{
		L2HitCycles:   14,
		MemLatencyNS:  83,
		MarkCycles:    30,
		MarkInstrs:    14,
		SyscallCycles: 300,
	}
	cm.CPI[isa.IntALU] = 0.34
	cm.CPI[isa.IntMul] = 1
	cm.CPI[isa.IntDiv] = 8
	cm.CPI[isa.FPAdd] = 0.5
	cm.CPI[isa.FPMul] = 0.5
	cm.CPI[isa.FPDiv] = 10
	cm.CPI[isa.Load] = 0.5
	cm.CPI[isa.Store] = 0.5
	cm.CPI[isa.Branch] = 0.5
	cm.CPI[isa.Jump] = 0.34
	cm.CPI[isa.Call] = 1
	cm.CPI[isa.Ret] = 1
	cm.CPI[isa.Syscall] = 1
	cm.CPI[isa.Nop] = 0.25
	cm.CPI[isa.PhaseMark] = 0 // charged via MarkCycles
	return cm
}

// CoreParams is the per-core-type view of the cost model, precomputed for
// the interpreter's hot path.
type CoreParams struct {
	// Type is the core type ID.
	Type amp.CoreTypeID
	// CyclesPerSec is the scaled simulation clock.
	CyclesPerSec float64
	// PsPerCycle converts cycles to simulated picoseconds.
	PsPerCycle int64
	// L2HitCycles is the cycle cost of an L1 miss served by the L2 (core-
	// type independent: the L2 clocks with the core).
	L2HitCycles float64
	// MemCycles is the cycle cost of an L2 miss served by memory
	// (frequency-proportional: DRAM latency is fixed wall-clock time).
	MemCycles float64
}

// ParamsFor derives per-type parameters from the model and machine.
func ParamsFor(cm CostModel, m *amp.Machine) []CoreParams {
	out := make([]CoreParams, len(m.Types))
	for i, t := range m.Types {
		out[i] = CoreParams{
			Type:         amp.CoreTypeID(i),
			CyclesPerSec: t.CyclesPerSec,
			PsPerCycle:   t.PsPerCycle(),
			L2HitCycles:  cm.L2HitCycles,
			MemCycles:    cm.MemLatencyNS * t.FreqGHz,
		}
	}
	return out
}
