// Package isa defines the synthetic instruction set used by the phase-based
// tuning reproduction.
//
// The paper (Sondag & Rajan, CGO 2011) instruments x86 binaries produced from
// the SPEC CPU 2000/2006 suites. Real x86 binaries are not available in this
// environment, so the whole toolchain — CFG construction, phase typing,
// transition marking, instrumentation, and execution — operates on this
// synthetic ISA instead. The ISA keeps exactly the properties the technique
// consumes:
//
//   - a static instruction *mix* per basic block (integer, floating point,
//     memory, control), which drives the paper's block-typing features;
//   - variable encoded instruction *sizes*, so space-overhead measurements
//     (paper Fig. 3) are byte-accurate;
//   - explicit control flow (conditional branches, jumps, calls, returns),
//     so basic blocks, intervals, and loops are real program structure;
//   - per-reference memory locality descriptors, from which the reuse-distance
//     cache model (paper §II-A3) derives expected miss ratios.
package isa

import "fmt"

// OpClass is the class of an instruction. Classes are deliberately coarse:
// the paper's static block typing uses "a combination of instruction types"
// (§II-A3), not exact opcodes.
type OpClass uint8

const (
	// IntALU is a simple integer ALU operation (add, sub, logic, shift).
	IntALU OpClass = iota
	// IntMul is an integer multiply.
	IntMul
	// IntDiv is an integer divide.
	IntDiv
	// FPAdd is a floating-point add/sub/compare.
	FPAdd
	// FPMul is a floating-point multiply.
	FPMul
	// FPDiv is a floating-point divide or square root.
	FPDiv
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch is a conditional branch: taken -> Target, else fall through.
	Branch
	// Jump is an unconditional intra-procedural jump to Target.
	Jump
	// Call invokes procedure index Target; control returns to the next
	// instruction.
	Call
	// Ret returns from the current procedure (or terminates the program when
	// the call stack is empty in the entry procedure).
	Ret
	// Syscall models an operating-system request; it forms its own special
	// CFG node (the paper's S nodes).
	Syscall
	// Nop does nothing; used as padding.
	Nop
	// PhaseMark is the pseudo-instruction inserted by the instrumentation
	// framework at phase-transition points. It never appears in original
	// binaries. MarkID selects the mark's metadata in the instrumented
	// binary's mark table.
	PhaseMark

	// NumOpClasses is the number of instruction classes, for sizing tables.
	NumOpClasses = int(PhaseMark) + 1
)

var opNames = [NumOpClasses]string{
	"intalu", "intmul", "intdiv", "fpadd", "fpmul", "fpdiv",
	"load", "store", "branch", "jump", "call", "ret", "syscall", "nop",
	"phasemark",
}

// String returns the mnemonic for the class.
func (c OpClass) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("opclass(%d)", uint8(c))
}

// IsMemory reports whether the class references data memory.
func (c OpClass) IsMemory() bool { return c == Load || c == Store }

// encodedSize is the default encoded size in bytes per class, loosely modeled
// on common x86-64 encodings. PhaseMark has no default: instrumentation sets
// the exact mark size explicitly (paper: "each phase mark is at most 78
// bytes").
var encodedSize = [NumOpClasses]int{
	IntALU:    3,
	IntMul:    4,
	IntDiv:    3,
	FPAdd:     4,
	FPMul:     4,
	FPDiv:     4,
	Load:      4,
	Store:     4,
	Branch:    2,
	Jump:      5,
	Call:      5,
	Ret:       1,
	Syscall:   2,
	Nop:       1,
	PhaseMark: 0,
}

// MemRef describes the temporal and spatial locality of a memory-referencing
// instruction. It is the static stand-in for the address stream the paper's
// reuse-distance estimate (§II-A3, citing Beyls & D'Hollander) is computed
// from.
type MemRef struct {
	// WorkingSetKB is the footprint, in KiB, over which this reference's
	// reuse distances are spread. Large working sets overflow caches.
	WorkingSetKB float64
	// Locality is the fraction of dynamic references absorbed by the
	// (per-core, private) L1 cache, in [0, 1]. It models short reuse
	// distances: register-adjacent stack traffic, immediate re-reads.
	Locality float64
	// StrideB is the access stride in bytes; informational (used by the
	// static reuse estimate to refine the working-set footprint).
	StrideB int
}

// Instruction is one synthetic instruction.
//
// Branch/Jump targets are instruction indices within the same procedure.
// Call targets are procedure indices within the program.
type Instruction struct {
	// Op is the instruction class.
	Op OpClass
	// Target is the branch/jump destination (instruction index in the
	// procedure) or the callee (procedure index) for Call.
	Target int
	// TakenProb is the probability a Branch is taken. It is behavioral
	// metadata consumed only by the interpreter, never by static analysis —
	// the analog of program input in the paper's setting.
	TakenProb float64
	// TripCount, when positive, makes a Branch a *counted* loop back edge:
	// the branch is taken TripCount-1 consecutive times, then falls through
	// once, and the cycle repeats. Counted branches make loop-dominated
	// programs' runtimes deterministic instead of exponentially spread
	// (behavioral metadata, interpreter-only, like TakenProb).
	TripCount int32
	// Mem describes locality for Load/Store instructions.
	Mem MemRef
	// MarkID identifies the phase mark (index into the binary's mark table)
	// for PhaseMark instructions.
	MarkID int
	// Bytes overrides the encoded size when positive. Instrumentation uses
	// it to give each inserted phase mark its exact size.
	Bytes int
}

// SizeBytes returns the encoded size of the instruction in bytes.
func (in Instruction) SizeBytes() int {
	if in.Bytes > 0 {
		return in.Bytes
	}
	return encodedSize[in.Op]
}

// Mix is a static instruction-class histogram, the raw material of the
// paper's block-typing features.
type Mix struct {
	Counts [NumOpClasses]int
}

// Add accumulates one instruction into the mix.
func (m *Mix) Add(c OpClass) { m.Counts[c]++ }

// Total returns the number of instructions in the mix.
func (m Mix) Total() int {
	t := 0
	for _, n := range m.Counts {
		t += n
	}
	return t
}

// MemOps returns the number of memory-referencing instructions.
func (m Mix) MemOps() int { return m.Counts[Load] + m.Counts[Store] }
