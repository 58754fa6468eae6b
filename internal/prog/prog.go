// Package prog defines the program-image representation analyzed,
// instrumented, and executed by the phase-based tuning pipeline.
//
// A Program is the synthetic analog of a compiled binary: a set of
// procedures, each a flat array of isa.Instructions with intra-procedural
// branch targets expressed as instruction indices. Static analysis sees only
// this structure (plus the locality descriptors on memory instructions);
// behavioral metadata such as branch probabilities is consumed exclusively by
// the interpreter, playing the role of program inputs in the paper's setup.
package prog

import (
	"fmt"
	"math"

	"phasetune/internal/isa"
)

// Procedure is a single procedure: a named, flat instruction array.
type Procedure struct {
	// Name is the procedure's symbol name, unique within its program.
	Name string
	// Instrs is the instruction array. Branch and Jump targets index into
	// this slice; Call targets index Program.Procs.
	Instrs []isa.Instruction
}

// SizeBytes returns the encoded size of the procedure.
func (p *Procedure) SizeBytes() int {
	n := 0
	for _, in := range p.Instrs {
		n += in.SizeBytes()
	}
	return n
}

// Program is a complete program image.
type Program struct {
	// Name identifies the program (benchmark name in the suite).
	Name string
	// Procs lists the procedures. Call instructions address them by index.
	Procs []*Procedure
	// Entry is the index of the entry procedure.
	Entry int
}

// SizeBytes returns the total encoded size of the program, the denominator
// of the paper's space-overhead measurements (Fig. 3).
func (p *Program) SizeBytes() int {
	n := 0
	for _, pr := range p.Procs {
		n += pr.SizeBytes()
	}
	return n
}

// NumInstrs returns the total static instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Instrs)
	}
	return n
}

// Clone returns a deep copy of the program. Instrumentation clones before
// rewriting so the original image remains available for comparison.
func (p *Program) Clone() *Program {
	cp := &Program{Name: p.Name, Entry: p.Entry, Procs: make([]*Procedure, len(p.Procs))}
	for i, pr := range p.Procs {
		instrs := make([]isa.Instruction, len(pr.Instrs))
		copy(instrs, pr.Instrs)
		cp.Procs[i] = &Procedure{Name: pr.Name, Instrs: instrs}
	}
	return cp
}

// Validate checks structural well-formedness: non-empty procedures, branch
// and jump targets within their procedure, call targets within the program,
// probabilities and localities within [0, 1] (NaN is outside), finite
// non-negative working sets, and a final instruction that cannot fall off
// the end of its procedure.
func (p *Program) Validate() error {
	if len(p.Procs) == 0 {
		return fmt.Errorf("program %q: no procedures", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("program %q: entry index %d out of range [0,%d)", p.Name, p.Entry, len(p.Procs))
	}
	seen := make(map[string]bool, len(p.Procs))
	for pi, pr := range p.Procs {
		if pr.Name == "" {
			return fmt.Errorf("program %q: proc %d has empty name", p.Name, pi)
		}
		if seen[pr.Name] {
			return fmt.Errorf("program %q: duplicate procedure name %q", p.Name, pr.Name)
		}
		seen[pr.Name] = true
		if len(pr.Instrs) == 0 {
			return fmt.Errorf("program %q: proc %q is empty", p.Name, pr.Name)
		}
		for ii, in := range pr.Instrs {
			switch in.Op {
			case isa.Branch, isa.Jump:
				if in.Target < 0 || in.Target >= len(pr.Instrs) {
					return fmt.Errorf("%s/%s+%d: %v target %d out of range [0,%d)",
						p.Name, pr.Name, ii, in.Op, in.Target, len(pr.Instrs))
				}
				// Each range check is written so that NaN fails it.
				if in.Op == isa.Branch && !(in.TakenProb >= 0 && in.TakenProb <= 1) {
					return fmt.Errorf("%s/%s+%d: branch probability %g outside [0,1]",
						p.Name, pr.Name, ii, in.TakenProb)
				}
			case isa.Call:
				if in.Target < 0 || in.Target >= len(p.Procs) {
					return fmt.Errorf("%s/%s+%d: call target %d out of range [0,%d)",
						p.Name, pr.Name, ii, in.Target, len(p.Procs))
				}
			case isa.Load, isa.Store:
				if !(in.Mem.Locality >= 0 && in.Mem.Locality <= 1) {
					return fmt.Errorf("%s/%s+%d: memory locality %g outside [0,1]",
						p.Name, pr.Name, ii, in.Mem.Locality)
				}
				if !(in.Mem.WorkingSetKB >= 0 && in.Mem.WorkingSetKB <= math.MaxFloat64) {
					return fmt.Errorf("%s/%s+%d: working set %g not finite and non-negative",
						p.Name, pr.Name, ii, in.Mem.WorkingSetKB)
				}
			}
		}
		last := pr.Instrs[len(pr.Instrs)-1]
		switch last.Op {
		case isa.Ret, isa.Jump:
			// Cannot fall off the end.
		default:
			return fmt.Errorf("program %q: proc %q ends with %v, want ret or jump",
				p.Name, pr.Name, last.Op)
		}
	}
	return nil
}
