// Package instrument rewrites program images, inserting phase marks at the
// sites chosen by the transition analysis. It is the synthetic counterpart
// of the paper's GNU-Binutils-based static instrumentation framework (§III).
//
// Like the paper's framework, it modifies binaries directly (no compiler or
// OS involvement), places marks so that only the marked control-flow edge
// pays for them, and never changes the target of any indirect transfer:
//
//   - fallthrough edges get the mark inserted *inline* between source and
//     target; branches that jump straight to the target are remapped past
//     the mark, so only the falling-through path executes it;
//   - taken-branch edges are retargeted to a *stub* appended at the end of
//     the procedure: the mark followed by a jump to the original target.
//
// Each mark occupies at most 78 bytes (paper §IV-B1): 73 bytes of
// save/analyze/switch/restore payload, plus a 5-byte jump for stubs.
package instrument

import (
	"fmt"
	"sort"

	"phasetune/internal/cfg"
	"phasetune/internal/isa"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/transition"
)

// Mark byte sizes (paper: "each phase mark is at most 78 bytes").
const (
	// InlineMarkBytes is the encoded size of an inline phase mark.
	InlineMarkBytes = 73
	// StubJumpBytes is the extra unconditional jump a stub mark needs.
	StubJumpBytes = 5
)

// Mark is the metadata of one inserted phase mark.
type Mark struct {
	// ID is the mark's index in the binary's mark table; PhaseMark
	// instructions carry it.
	ID int
	// Type is the phase type of the section the mark announces.
	Type phase.Type
	// Site is the transition site the mark implements.
	Site transition.MarkSite
	// Stub reports whether the mark lives in an appended stub (taken-branch
	// edge) rather than inline (fallthrough edge).
	Stub bool
}

// Binary is an instrumented program image.
type Binary struct {
	// Prog is the rewritten program.
	Prog *prog.Program
	// Marks is the mark table, indexed by Mark.ID.
	Marks []Mark
	// OrigBytes and NewBytes are the encoded sizes before and after
	// rewriting.
	OrigBytes, NewBytes int
	// Plan is the marking plan that produced this binary.
	Plan *transition.Plan
}

// SpaceOverhead returns the fractional size increase, the quantity of the
// paper's Fig. 3 (e.g. 0.04 for 4%).
func (b *Binary) SpaceOverhead() float64 {
	if b.OrigBytes == 0 {
		return 0
	}
	return float64(b.NewBytes-b.OrigBytes) / float64(b.OrigBytes)
}

// NumMarks returns the number of inserted marks.
func (b *Binary) NumMarks() int { return len(b.Marks) }

// ApplyWithGraphs instruments a program according to plan. The input
// program is not modified. Block IDs in the plan refer to graphs, the CFGs
// of the *original* program the plan was computed on.
func ApplyWithGraphs(p *prog.Program, plan *transition.Plan, graphs []*cfg.Graph) (*Binary, error) {
	out := p.Clone()
	bin := &Binary{Prog: out, OrigBytes: p.SizeBytes(), Plan: plan}

	// Group sites per procedure.
	perProc := map[int][]transition.MarkSite{}
	for _, s := range plan.Sites {
		perProc[s.Proc] = append(perProc[s.Proc], s)
	}

	for _, ps := range sortedProcs(perProc) {
		if err := rewriteProc(bin, out, ps.proc, ps.sites, graphs[ps.proc]); err != nil {
			return nil, err
		}
	}
	bin.NewBytes = out.SizeBytes()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("instrument: rewritten program invalid: %w", err)
	}
	return bin, nil
}

type procSites struct {
	proc  int
	sites []transition.MarkSite
}

// sortedProcs yields per-procedure site groups in ascending procedure order
// for deterministic mark IDs.
func sortedProcs(m map[int][]transition.MarkSite) []procSites {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]procSites, 0, len(keys))
	for _, k := range keys {
		out = append(out, procSites{proc: k, sites: m[k]})
	}
	return out
}

// rewriteProc rewrites one procedure: inline insertions at fallthrough mark
// sites, stubs for taken-edge mark sites, and target remapping. g is the
// procedure's original CFG.
func rewriteProc(bin *Binary, p *prog.Program, pi int, sites []transition.MarkSite, g *cfg.Graph) error {
	proc := p.Procs[pi]
	n := len(proc.Instrs)

	// Inline marks keyed by target instruction index. Multiple fallthrough
	// marks cannot share a target (a block has one layout predecessor), but
	// be defensive and stack them.
	inline := map[int][]transition.MarkSite{}
	// Stubs keyed by (source block end-1: the branch instruction index,
	// target instruction index).
	type stubKey struct{ branchInstr, target int }
	stubs := map[stubKey]transition.MarkSite{}

	for _, s := range sites {
		tgt := g.Blocks[s.To].Start
		if tgt < 0 || tgt >= n {
			return fmt.Errorf("instrument: proc %d: mark target instr %d out of range", pi, tgt)
		}
		if s.Fallthrough {
			inline[tgt] = append(inline[tgt], s)
			continue
		}
		// Taken edge: the source block's terminating branch/jump.
		bEnd := g.Blocks[s.From].End - 1
		if bEnd < 0 || bEnd >= n {
			return fmt.Errorf("instrument: proc %d: mark source instr %d out of range", pi, bEnd)
		}
		term := proc.Instrs[bEnd]
		if term.Op != isa.Branch && term.Op != isa.Jump {
			// A non-branch region crossing marked as non-fallthrough cannot
			// be instrumented on the taken path; treat as inline at target.
			inline[tgt] = append(inline[tgt], s)
			continue
		}
		stubs[stubKey{branchInstr: bEnd, target: tgt}] = s
	}

	// Build the new instruction stream with an index remap. Branches that
	// target a position with inline marks skip past them: remap[i] points at
	// the original instruction's new position.
	remap := make([]int, n+1)
	var instrs []isa.Instruction
	for i := 0; i < n; i++ {
		for _, s := range inline[i] {
			instrs = append(instrs, isa.Instruction{
				Op:     isa.PhaseMark,
				MarkID: len(bin.Marks),
				Bytes:  InlineMarkBytes,
			})
			bin.Marks = append(bin.Marks, Mark{ID: len(bin.Marks), Type: s.Type, Site: s})
		}
		remap[i] = len(instrs)
		instrs = append(instrs, proc.Instrs[i])
	}
	remap[n] = len(instrs)

	// Append stubs and note retarget instructions. Deterministic order.
	type stubFix struct {
		branchInstr int // original index of branch to retarget
		stubPos     int // new index of stub entry
	}
	var fixes []stubFix
	skeys := make([]stubKey, 0, len(stubs))
	for k := range stubs {
		skeys = append(skeys, k)
	}
	sort.Slice(skeys, func(a, b int) bool {
		if skeys[a].branchInstr != skeys[b].branchInstr {
			return skeys[a].branchInstr < skeys[b].branchInstr
		}
		return skeys[a].target < skeys[b].target
	})
	for _, k := range skeys {
		s := stubs[k]
		stubPos := len(instrs)
		instrs = append(instrs, isa.Instruction{
			Op:     isa.PhaseMark,
			MarkID: len(bin.Marks),
			Bytes:  InlineMarkBytes,
		})
		bin.Marks = append(bin.Marks, Mark{ID: len(bin.Marks), Type: s.Type, Site: s, Stub: true})
		// Jump back to the (remapped) original target, past any inline marks.
		instrs = append(instrs, isa.Instruction{Op: isa.Jump, Target: remap[k.target], Bytes: StubJumpBytes})
		fixes = append(fixes, stubFix{branchInstr: k.branchInstr, stubPos: stubPos})
	}

	// Remap branch/jump targets of original instructions.
	for i := 0; i < n; i++ {
		ni := remap[i]
		switch instrs[ni].Op {
		case isa.Branch, isa.Jump:
			instrs[ni].Target = remap[instrs[ni].Target]
		}
	}
	// Retarget stub-marked branches to their stubs (after generic remap so
	// the stub target wins).
	for _, f := range fixes {
		ni := remap[f.branchInstr]
		instrs[ni].Target = f.stubPos
	}

	p.Procs[pi] = &prog.Procedure{Name: proc.Name, Instrs: instrs}
	return nil
}
