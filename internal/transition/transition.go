// Package transition computes phase-transition points — the control-flow
// edges where the phase type of the executing code is likely to change — and
// produces the marking plan consumed by the instrumentation framework.
//
// The paper evaluates three granularities (§II-A1, §II-A2): basic blocks,
// Allen intervals, and inter-procedural loops. All three reduce to the same
// scheme: assign every CFG node to a *region* with a summarized phase type,
// then mark region-crossing edges whose source and target types differ.
// Regions are single blocks (BB technique), intervals (interval technique),
// or surviving loops from the loop type map T plus call nodes typed by their
// callee's summary (loop technique).
//
// Two mark-reduction devices from the paper are implemented:
//
//   - minimum section size: sections smaller than Params.MinSize are left
//     untyped and never attract marks;
//   - lookahead (BB technique): an edge is marked only when the majority of
//     the target's successors up to a fixed depth share the target's type.
package transition

import (
	"fmt"
	"sort"

	"phasetune/internal/cfg"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/summarize"
)

// Technique selects the section granularity.
type Technique int

const (
	// BasicBlock is the paper's BB[minSize, lookahead] family.
	BasicBlock Technique = iota
	// Interval is the paper's Int[minSize] family.
	Interval
	// Loop is the paper's Loop[minSize] family (inter-procedural).
	Loop
)

// String returns the paper's name for the technique.
func (t Technique) String() string {
	switch t {
	case BasicBlock:
		return "BB"
	case Interval:
		return "Int"
	case Loop:
		return "Loop"
	}
	return fmt.Sprintf("technique(%d)", int(t))
}

// ParseTechnique resolves a technique's command-line name: bb, interval or
// loop.
func ParseTechnique(s string) (Technique, error) {
	switch s {
	case "bb":
		return BasicBlock, nil
	case "interval":
		return Interval, nil
	case "loop":
		return Loop, nil
	}
	return 0, fmt.Errorf("unknown technique %q", s)
}

// Params configures plan computation.
type Params struct {
	// Technique is the section granularity.
	Technique Technique
	// MinSize is the minimum section size in instructions (blocks for BB —
	// paper uses 10/15/20; intervals and loops — paper uses 30/45/60).
	MinSize int
	// Lookahead is the BB-technique successor lookahead depth (0 disables).
	Lookahead int
	// PropagateThroughUntyped controls whether the effective source type of
	// an edge is propagated through untyped (small) sections. When false,
	// only edges between two typed sections are considered — the paper's
	// naive reading. Propagation reduces redundant marks and is the default
	// used by the experiments; the ablation benchmark compares both.
	PropagateThroughUntyped bool
}

// Name renders the paper-style variant name, e.g. "BB[15,1]" or "Loop[45]".
func (p Params) Name() string {
	if p.Technique == BasicBlock {
		return fmt.Sprintf("BB[%d,%d]", p.MinSize, p.Lookahead)
	}
	return fmt.Sprintf("%s[%d]", p.Technique, p.MinSize)
}

// MarkSite is one phase mark: control flowing across the edge From -> To
// (block IDs in procedure Proc) enters a section of phase type Type.
type MarkSite struct {
	Proc     int
	From, To int
	// Fallthrough reports whether the edge is the layout fallthrough edge
	// (To starts where From ends); instrumentation inserts inline marks for
	// fallthrough edges and jump stubs otherwise.
	Fallthrough bool
	// Type is the phase type of the section being entered.
	Type phase.Type
}

// Plan is the full set of mark sites for a program under one parameterer
// setting, plus summary statistics.
type Plan struct {
	Params Params
	Sites  []MarkSite
	// RegionTypes records the computed per-block section types (diagnostic).
	RegionTypes map[phase.BlockKey]phase.Type
	// SuppressedProcs marks procedures whose internal marks were eliminated
	// because every call site sits in a region of the callee's own type
	// (loop technique's inter-procedural elimination).
	SuppressedProcs []bool
}

// NumMarks returns the number of mark sites.
func (p *Plan) NumMarks() int { return len(p.Sites) }

// ComputePlan derives the marking plan for a program.
//
// The summary argument is required for the Interval and Loop techniques and
// ignored for BasicBlock (may be nil).
func ComputePlan(pr *prog.Program, graphs []*cfg.Graph, cg *cfg.CallGraph, typing *phase.Typing, sum *summarize.Summary, params Params) (*Plan, error) {
	if typing == nil {
		return nil, fmt.Errorf("transition: nil typing")
	}
	if params.Technique == Loop && sum == nil {
		return nil, fmt.Errorf("transition: loop technique requires a summary")
	}
	plan := &Plan{
		Params:          params,
		RegionTypes:     map[phase.BlockKey]phase.Type{},
		SuppressedProcs: make([]bool, len(graphs)),
	}

	// Per-procedure region assignment: region[b] is a region ID (-1 none),
	// rtype[b] the region's phase type.
	for pi, g := range graphs {
		region, rtype := assignRegions(pi, g, typing, sum, params)
		for b := range g.Blocks {
			plan.RegionTypes[phase.BlockKey{Proc: pi, Block: b}] = rtype[b]
		}
		eff := effectiveTypes(g, region, rtype, params)
		for _, e := range g.Edges {
			if region[e.From] == region[e.To] && region[e.From] != -1 {
				continue // intra-region edge
			}
			tgt := rtype[e.To]
			if tgt == phase.Untyped {
				continue
			}
			src := eff[e.From]
			if src == tgt {
				continue
			}
			if !params.PropagateThroughUntyped && src == phase.Untyped {
				continue
			}
			if params.Technique == BasicBlock && params.Lookahead > 0 &&
				!lookaheadMajority(g, pi, e.To, tgt, typing, params) {
				continue
			}
			plan.Sites = append(plan.Sites, MarkSite{
				Proc:        pi,
				From:        e.From,
				To:          e.To,
				Fallthrough: g.Blocks[e.From].End == g.Blocks[e.To].Start,
				Type:        tgt,
			})
		}
	}

	if params.Technique == Loop && sum != nil {
		suppressCalleeMarks(plan, graphs, cg, sum)
	}

	sort.Slice(plan.Sites, func(a, b int) bool {
		sa, sb := plan.Sites[a], plan.Sites[b]
		if sa.Proc != sb.Proc {
			return sa.Proc < sb.Proc
		}
		if sa.To != sb.To {
			return sa.To < sb.To
		}
		return sa.From < sb.From
	})
	return plan, nil
}

// assignRegions computes, for each block of one procedure, a region ID and
// the region's phase type under the configured technique.
func assignRegions(pi int, g *cfg.Graph, typing *phase.Typing, sum *summarize.Summary, params Params) (region []int, rtype []phase.Type) {
	n := len(g.Blocks)
	region = make([]int, n)
	rtype = make([]phase.Type, n)
	for i := range rtype {
		rtype[i] = phase.Untyped
	}

	blockType := func(b *cfg.Block) phase.Type {
		if b.Kind != cfg.KindNormal || b.NumInstrs() < params.MinSize {
			return phase.Untyped
		}
		return typing.TypeOf(phase.BlockKey{Proc: pi, Block: b.ID})
	}

	switch params.Technique {
	case BasicBlock:
		for i, b := range g.Blocks {
			region[i] = i
			rtype[i] = blockType(b)
		}

	case Interval:
		ivs := g.Intervals()
		infos := summarize.SummarizeIntervals(g, pi, typing, summarize.DefaultWeights(), ivs)
		of := cfg.IntervalOf(g, ivs)
		for i := range g.Blocks {
			region[i] = of[i]
			if of[i] == -1 {
				continue
			}
			iv := ivs[of[i]]
			if iv.NumInstrs(g) < params.MinSize {
				continue
			}
			rtype[i] = infos[of[i]].Type
		}

	case Loop:
		// Start from singleton regions typed at block granularity with a
		// modest block threshold (loops are the marking unit; stray large
		// blocks outside loops still provide type context).
		for i, b := range g.Blocks {
			region[i] = i
			rtype[i] = blockType(b)
			// Call nodes adopt their callee's summarized type so that
			// transitions across calls are handled (inter-procedural).
			if b.Kind == cfg.KindCall && b.CalleeProc >= 0 && sum != nil {
				ps := sum.Procs[b.CalleeProc]
				if ps.Weight >= float64(params.MinSize) {
					rtype[i] = ps.Info.Type
				}
			}
		}
		if sum != nil {
			// Surviving T-loops override, innermost-last so outer loops are
			// painted first and inner surviving loops (different type) win.
			loops := sum.Loops[pi]
			order := make([]int, 0, len(loops))
			for id, li := range loops {
				if li.InT && li.Loop.NumInstrs(g) >= params.MinSize && li.Info.Type != phase.Untyped {
					order = append(order, id)
				}
			}
			sort.Slice(order, func(a, b int) bool {
				return len(loops[order[a]].Loop.Blocks) > len(loops[order[b]].Loop.Blocks)
			})
			base := len(g.Blocks)
			for _, id := range order {
				li := loops[id]
				for _, b := range li.Loop.Blocks {
					region[b] = base + id
					rtype[b] = li.Info.Type
				}
			}
		}
	}
	return region, rtype
}

// effectiveTypes computes, per block, the phase type that execution carries
// when *leaving* the block: the block's own region type if typed, otherwise
// (with propagation enabled) the unique type flowing in from its
// predecessors, or Untyped when predecessors disagree or none is typed.
func effectiveTypes(g *cfg.Graph, region []int, rtype []phase.Type, params Params) []phase.Type {
	n := len(g.Blocks)
	eff := make([]phase.Type, n)
	copy(eff, rtype)
	if !params.PropagateThroughUntyped {
		return eff
	}
	// Forward propagation to a fixpoint over forward edges; loops over
	// untyped blocks converge because types only move from unknown to known
	// or to a conflict sentinel.
	const conflict = phase.Type(-2)
	for changed := true; changed; {
		changed = false
		for _, bid := range g.RPO() {
			if rtype[bid] != phase.Untyped {
				continue
			}
			var in phase.Type = phase.Untyped
			for _, p := range g.Blocks[bid].Preds {
				t := eff[p]
				if t == phase.Untyped {
					continue
				}
				if in == phase.Untyped {
					in = t
				} else if in != t {
					in = conflict
					break
				}
			}
			if in == conflict {
				in = phase.Untyped
			}
			if in != eff[bid] {
				eff[bid] = in
				changed = true
			}
		}
	}
	return eff
}

// lookaheadMajority implements the BB lookahead filter: walk forward from
// block v up to depth levels and require a strict majority of the typed
// blocks encountered to share type want.
func lookaheadMajority(g *cfg.Graph, pi, v int, want phase.Type, typing *phase.Typing, params Params) bool {
	type item struct{ b, d int }
	queue := []item{{v, 0}}
	seen := map[int]bool{v: true}
	match, typed := 0, 0
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.d > 0 { // the target itself does not vote
			b := g.Blocks[it.b]
			if b.Kind == cfg.KindNormal && b.NumInstrs() >= params.MinSize {
				t := typing.TypeOf(phase.BlockKey{Proc: pi, Block: it.b})
				if t != phase.Untyped {
					typed++
					if t == want {
						match++
					}
				}
			}
		}
		if it.d == params.Lookahead {
			continue
		}
		for _, s := range g.Blocks[it.b].Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, item{s, it.d + 1})
			}
		}
	}
	if typed == 0 {
		return true
	}
	return 2*match > typed
}

// suppressCalleeMarks removes marks inside procedures all of whose call
// sites lie in regions matching the callee's dominant type — the paper's
// elimination of "phase marks in functions that are called inside of loops".
func suppressCalleeMarks(plan *Plan, graphs []*cfg.Graph, cg *cfg.CallGraph, sum *summarize.Summary) {
	n := len(graphs)
	for q := 0; q < n; q++ {
		qi := sum.Procs[q].Info
		if qi.Type == phase.Untyped {
			continue
		}
		sites := 0
		agree := true
		for _, cs := range cg.Sites {
			if cs.Callee != q {
				continue
			}
			sites++
			ctx := plan.RegionTypes[phase.BlockKey{Proc: cs.CallerProc, Block: cs.Block}]
			if ctx != qi.Type {
				agree = false
				break
			}
		}
		if sites == 0 || !agree {
			continue
		}
		plan.SuppressedProcs[q] = true
	}
	if !anySuppressed(plan.SuppressedProcs) {
		return
	}
	kept := plan.Sites[:0]
	for _, s := range plan.Sites {
		if !plan.SuppressedProcs[s.Proc] {
			kept = append(kept, s)
		}
	}
	plan.Sites = kept
}

func anySuppressed(s []bool) bool {
	for _, v := range s {
		if v {
			return true
		}
	}
	return false
}
