// Package summarize computes dominant phase types for program regions
// larger than basic blocks: Allen intervals (paper §II-A1b) and
// inter-procedural loops (paper §II-A1c, Algorithm 1).
//
// Both analyses fold the block-level typing produced by package phase into a
// weighted type map M : Π → ℝ per region and pick the dominant type
// π = argmax M together with a strength σ = M(π)/ΣM. Loops are summarized
// bottom-up over the call graph, so calls made inside loops contribute their
// callee's summary, and nested loops whose types agree with their parent are
// eliminated from the loop type map T so that no phase mark lands inside a
// hot iteration space.
package summarize

import (
	"math"
	"sort"

	"phasetune/internal/cfg"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
)

// Weights configures the node-weight function ϕ and the nesting-level weight
// function wn of Algorithm 1.
type Weights struct {
	// NestBase is the base of the nesting weight wn(λ) = NestBase^λ: nodes
	// in inner loops count geometrically more ("nodes which belong to inner
	// loops are given a higher weight"). Must be >= 1.
	NestBase float64
	// CycleBoost multiplies the weight of interval nodes that lie on a cycle
	// ("those within cycles are given a higher weight"). Must be >= 1.
	CycleBoost float64
}

// DefaultWeights mirrors the constants used throughout the experiments.
func DefaultWeights() Weights { return Weights{NestBase: 4, CycleBoost: 8} }

func (w Weights) nest(level int) float64 {
	if w.NestBase <= 1 {
		return 1
	}
	return math.Pow(w.NestBase, float64(level))
}

// TypeInfo is a summarized region type with its strength.
type TypeInfo struct {
	// Type is the dominant phase type, or phase.Untyped when the region
	// contains no typed node.
	Type phase.Type
	// Strength is M(π) over the sum of all type weights, in [0, 1].
	Strength float64
}

// typeMap is the paper's M : Π → ℝ.
type typeMap map[phase.Type]float64

// add implements M ⊕ {π ↦ M(π) + w}.
func (m typeMap) add(t phase.Type, w float64) {
	if t == phase.Untyped || w <= 0 {
		return
	}
	m[t] += w
}

// dominant picks argmax M with a deterministic tie-break (smaller type ID —
// the paper allows "a simple heuristic" for ties).
func (m typeMap) dominant() TypeInfo {
	if len(m) == 0 {
		return TypeInfo{Type: phase.Untyped}
	}
	types := make([]phase.Type, 0, len(m))
	total := 0.0
	for t, w := range m {
		types = append(types, t)
		total += w
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	best := types[0]
	for _, t := range types[1:] {
		if m[t] > m[best] {
			best = t
		}
	}
	return TypeInfo{Type: best, Strength: m[best] / total}
}

// nodeWeight is ϕ(η): the instruction count of the block.
func nodeWeight(b *cfg.Block) float64 { return float64(b.NumInstrs()) }

// SummarizeIntervals computes the dominant type of every interval of g via
// the weighted traversal of §II-A1b: walk the interval from its entry node
// ignoring backward edges, accumulating each node's weight into the type
// map, with nodes inside cycles boosted.
func SummarizeIntervals(g *cfg.Graph, procIndex int, typing *phase.Typing, w Weights, ivs []*cfg.Interval) map[int]TypeInfo {
	loops := g.NaturalLoops()
	depth := cfg.LoopDepth(g, loops)
	out := make(map[int]TypeInfo, len(ivs))
	for _, iv := range ivs {
		m := typeMap{}
		// Depth-first from the header ignoring back edges; since weights
		// simply accumulate, iteration order does not change the sum, but we
		// honor the traversal so only forward-reachable members count.
		visited := map[int]bool{}
		stack := []int{iv.Header}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[n] || !iv.Contains(n) {
				continue
			}
			visited[n] = true
			b := g.Blocks[n]
			wt := nodeWeight(b)
			if depth[n] > 0 {
				wt *= w.CycleBoost
			}
			m.add(typing.TypeOf(phase.BlockKey{Proc: procIndex, Block: n}), wt)
			for _, s := range g.ForwardSuccs(n) {
				stack = append(stack, s)
			}
		}
		out[iv.ID] = m.dominant()
	}
	return out
}

// LoopInfo is the summarized type of one natural loop.
type LoopInfo struct {
	// Proc is the procedure index; Loop the loop within its CFG forest.
	Proc int
	Loop *cfg.Loop
	// Info is the dominant type and strength (σ).
	Info TypeInfo
	// InT reports whether the loop survives in the loop type map T after
	// nested-loop elimination — i.e., whether it is a marking unit.
	InT bool
}

// ProcSummary is the whole-procedure summary used at call sites.
type ProcSummary struct {
	// Info is the dominant type over all blocks of the procedure, loops
	// weighted by nesting.
	Info TypeInfo
	// Weight is the total accumulated ϕ weight, used as the contribution
	// weight of a call node.
	Weight float64
}

// Summary is the result of the inter-procedural loop analysis.
type Summary struct {
	// Procs holds per-procedure summaries, indexed by procedure.
	Procs []ProcSummary
	// Loops holds per-procedure loop summaries, indexed by procedure then
	// loop ID (matching cfg.NaturalLoops order).
	Loops [][]LoopInfo
	// LoopForest caches each procedure's natural-loop forest.
	LoopForest [][]*cfg.Loop
}

// recursionRounds bounds the fixpoint iteration for recursive call graphs
// (paper: "in the case of indirect recursion ... analyze all procedures
// again until a fixpoint is reached").
const recursionRounds = 8

// SummarizeLoops runs the paper's Algorithm 1 over the whole program,
// bottom-up with respect to the call graph.
func SummarizeLoops(p *prog.Program, graphs []*cfg.Graph, cg *cfg.CallGraph, typing *phase.Typing, w Weights) *Summary {
	n := len(graphs)
	s := &Summary{
		Procs:      make([]ProcSummary, n),
		Loops:      make([][]LoopInfo, n),
		LoopForest: make([][]*cfg.Loop, n),
	}
	for i, g := range graphs {
		s.LoopForest[i] = g.NaturalLoops()
	}

	order := cg.BottomUpOrder()
	// Fixpoint over the whole order handles recursion: non-recursive
	// programs converge after the first round because callees precede
	// callers.
	for round := 0; round < recursionRounds; round++ {
		changed := false
		for _, pi := range order {
			if s.summarizeProc(pi, graphs[pi], typing, w) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return s
}

// contribution returns the (type, weight) a CFG node contributes: blocks use
// their typing and instruction count; call nodes use the callee's summary.
func (s *Summary) contribution(procIndex int, b *cfg.Block, typing *phase.Typing) (phase.Type, float64) {
	if b.Kind == cfg.KindCall && b.CalleeProc >= 0 {
		ps := s.Procs[b.CalleeProc]
		return ps.Info.Type, ps.Weight
	}
	return typing.TypeOf(phase.BlockKey{Proc: procIndex, Block: b.ID}), nodeWeight(b)
}

// summarizeProc recomputes one procedure's loop summaries, loop type map
// membership, and procedure summary. It reports whether the procedure
// summary changed (for the recursion fixpoint).
func (s *Summary) summarizeProc(pi int, g *cfg.Graph, typing *phase.Typing, w Weights) bool {
	loops := s.LoopForest[pi]
	infos := make([]LoopInfo, len(loops))

	// λ(η) relative to loop l is the number of loops strictly inside l that
	// contain η; absolute loop depth gives it after subtracting l's depth.
	depth := cfg.LoopDepth(g, loops)

	// Inner-most first: sort loop IDs by ascending block count.
	byInner := make([]int, len(loops))
	for i := range byInner {
		byInner[i] = i
	}
	sort.Slice(byInner, func(a, b int) bool {
		la, lb := loops[byInner[a]], loops[byInner[b]]
		if len(la.Blocks) != len(lb.Blocks) {
			return len(la.Blocks) < len(lb.Blocks)
		}
		return la.ID < lb.ID
	})

	for _, li := range byInner {
		l := loops[li]
		m := typeMap{}
		// Breadth-first traversal from the header ignoring back edges,
		// restricted to loop members (Algorithm 1's BFS(l)).
		visited := map[int]bool{}
		queue := []int{l.Header}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if visited[n] || !l.Contains(n) {
				continue
			}
			visited[n] = true
			b := g.Blocks[n]
			lam := depth[n] - l.Depth - 1 // nesting level within l: 0 for l's own body
			if lam < 0 {
				lam = 0
			}
			t, wt := s.contribution(pi, b, typing)
			m.add(t, w.nest(lam)*wt)
			for _, succ := range g.ForwardSuccs(n) {
				queue = append(queue, succ)
			}
		}
		infos[li] = LoopInfo{Proc: pi, Loop: l, Info: m.dominant()}
	}

	applyElimination(loops, infos)

	// Procedure summary: all blocks, weighted by absolute nesting depth.
	m := typeMap{}
	weight := 0.0
	for _, b := range g.Blocks {
		t, wt := s.contribution(pi, b, typing)
		wFull := w.nest(depth[b.ID]) * wt
		m.add(t, wFull)
		weight += wt
	}
	info := m.dominant()
	old := s.Procs[pi]
	s.Procs[pi] = ProcSummary{Info: info, Weight: weight}
	s.Loops[pi] = infos
	return old.Info.Type != info.Type || math.Abs(old.Info.Strength-info.Strength) > 1e-9 || old.Weight != weight
}

// applyElimination computes loop-type-map membership (InT) per Algorithm 1.
// Processing runs inner-most first; when an outer loop subsumes its direct
// children, the children leave T.
//
// Faithful to the paper's three cases, generalized to any number of direct
// children: with a single child, the outer loop subsumes it when the child
// is in T and either shares the outer type or is weaker (σ' < σ); with
// multiple disjoint children, the outer loop subsumes them only when all are
// in T and all share the outer loop's type; with no children the loop simply
// joins T.
func applyElimination(loops []*cfg.Loop, infos []LoopInfo) {
	if len(loops) == 0 {
		return
	}
	order := make([]int, len(loops))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := loops[order[a]], loops[order[b]]
		if len(la.Blocks) != len(lb.Blocks) {
			return len(la.Blocks) < len(lb.Blocks)
		}
		return la.ID < lb.ID
	})

	for _, li := range order {
		l := loops[li]
		info := &infos[li]
		if info.Info.Type == phase.Untyped {
			info.InT = false
			continue
		}
		children := l.Children
		switch {
		case len(children) == 0:
			info.InT = true
		case len(children) == 1:
			c := &infos[children[0]]
			if c.InT && (c.Info.Type == info.Info.Type || c.Info.Strength < info.Info.Strength) {
				info.InT = true
				c.InT = false
			}
		default:
			all := true
			for _, ci := range children {
				c := &infos[ci]
				if !c.InT || c.Info.Type != info.Info.Type {
					all = false
					break
				}
			}
			if all {
				info.InT = true
				for _, ci := range children {
					infos[ci].InT = false
				}
			}
		}
	}
}
