package cfg

import (
	"fmt"
	"sort"

	"phasetune/internal/prog"
)

// CallSite is one call instruction, located by its containing block.
type CallSite struct {
	// CallerProc and Block locate the KindCall node.
	CallerProc, Block int
	// Callee is the called procedure's index.
	Callee int
}

// CallGraph is the program's call graph with recursion (SCC) structure.
type CallGraph struct {
	// NumProcs is the number of procedures.
	NumProcs int
	// Callees[p] lists procedures called by p (deduplicated, sorted).
	Callees [][]int
	// Callers[p] lists procedures calling p (deduplicated, sorted).
	Callers [][]int
	// Sites lists every call site.
	Sites []CallSite
	// SCC[p] is the strongly-connected-component ID of procedure p.
	// Components are numbered in reverse topological order: callees'
	// components come before callers' (SCC IDs ascend bottom-up).
	SCC []int
	// NumSCCs is the number of components.
	NumSCCs int
}

// BuildAll constructs the CFG of every procedure in the program.
func BuildAll(p *prog.Program) ([]*Graph, error) {
	graphs := make([]*Graph, len(p.Procs))
	for i, pr := range p.Procs {
		g, err := Build(pr, i)
		if err != nil {
			return nil, fmt.Errorf("cfg: %s: %w", p.Name, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

// BuildCallGraph derives the call graph from per-procedure CFGs.
func BuildCallGraph(p *prog.Program, graphs []*Graph) *CallGraph {
	n := len(p.Procs)
	cg := &CallGraph{
		NumProcs: n,
		Callees:  make([][]int, n),
		Callers:  make([][]int, n),
	}
	calleeSet := make([]map[int]bool, n)
	callerSet := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		calleeSet[i] = map[int]bool{}
		callerSet[i] = map[int]bool{}
	}
	for pi, g := range graphs {
		for _, b := range g.Blocks {
			if b.Kind != KindCall {
				continue
			}
			cg.Sites = append(cg.Sites, CallSite{CallerProc: pi, Block: b.ID, Callee: b.CalleeProc})
			calleeSet[pi][b.CalleeProc] = true
			callerSet[b.CalleeProc][pi] = true
		}
	}
	for i := 0; i < n; i++ {
		cg.Callees[i] = setToSorted(calleeSet[i])
		cg.Callers[i] = setToSorted(callerSet[i])
	}
	cg.computeSCCs()
	return cg
}

func setToSorted(s map[int]bool) []int {
	out := make([]int, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// computeSCCs runs Tarjan's algorithm over the call graph. Tarjan emits
// components in reverse topological order, which is exactly the bottom-up
// order the paper's inter-procedural loop typing needs ("a bottom-up typing
// is performed with respect to the call graph", §II-A1c).
func (cg *CallGraph) computeSCCs() {
	n := cg.NumProcs
	cg.SCC = make([]int, n)
	for i := range cg.SCC {
		cg.SCC[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range cg.Callees[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				cg.SCC[w] = cg.NumSCCs
				if w == v {
					break
				}
			}
			cg.NumSCCs++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
}

// BottomUpOrder returns procedure indices so that, recursion aside, every
// callee precedes its callers (ascending SCC ID, then procedure index for
// determinism).
func (cg *CallGraph) BottomUpOrder() []int {
	order := make([]int, cg.NumProcs)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		if cg.SCC[pa] != cg.SCC[pb] {
			return cg.SCC[pa] < cg.SCC[pb]
		}
		return pa < pb
	})
	return order
}
