package cfg

import "sort"

// Loop is a natural loop: the set of blocks on closed paths through a header
// reached by one or more back edges.
type Loop struct {
	// ID indexes the loop within the graph's loop forest.
	ID int
	// Header is the loop-header block ID (the target of the back edges).
	Header int
	// Blocks is the set of member block IDs, sorted ascending.
	Blocks []int
	// Parent is the ID of the innermost enclosing loop, or -1.
	Parent int
	// Children lists directly nested loops.
	Children []int
	// Depth is the nesting depth (outermost loops have depth 0).
	Depth int

	member map[int]bool
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return l.member[b] }

// NumInstrs returns the total instruction count of the loop body.
func (l *Loop) NumInstrs(g *Graph) int {
	n := 0
	for _, b := range l.Blocks {
		n += g.Blocks[b].NumInstrs()
	}
	return n
}

// NaturalLoops finds all natural loops of the graph using the classic
// back-edge algorithm (Muchnick §7.4): for each back edge u->h, the loop with
// header h includes h, u, and every block that reaches u without passing
// through h. Loops sharing a header are merged. The returned forest is sorted
// so that enclosing loops precede their children.
func (g *Graph) NaturalLoops() []*Loop {
	bodies := map[int]map[int]bool{} // header -> member set
	for _, e := range g.Edges {
		if !e.Back {
			continue
		}
		h, u := e.To, e.From
		body := bodies[h]
		if body == nil {
			body = map[int]bool{h: true}
			bodies[h] = body
		}
		// Backward flood from u, stopping at h.
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[x] {
				continue
			}
			body[x] = true
			for _, p := range g.Blocks[x].Preds {
				if !body[p] {
					stack = append(stack, p)
				}
			}
		}
	}

	headers := make([]int, 0, len(bodies))
	for h := range bodies {
		headers = append(headers, h)
	}
	sort.Ints(headers)

	loops := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		body := bodies[h]
		blocks := make([]int, 0, len(body))
		for b := range body {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		loops = append(loops, &Loop{
			ID:     len(loops),
			Header: h,
			Blocks: blocks,
			Parent: -1,
			member: body,
		})
	}

	// Nesting: loop A is nested in B when A's blocks are a subset of B's and
	// A != B. With merged headers, subset ordering is a forest. The innermost
	// strict superset is the parent.
	for _, a := range loops {
		best := -1
		for _, b := range loops {
			if a == b || len(b.Blocks) <= len(a.Blocks) {
				continue
			}
			if !subset(a.member, b.member) {
				continue
			}
			if best == -1 || len(loops[best].Blocks) > len(b.Blocks) {
				best = b.ID
			}
		}
		a.Parent = best
	}
	for _, l := range loops {
		if l.Parent != -1 {
			loops[l.Parent].Children = append(loops[l.Parent].Children, l.ID)
		}
	}
	// Depths, outside-in.
	var setDepth func(id, d int)
	setDepth = func(id, d int) {
		loops[id].Depth = d
		for _, c := range loops[id].Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range loops {
		if l.Parent == -1 {
			setDepth(l.ID, 0)
		}
	}
	return loops
}

// subset reports whether a ⊆ b.
func subset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// LoopDepth returns, for each block, the number of loops containing it
// (0 for blocks outside all loops).
func LoopDepth(g *Graph, loops []*Loop) []int {
	depth := make([]int, len(g.Blocks))
	for _, l := range loops {
		for _, b := range l.Blocks {
			depth[b]++
		}
	}
	return depth
}
