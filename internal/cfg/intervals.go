package cfg

import "sort"

// Interval is Allen's interval: "the maximal, single entry subgraph for which
// h is the entry node and in which all closed paths contain h" (Allen 1970,
// quoted in the paper §II-A1b).
type Interval struct {
	// ID indexes the interval in the partition.
	ID int
	// Header is the interval's entry block.
	Header int
	// Blocks is the member set, sorted ascending; the header is included.
	Blocks []int

	member map[int]bool
}

// Contains reports whether block b belongs to the interval.
func (iv *Interval) Contains(b int) bool { return iv.member[b] }

// NumInstrs returns the total instruction count of the interval.
func (iv *Interval) NumInstrs(g *Graph) int {
	n := 0
	for _, b := range iv.Blocks {
		n += g.Blocks[b].NumInstrs()
	}
	return n
}

// Intervals computes the unique partition of the reachable blocks into
// intervals using Allen's classic worklist algorithm:
//
//	H := {entry}
//	for each unprocessed h in H:
//	    I(h) := {h}
//	    add to I(h) any node whose predecessors all lie in I(h)
//	    add to H any node not yet in an interval with a predecessor in I(h)
//
// Every reachable block lands in exactly one interval.
func (g *Graph) Intervals() []*Interval {
	reachable := make([]bool, len(g.Blocks))
	for _, b := range g.RPO() {
		reachable[b] = true
	}

	inInterval := make([]bool, len(g.Blocks))
	isHeader := make([]bool, len(g.Blocks))
	var headers []int
	push := func(h int) {
		if !isHeader[h] {
			isHeader[h] = true
			headers = append(headers, h)
		}
	}
	push(g.Entry)

	var out []*Interval
	for qi := 0; qi < len(headers); qi++ {
		h := headers[qi]
		member := map[int]bool{h: true}
		inInterval[h] = true
		// Grow: add nodes all of whose predecessors are inside.
		for changed := true; changed; {
			changed = false
			for b := range g.Blocks {
				if !reachable[b] || member[b] || inInterval[b] || isHeader[b] {
					continue
				}
				preds := g.Blocks[b].Preds
				if len(preds) == 0 {
					continue
				}
				all := true
				for _, p := range preds {
					if !member[p] {
						all = false
						break
					}
				}
				if all {
					member[b] = true
					inInterval[b] = true
					changed = true
				}
			}
		}
		// New headers: nodes outside all intervals with a predecessor inside.
		for b := range g.Blocks {
			if !reachable[b] || inInterval[b] || isHeader[b] {
				continue
			}
			for _, p := range g.Blocks[b].Preds {
				if member[p] {
					push(b)
					break
				}
			}
		}
		blocks := make([]int, 0, len(member))
		for b := range member {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		out = append(out, &Interval{ID: len(out), Header: h, Blocks: blocks, member: member})
	}
	return out
}

// IntervalOf returns, for each block, the ID of its interval (or -1 for
// unreachable blocks).
func IntervalOf(g *Graph, ivs []*Interval) []int {
	of := make([]int, len(g.Blocks))
	for i := range of {
		of[i] = -1
	}
	for _, iv := range ivs {
		for _, b := range iv.Blocks {
			of[b] = iv.ID
		}
	}
	return of
}
