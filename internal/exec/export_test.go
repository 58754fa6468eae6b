package exec

import "phasetune/internal/rng"

// ControlState exposes a process's control state to the external
// reference test (reference_test.go) in the interpreter's own terms: the
// global id of the next block, the global ids open calls return to, the
// progress of the counted back edge ending block gid, and the branch rng.
func ControlState(p *Process) (pc int32, stack []int32, loopCount func(gid int32) int32, rand rng.Source) {
	loopCount = func(gid int32) int32 {
		if l := p.Img.blocks[gid].loop; l >= 0 {
			return p.loopCounts[l]
		}
		return 0
	}
	return p.pc, p.stack, loopCount, *p.rand
}

// DiamondArms counts the diamond arms (buildChains) in each procedure of
// img, by procedure name.
func DiamondArms(img *Image) map[string]int {
	arms := map[string]int{}
	b := 0
	for _, g := range img.Graphs {
		for range g.Blocks {
			if img.blocks[b].diamond {
				arms[g.ProcName]++
			}
			b++
		}
	}
	return arms
}
