// Contention pricing: the shared memory hierarchy joins the loss function.
//
// Algorithm 2 and the capacity arbitration price placements by core-type
// IPC alone, and the breakdown map's hex panel showed what that misses: two
// DRAM-bound tasks herd onto one cache group because nothing charges for
// shared-hierarchy pressure. Each task's flat IPC profile sends it to the
// slowest type (Select ties break toward cheap capacity), the type's demand
// sits inside quota+band, and the quota loop never fires — so both tasks
// thrash one L2 while a same-size cache one group over sits idle.
//
// This file adds the missing term. A Decision may carry MemStats — the
// phase's shared-cache reference density and reuse profile — and when the
// engine's Config.Contention is non-nil, arbitration prices every
// (claim, type) pair by its *adjusted* rate: the measured instruction rate
// degraded by the marginal DRAM stall the claim would suffer at the type's
// projected cache-group occupancy, scaled by a machine-level DRAM-bandwidth
// overdraft factor. Two passes consume the adjusted rates:
//
//   - the quota spill loop prices loss as the adjusted-rate difference at the
//     projected occupancies, so a memory phase spilling onto a crowded
//     group is no longer "free";
//   - a relief pass then moves memory-priced claims whose adjusted rate
//     improves by more than reliefMargin onto types with spare quota —
//     the move that actually separates antagonists, since herding never
//     trips the quota loop in the first place.
//
// Determinism contract: a nil Config.Contention leaves every code path —
// Decide, Arbitrate, AssignRanked — bit-identical to the unpriced engine,
// MemStats included (the engine never reads Decision.Mem when pricing is
// off). The priced pass itself is a pure function of its inputs: fixed
// iteration order, float arithmetic only, no maps.
package place

import (
	"phasetune/internal/amp"
	"phasetune/internal/reuse"
	"phasetune/internal/trace"
)

// Contention pricing's fixed operating point.
const (
	// missNs mirrors exec.CostModel.MemLatencyNS: the DRAM miss latency in
	// nanoseconds the marginal-stall term is priced with.
	missNs = 83.0
	// reliefMargin is the relative adjusted-rate gain a relief move must
	// clear, damping moves inside estimate noise.
	reliefMargin = 0.05
	// budgetFrac derives the machine-wide DRAM bandwidth budget, in
	// shared-cache misses per simulated second, from machine capacity:
	// budget = frac × total cycles/sec (one miss per 50 cycles machine-wide
	// before the overdraft factor starts inflating marginal stalls).
	budgetFrac = 0.02
)

// ContentionConfig has no fields: a non-nil *ContentionConfig in Config
// switches pricing on at the fixed operating point above, and travels on
// the dist wire as "contention":{}. Nil (the default) is unpriced.
type ContentionConfig struct{}

// MemStats is a shared-cache pressure signature, attached to a Decision by
// the consumer that fixed it: the runtimes attach the whole image's
// (exec.Image.MemSignature returns this type), the oracle one per phase.
// The engine reads it only under contention pricing; decisions without it
// are treated as cache-neutral.
type MemStats struct {
	// L2RefsPerInstr is the expected number of references per retired
	// instruction that miss the private L1 and reach the shared cache.
	L2RefsPerInstr float64 `json:"l2_refs_per_instr"`
	// Profile is the phase's aggregate reuse profile; its miss ratio at
	// the effective per-occupant share prices group crowding.
	Profile reuse.Profile `json:"profile"`
}

// typeGroups is the cache-group topology of one core type: how the type's
// cores split across shared-L2 groups, which is what turns a type-level
// demand count into a per-group occupancy projection.
type typeGroups struct {
	// groupKB is the smallest L2 size among groups holding this type's
	// cores (conservative when a type spans unequal groups).
	groupKB float64
	// numGroups counts distinct groups holding this type's cores.
	numGroups int
	// coresPerGroup is the largest same-type core count in one group —
	// the occupancy ceiling per group.
	coresPerGroup int
}

// groupsOf derives the per-type cache-group topology.
func groupsOf(m *amp.Machine) []typeGroups {
	out := make([]typeGroups, len(m.Types))
	for ti := range m.Types {
		perGroup := make([]int, len(m.L2s))
		for _, core := range m.Cores {
			if int(core.Type) == ti {
				perGroup[core.L2]++
			}
		}
		tg := &out[ti]
		for gi, n := range perGroup {
			if n == 0 {
				continue
			}
			tg.numGroups++
			if kb := m.L2s[gi].SizeKB; tg.groupKB == 0 || kb < tg.groupKB {
				tg.groupKB = kb
			}
			if n > tg.coresPerGroup {
				tg.coresPerGroup = n
			}
		}
	}
	return out
}

// effectiveShareKB projects the per-task cache share on type t when demand
// tasks of that type run concurrently: demand spreads evenly over the
// type's cache groups (the scheduler balances queues), each group's
// occupancy is capped at its same-type core count, and the group size is
// divided by the projected occupancy. demand <= 1 returns the solo share.
func (e *Engine) effectiveShareKB(t amp.CoreTypeID, demand int) float64 {
	tg := e.groups[t]
	if tg.numGroups == 0 || tg.groupKB <= 0 {
		return 0
	}
	occ := (demand + tg.numGroups - 1) / tg.numGroups
	if occ < 1 {
		occ = 1
	}
	if occ > tg.coresPerGroup {
		occ = tg.coresPerGroup
	}
	return tg.groupKB / float64(occ)
}

// missSecPerRef is the simulated seconds one DRAM miss stalls a core of
// type t: missNs nanoseconds priced in nominal-frequency cycles, then
// divided by the scaled clock. Because scaled clocks preserve nominal
// frequency ratios (amp.Machine.Validate), the value is type-invariant —
// DRAM latency is wall-clock, not core-clock.
func missSecPerRef(ty amp.CoreType) float64 {
	return missNs * ty.FreqGHz / ty.CyclesPerSec
}

// adjustedRate is the contention-priced instruction rate of one decision on
// type t at the given projected type demand: the measured rate degraded by
// the marginal stall of sharing the type's cache group. The marginal term
// is the *extra* misses per instruction versus running solo on the group —
// so a solo task, a compute task (tiny L2RefsPerInstr), or an L2-resident
// task (miss ratio flat in the share) all price at their raw rate.
func (e *Engine) adjustedRate(dec *Decision, t int, demand int, bw float64) float64 {
	r := dec.Rates[t]
	if !e.priced || dec.Mem == nil || r <= 0 {
		return r
	}
	ct := amp.CoreTypeID(t)
	share := e.effectiveShareKB(ct, demand)
	solo := e.groups[ct].groupKB
	extra := dec.Mem.L2RefsPerInstr * (dec.Mem.Profile.MissRatio(share) - dec.Mem.Profile.MissRatio(solo))
	if extra <= 0 {
		return r
	}
	stall := extra * missSecPerRef(e.machine.Types[t]) * bw
	// r instructions/sec at 1/r sec/instr picks up `stall` extra seconds
	// per instruction: rate' = 1 / (1/r + stall).
	return r / (1 + r*stall)
}

// bwFactor projects the machine-wide DRAM miss traffic of the claims at
// their current demands and converts budget overdraft into a marginal-stall
// multiplier: 1 while traffic fits the budget, and the traffic-to-budget
// ratio beyond it. Computed once per arbitration pass from the initial
// assignment so every candidate move is priced against one consistent
// bandwidth picture.
func (e *Engine) bwFactor(claims []Claim, demand []int) float64 {
	budget := budgetFrac * e.totalCps
	if budget <= 0 {
		return 1
	}
	total := 0.0
	for i := range claims {
		dec := claims[i].Dec
		if dec.Mem == nil {
			continue
		}
		t := int(dec.Choice)
		share := e.effectiveShareKB(dec.Choice, demand[t])
		total += dec.Rates[t] * dec.Mem.L2RefsPerInstr * dec.Mem.Profile.MissRatio(share)
	}
	if total <= budget {
		return 1
	}
	return total / budget
}

// relieve is the contention relief pass: after the quota loop, repeatedly
// apply the single best move of a memory-priced claim onto a type with
// spare quota, as long as the adjusted-rate gain clears reliefMargin
// (plus the hysteresis discount when the claim would leave its previous
// assignment). Targets stay strictly inside quota+band, so relief never
// re-creates the oversubscription the quota loop just resolved, and each
// accepted move strictly improves the moved claim's adjusted rate — the
// pass terminates well inside its round bound. Ties resolve to the lowest
// claim index, then the lowest target type: deterministic.
func (e *Engine) relieve(claims []Claim, assigned []amp.CoreTypeID, demand, quota []int, bw float64) {
	nTypes := len(e.machine.Types)
	for round := 0; round < len(claims)*nTypes; round++ {
		bestI, bestT, bestGain := -1, -1, 0.0
		for i := range claims {
			dec := claims[i].Dec
			if dec.Mem == nil {
				continue
			}
			cur := int(assigned[i])
			curRate := e.adjustedRate(dec, cur, demand[cur], bw)
			thr := reliefMargin
			if claims[i].HasPrev && int(claims[i].Prev) == cur {
				thr += hysteresis
			}
			for t := 0; t < nTypes; t++ {
				if t == cur || demand[t] >= quota[t]+band {
					continue
				}
				gain := e.adjustedRate(dec, t, demand[t]+1, bw) - curRate*(1+thr)
				if gain > bestGain {
					bestI, bestT, bestGain = i, t, gain
				}
			}
		}
		if bestI == -1 {
			break
		}
		from := int(assigned[bestI])
		if e.tr != nil {
			e.tr.InstantNow("place", "relief", trace.PidMachine, trace.TidKernel,
				trace.Arg{Key: "claim", Value: bestI},
				trace.Arg{Key: "from", Value: e.machine.Types[from].Name},
				trace.Arg{Key: "to", Value: e.machine.Types[bestT].Name},
				trace.Arg{Key: "gain", Value: bestGain},
				trace.Arg{Key: "bw", Value: bw})
		}
		assigned[bestI] = amp.CoreTypeID(bestT)
		demand[from]--
		demand[bestT]++
	}
}
