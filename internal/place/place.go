// Package place is the unified placement engine: the single implementation
// of the paper's Algorithm 2 core-type chooser, the core-type capacity
// model, and the capacity-aware spill arbitration that every placement
// consumer in the system shares.
//
// Four runtimes make placement decisions — the static phase-mark runtime
// (internal/tuning), the online phase detector (internal/online), the
// marks+windows hybrid (online.Hybrid), and the perfect-knowledge oracle —
// and they differ only in *how* the per-(phase, core-type) IPC estimates
// are obtained: representative-section sampling at marks, windowed counter
// sampling on ticks, marks for boundaries with windows for refresh, or the
// static cost model. What they do with those estimates is one algorithm,
// and it lives here:
//
//	IPC per core type ──Decide──▶ Decision{Choice, Rates, Mem}
//	                                    │ (per-task claims)
//	  claim ──Place──▶ arbitrated mask + spilled?   (mark-driven runtimes)
//	  claims ──Arbitrate──▶ per-task core types      (the detector's tick)
//
// Decide is Algorithm 2 (Select) plus the per-type instruction rates the
// arbitration prices spills with. Arbitrate treats per-task choices as
// demands and spills overflow beyond a core type's cycle-capacity share —
// cheapest task first, where "cheap" is the measured rate lost by running on
// the spill target (a DRAM-bound task loses ~nothing on a fast core, so
// memory phases spill to idle fast cores first). Place is the claim step
// over registered tasks: enter the decision, read the arbitrated mask, and
// learn whether it holds the task off its own choice. Feeding identical
// IPC tables through any consumer therefore produces identical placements
// — the property internal/place/place_test.go pins down.
//
// Table is the per-phase evidence table the static tuner and the hybrid
// accumulate into: running per-(phase, core-type) IPC means, the
// least-measured probe target, and the fixed Decision. It snapshots the
// means each decision was fixed from, and Table.Drift prices how far later
// samples have moved them — the signal the hybrid's re-decision damping
// (online.HybridConfig.Drift) thresholds so estimate jitter refreshes data
// without re-entering Decide.
//
// The package is pure decision math over an amp.Machine: it has no
// dependency on the simulator, scheduler, or counter layers, which is what
// lets both mark hooks and kernel monitors share one Engine instance.
package place

import (
	"slices"

	"phasetune/internal/amp"
	"phasetune/internal/trace"
)

// Config parameterizes the arbitration (the Algorithm 2 threshold δ is a
// separate Engine argument: it is the run's tuning knob, not arbitration's).
// The zero value is the unpriced engine every runtime uses by default.
type Config struct {
	// Contention, when non-nil, prices shared-L2 occupancy and DRAM
	// bandwidth into arbitration (see contention.go). Nil — the default —
	// keeps both the wire encoding and every engine code path
	// byte-identical to unpriced builds.
	Contention *ContentionConfig `json:"contention,omitempty"`
}

// The arbitration's fixed operating point.
const (
	// band is the per-type oversubscription tolerance in tasks: a type may
	// exceed its capacity quota by band before arbitration spills from it,
	// so a task sitting exactly at a quota boundary does not flap.
	band = 1
	// hysteresis discounts the spill loss of a task already placed on the
	// spill target, so marginal spill choices stick across passes.
	hysteresis = 0.05
)

// tieEps is the relative IPC difference below which two measurements are
// treated as a tie when ordering candidates in Select. Measured IPC carries
// sampling noise (branch-variant mix, mark payloads); without an epsilon,
// compute-bound phases — whose true IPC is core-invariant — would start from
// an arbitrary candidate. Memory-phase gaps are tens of percent relative, so
// 3% never masks a real difference.
const tieEps = 0.03

// Select is the paper's Algorithm 2 generalized over core *types* (§VI-C
// reduces many-core machines to a few types): sort candidates by measured
// IPC ascending; start from the lowest; step to the next candidate only when
// the consecutive IPC gap exceeds delta. Ties (within tieEps relative) place
// faster (higher-frequency) types first, so compute-bound phases — whose IPC
// is core-invariant — default to fast cores.
func Select(machine *amp.Machine, f []float64, delta float64) amp.CoreTypeID {
	n := len(f)
	if n == 0 {
		return 0
	}
	var buf [8]int
	order := buf[:0]
	if n > len(buf) {
		order = make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	// The tie window makes selectCmp intransitive (a ties b and b ties c
	// while a < c), so the order depends on the algorithm, not just the
	// comparator. slices.SortFunc runs the pdqsort that sort.Slice runs,
	// generated from the same source, without sort.Slice's allocations.
	slices.SortFunc(order, func(a, b int) int { return selectCmp(machine, f, a, b) })
	d := order[0]
	for i := 0; i+1 < n; i++ {
		theta := f[order[i+1]] - f[order[i]]
		if theta > delta && f[order[i+1]] > f[d] {
			d = order[i+1]
		}
	}
	return amp.CoreTypeID(d)
}

// selectCmp orders core types by measured IPC ascending, with IPCs within
// tieEps relative ordered faster type first.
func selectCmp(machine *amp.Machine, f []float64, ca, cb int) int {
	hi := f[ca]
	if f[cb] > hi {
		hi = f[cb]
	}
	if d := f[ca] - f[cb]; d > tieEps*hi || d < -tieEps*hi {
		switch {
		case f[ca] < f[cb]:
			return -1
		case f[ca] > f[cb]:
			return 1
		}
		return 0
	}
	// Tie: faster type first.
	switch fa, fb := machine.Types[ca].FreqGHz, machine.Types[cb].FreqGHz; {
	case fa > fb:
		return -1
	case fa < fb:
		return 1
	}
	return 0
}

// Decision is one phase's fixed placement: the Algorithm 2 choice plus the
// measured per-type instruction rates (IPC × clock) arbitration uses to
// price spilling the task onto another type.
type Decision struct {
	// Choice is the Algorithm 2 core type.
	Choice amp.CoreTypeID
	// Rates is instructions per simulated second on each core type.
	Rates []float64
	// Mem is the phase's shared-cache pressure signature, set by the
	// consumer that fixed the decision. The engine reads it only under
	// contention pricing (Config.Contention non-nil); it is inert — and
	// placements are bit-identical with or without it — otherwise.
	Mem *MemStats
}

// Claim is one task's input to an arbitration pass.
type Claim struct {
	// Dec is the task's current phase decision.
	Dec *Decision
	// Prev is the core type the task was last assigned (hysteresis);
	// meaningful only when HasPrev.
	Prev amp.CoreTypeID
	// HasPrev reports whether Prev carries a previous type-level assignment.
	HasPrev bool
}

// claim is one registered task's arbitration state.
type claim struct {
	dec      Decision
	assigned amp.CoreTypeID
	placed   bool
}

// spill is one unpriced spill candidate: a claim index and the rate it
// loses moving from one type to another.
type spill struct {
	loss float64
	i    int32
}

// Per-pass state of one (over, under) type pair's spill candidates.
const (
	pairUnbuilt = iota // no spill from over to under yet this pass
	pairHeap           // spills[pair] is a min-heap by (loss, index)
	pairScan           // a NaN loss: the pair scans the claims each round
)

// Engine is the shared placement engine: Algorithm 2 decisions, the
// machine's core-type capacity model, and registered-claim capacity
// arbitration. It is not safe for concurrent use; every consumer runs
// inside the kernel's single-threaded event loop.
type Engine struct {
	priced bool // Config.Contention non-nil: contention pricing on
	delta  float64

	// The capacity model: per-type cycle capacity and the quota
	// arithmetic arbitration runs on.
	machine  *amp.Machine
	typeCps  []float64 // summed CyclesPerSec of the cores of each type
	totalCps float64
	fastType amp.CoreTypeID
	slowType amp.CoreTypeID
	numFast  int
	masks    []uint64     // per-type affinity masks (amp.Machine.TypeMask)
	groups   []typeGroups // per-type shared-L2 topology (contention pricing)

	claims map[int]*claim
	order  []*claim // registered claims in registration order (deterministic passes)
	dirty  bool

	// Arbitration buffers, reused by every pass.
	pass     []Claim // rebalance's claims
	assigned []amp.CoreTypeID
	quota    []int
	demand   []int
	spills   [][]spill // per (over, under) pair, indexed over*types+under
	pairs    []uint8   // per pair: pairUnbuilt, pairHeap or pairScan

	tr *trace.Tracer
}

// NewEngine builds an engine for one machine. delta is the run's
// Algorithm 2 threshold; cfg parameterizes arbitration (the zero value is
// unpriced).
func NewEngine(m *amp.Machine, delta float64, cfg Config) *Engine {
	n := len(m.Types)
	e := &Engine{
		priced:  cfg.Contention != nil,
		delta:   delta,
		machine: m,
		typeCps: make([]float64, n),
		groups:  groupsOf(m),
		claims:  map[int]*claim{},
		quota:   make([]int, n),
		demand:  make([]int, n),
		spills:  make([][]spill, n*n),
		pairs:   make([]uint8, n*n),
	}
	for i, t := range m.Types {
		if t.CyclesPerSec > m.Types[e.fastType].CyclesPerSec {
			e.fastType = amp.CoreTypeID(i)
		}
		if t.CyclesPerSec < m.Types[e.slowType].CyclesPerSec {
			e.slowType = amp.CoreTypeID(i)
		}
		e.masks = append(e.masks, m.TypeMask(amp.CoreTypeID(i)))
	}
	for _, core := range m.Cores {
		cps := m.Types[core.Type].CyclesPerSec
		e.typeCps[core.Type] += cps
		e.totalCps += cps
		if core.Type == e.fastType {
			e.numFast++
		}
	}
	return e
}

// Machine returns the machine the engine places on.
func (e *Engine) Machine() *amp.Machine { return e.machine }

// Priced reports whether arbitration prices contention (Config.Contention
// non-nil).
func (e *Engine) Priced() bool { return e.priced }

// TypeMask returns the affinity mask of every core of type t.
func (e *Engine) TypeMask(t amp.CoreTypeID) uint64 { return e.masks[t] }

// TypeOf returns the core type whose mask is exactly mask; false for a
// mask that is no single type's, and for 0 (even where a type has no
// cores).
func (e *Engine) TypeOf(mask uint64) (amp.CoreTypeID, bool) {
	if mask != 0 {
		for i, m := range e.masks {
			if m == mask {
				return amp.CoreTypeID(i), true
			}
		}
	}
	return 0, false
}

// fastShare returns the fast type's fraction of machine cycle capacity.
func (e *Engine) fastShare() float64 {
	if e.totalCps == 0 {
		return 0
	}
	return e.typeCps[e.fastType] / e.totalCps
}

// quotas fills out (one entry per type) with each type's capacity share of
// n tasks, rounded to nearest: the demand level above which arbitration
// treats the type as oversubscribed.
func (e *Engine) quotas(out []int, n int) []int {
	for i, cps := range e.typeCps {
		out[i] = 0
		if e.totalCps != 0 {
			out[i] = int(float64(n)*cps/e.totalCps + 0.5)
		}
	}
	return out
}

// fastQuota returns how many of n utility-ranked tasks belong on the fast
// type: its cycle-capacity share, but never below one task per fast core
// while fast cores are undersubscribed (on an idle machine every task
// belongs on a fast core; pinning the lower ranks to slow cores would only
// idle capacity).
func (e *Engine) fastQuota(n int) int {
	quota := int(float64(n)*e.fastShare() + 0.5)
	if quota < e.numFast {
		quota = min(e.numFast, n)
	}
	return quota
}

// SetTracer attaches a trace sink to the engine. Decisions and spill
// moves are emitted stamped at the tracer's simulated clock (the kernel
// keeps it current); a nil tracer disables emission. The engine never
// reads tracer state, so placements are identical with or without it.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tr = tr }

// Tracer returns the attached trace sink (nil when untraced). The runtimes
// that decide through the engine emit their own events to it, so one
// attachment traces a run's whole placement path.
func (e *Engine) Tracer() *trace.Tracer { return e.tr }

// Decide fixes a phase's placement: Algorithm 2 over the measured IPC
// vector plus the per-type instruction rates arbitration prices spills with.
func (e *Engine) Decide(ipc []float64) Decision {
	rates := make([]float64, len(ipc))
	for i := range ipc {
		rates[i] = ipc[i] * e.machine.Types[i].CyclesPerSec
	}
	dec := Decision{Choice: Select(e.machine, ipc, e.delta), Rates: rates}
	if e.tr != nil {
		e.tr.InstantNow("place", "decide", trace.PidMachine, trace.TidKernel,
			trace.Arg{Key: "ipc", Value: append([]float64(nil), ipc...)},
			trace.Arg{Key: "rates", Value: append([]float64(nil), rates...)},
			trace.Arg{Key: "choice", Value: e.machine.Types[dec.Choice].Name},
			trace.Arg{Key: "delta", Value: e.delta},
			trace.Arg{Key: "claims", Value: len(e.claims)})
	}
	return dec
}

// Enter registers (or refreshes) a task's active decision under id. A
// refreshed decision with an unchanged
// Algorithm 2 choice updates the spill-pricing rates in place without
// forcing a global re-arbitration: window-refreshed estimates drift a
// little every sample, and re-arbitrating on each drift would churn
// assignments machine-wide (the updated rates price the next natural
// arbitration pass instead).
func (e *Engine) Enter(id int, dec Decision) { e.enter(id, dec) }

// enter is Enter, returning the claim.
func (e *Engine) enter(id int, dec Decision) *claim {
	if c, ok := e.claims[id]; ok {
		if c.dec.Choice != dec.Choice {
			e.dirty = true
		}
		c.dec = dec
		return c
	}
	c := &claim{dec: dec}
	e.claims[id] = c
	e.order = append(e.order, c)
	e.dirty = true
	return c
}

// Leave withdraws a task's claim (process exit, phase under probe).
func (e *Engine) Leave(id int) {
	c, ok := e.claims[id]
	if !ok {
		return
	}
	delete(e.claims, id)
	if i := slices.Index(e.order, c); i >= 0 {
		e.order = slices.Delete(e.order, i, i+1)
	}
	e.dirty = true
}

// MaskFor returns the arbitrated type-level affinity mask of a registered
// task (0 when the id holds no claim), re-running arbitration first if
// claims changed.
func (e *Engine) MaskFor(id int) uint64 {
	c, ok := e.claims[id]
	if !ok {
		return 0
	}
	return e.maskOf(c)
}

// maskOf returns a registered claim's arbitrated mask, re-arbitrating
// first if claims changed.
func (e *Engine) maskOf(c *claim) uint64 {
	if e.dirty {
		e.rebalance()
	}
	return e.TypeMask(c.assigned)
}

// Place is the claim step every mark-driven runtime takes: it enters id's
// decision, reads the arbitrated mask, and reports whether arbitration
// holds the task off dec.Choice — a knowing spill, which the cycle ledger
// charges apart from misprediction.
func (e *Engine) Place(id int, dec Decision) (mask uint64, spilled bool) {
	mask = e.maskOf(e.enter(id, dec))
	return mask, mask != e.TypeMask(dec.Choice)
}

// rebalance arbitrates all registered claims in registration order.
func (e *Engine) rebalance() {
	e.dirty = false
	if len(e.order) == 0 {
		return
	}
	claims := e.pass[:0]
	for _, c := range e.order {
		claims = append(claims, Claim{Dec: &c.dec, Prev: c.assigned, HasPrev: c.placed})
	}
	e.pass = claims
	assigned := e.Arbitrate(claims)
	for i, c := range e.order {
		c.assigned = assigned[i]
		c.placed = true
	}
}

// Arbitrate places every claim, honoring measured preferences under the
// capacity constraint. Per-task Algorithm 2 choices alone herd: a workload
// dominated by memory-bound jobs would pile every task onto the slow cores
// while fast cores idle. So preferences are demands, and overflow beyond a
// type's capacity share spills the cheapest tasks — loss is priced from the
// phase's measured per-type instruction rates, and a DRAM-bound task costs
// ~nothing to run on a fast core (fixed wall-clock memory latency), so
// memory phases spill to idle fast cores first. The pass is a pure function
// of its inputs: identical claims always produce identical assignments. The
// returned slice belongs to the engine and holds until its next pass.
func (e *Engine) Arbitrate(claims []Claim) []amp.CoreTypeID {
	nTypes := len(e.machine.Types)
	assigned := slices.Grow(e.assigned[:0], len(claims))[:len(claims)]
	e.assigned = assigned
	for i, c := range claims {
		assigned[i] = c.Dec.Choice
	}
	if nTypes < 2 || len(claims) == 0 {
		return assigned
	}

	quota := e.quotas(e.quota, len(claims))
	demand := e.demand
	clear(demand)
	for i := range claims {
		demand[int(assigned[i])]++
	}
	clear(e.pairs)
	if e.tr != nil {
		e.tr.InstantNow("place", "arbitrate", trace.PidMachine, trace.TidKernel,
			trace.Arg{Key: "claims", Value: len(claims)},
			trace.Arg{Key: "demand", Value: append([]int(nil), demand...)},
			trace.Arg{Key: "quota", Value: append([]int(nil), quota...)},
			trace.Arg{Key: "band", Value: band})
	}

	// Contention pricing: one bandwidth-overdraft factor per pass, computed
	// from the initial (preference) assignment so every candidate move is
	// priced against a consistent machine-wide bandwidth picture. bw stays
	// 1 — and adjustedRate returns raw rates — when pricing is off.
	bw := 1.0
	if e.priced {
		bw = e.bwFactor(claims, demand)
	}

	for round := 0; round < len(claims)*nTypes; round++ {
		// Most oversubscribed type, most undersubscribed type.
		over, under := -1, -1
		for i := 0; i < nTypes; i++ {
			if demand[i] > quota[i]+band && (over == -1 || demand[i]-quota[i] > demand[over]-quota[over]) {
				over = i
			}
			if demand[i] < quota[i] && (under == -1 || quota[i]-demand[i] > quota[under]-demand[under]) {
				under = i
			}
		}
		if over == -1 || under == -1 {
			break
		}
		// Spill the claim whose measured rate loses least on the target
		// type, the first such claim on a tie; prefer claims already
		// assigned there (no new switch).
		var best int
		var bestLoss float64
		if pair := over*nTypes + under; e.priced || e.pairs[pair] == pairScan {
			best, bestLoss = e.scanSpill(claims, assigned, demand, over, under, bw)
		} else {
			best, bestLoss = e.popSpill(claims, assigned, over, under, pair)
		}
		if best == -1 {
			break
		}
		if e.tr != nil {
			e.tr.InstantNow("place", "spill", trace.PidMachine, trace.TidKernel,
				trace.Arg{Key: "claim", Value: best},
				trace.Arg{Key: "from", Value: e.machine.Types[over].Name},
				trace.Arg{Key: "to", Value: e.machine.Types[under].Name},
				trace.Arg{Key: "loss", Value: bestLoss})
		}
		assigned[best] = amp.CoreTypeID(under)
		demand[over]--
		demand[under]++
	}
	if e.priced {
		e.relieve(claims, assigned, demand, quota, bw)
	}
	return assigned
}

// spillLoss is the rate an unpriced claim loses moving from type over to
// type under, less the hysteresis discount when under is where it was.
func spillLoss(c *Claim, over, under int) float64 {
	loss := c.Dec.Rates[over] - c.Dec.Rates[under]
	if c.HasPrev && int(c.Prev) == under {
		loss -= c.Dec.Rates[over] * hysteresis
	}
	return loss
}

// scanSpill picks the spill from over to under by scanning every claim on
// over. Under contention pricing the loss compares *adjusted* rates at the
// projected occupancies — source crowded as-is, target with the spilled
// task added — so a memory phase leaving a thrashing group can price as a
// gain, not a loss. Those losses move with demand, so the priced pass
// always scans.
func (e *Engine) scanSpill(claims []Claim, assigned []amp.CoreTypeID, demand []int, over, under int, bw float64) (int, float64) {
	best, bestLoss := -1, 0.0
	for i := range claims {
		if int(assigned[i]) != over {
			continue
		}
		var loss float64
		if e.priced {
			loss = e.adjustedRate(claims[i].Dec, over, demand[over], bw) -
				e.adjustedRate(claims[i].Dec, under, demand[under]+1, bw)
			if claims[i].HasPrev && int(claims[i].Prev) == under {
				loss -= claims[i].Dec.Rates[over] * hysteresis
			}
		} else {
			loss = spillLoss(&claims[i], over, under)
		}
		if best == -1 || loss < bestLoss {
			best, bestLoss = i, loss
		}
	}
	return best, bestLoss
}

// popSpill picks the unpriced spill from over to under: the claim on over
// with the least (loss, index), exactly what scanSpill would pick. An
// unpriced loss depends only on the claim and the pair, never on demand,
// so the pair's candidates are heaped once per pass, on its first spill.
// Types only lose claims while over quota and only gain them while under
// it, so a claim that leaves over never returns within the pass: a popped
// claim no longer on over is skipped, and the rest stay in order. A NaN
// loss has no place in that order (the scan keeps it only when it comes
// first), so a pair holding one scans instead.
func (e *Engine) popSpill(claims []Claim, assigned []amp.CoreTypeID, over, under, pair int) (int, float64) {
	h := e.spills[pair]
	if e.pairs[pair] == pairUnbuilt {
		h = h[:0]
		for i := range claims {
			if int(assigned[i]) != over {
				continue
			}
			loss := spillLoss(&claims[i], over, under)
			if loss != loss {
				e.pairs[pair] = pairScan
				return e.scanSpill(claims, assigned, nil, over, under, 1)
			}
			h = append(h, spill{loss: loss, i: int32(i)})
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		e.pairs[pair] = pairHeap
	}
	for len(h) > 0 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		siftDown(h, 0)
		if int(assigned[top.i]) == over {
			e.spills[pair] = h
			return int(top.i), top.loss
		}
	}
	e.spills[pair] = h
	return -1, 0
}

// spillBefore orders spill candidates by (loss, index).
func spillBefore(a, b spill) bool {
	return a.loss < b.loss || (a.loss == b.loss && a.i < b.i)
}

// siftDown restores the min-heap property below h[i].
func siftDown(h []spill, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && spillBefore(h[r], h[c]) {
			c = r
		}
		if !spillBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// AssignRanked places n utility-ranked tasks (index 0 = highest fast-core
// marginal utility) across the fast and slow types: the fast type's
// capacity share goes to the top of the ranking, the rest to the slowest
// type. A band-position hysteresis window keeps tasks at the quota boundary
// from flapping between types every pass; inside the window a task with a
// previous fast/slow assignment keeps its side, and an unplaced task takes
// the raw quota cut — so the quota fills from a cold start even when it is
// no larger than the band. Claims carry only Prev/HasPrev; Dec is unused.
// On a machine whose fast and slow types coincide there is nothing to
// place, and AssignRanked returns nil.
func (e *Engine) AssignRanked(claims []Claim) []amp.CoreTypeID {
	fast, slow := e.fastType, e.slowType
	if fast == slow {
		return nil
	}
	out := make([]amp.CoreTypeID, len(claims))
	quota := e.fastQuota(len(claims))
	for i := range claims {
		switch {
		case i < quota-band:
			out[i] = fast
		case i >= quota+band:
			out[i] = slow
		case claims[i].HasPrev && (claims[i].Prev == fast || claims[i].Prev == slow):
			out[i] = claims[i].Prev
		case i < quota:
			out[i] = fast
		default:
			out[i] = slow
		}
	}
	return out
}
