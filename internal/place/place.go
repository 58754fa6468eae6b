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
	"sort"

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
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		hi := f[ca]
		if f[cb] > hi {
			hi = f[cb]
		}
		if d := f[ca] - f[cb]; d > tieEps*hi || d < -tieEps*hi {
			return f[ca] < f[cb]
		}
		// Tie: faster type first.
		return machine.Types[ca].FreqGHz > machine.Types[cb].FreqGHz
	})
	d := order[0]
	for i := 0; i+1 < n; i++ {
		theta := f[order[i+1]] - f[order[i]]
		if theta > delta && f[order[i+1]] > f[d] {
			d = order[i+1]
		}
	}
	return amp.CoreTypeID(d)
}

// Capacity is the core-type capacity model of one machine: per-type cycle
// capacity, capacity shares, and the quota arithmetic arbitration runs on.
type Capacity struct {
	machine  *amp.Machine
	typeCps  []float64 // summed CyclesPerSec of the cores of each type
	totalCps float64
	fastType amp.CoreTypeID
	slowType amp.CoreTypeID
	numFast  int
	groups   []typeGroups // per-type shared-L2 topology (contention pricing)
}

// NewCapacity builds the capacity model for a machine.
func NewCapacity(m *amp.Machine) *Capacity {
	c := &Capacity{machine: m, typeCps: make([]float64, len(m.Types)), groups: groupsOf(m)}
	for i, t := range m.Types {
		if t.CyclesPerSec > m.Types[c.fastType].CyclesPerSec {
			c.fastType = amp.CoreTypeID(i)
		}
		if t.CyclesPerSec < m.Types[c.slowType].CyclesPerSec {
			c.slowType = amp.CoreTypeID(i)
		}
	}
	for _, core := range m.Cores {
		cps := m.Types[core.Type].CyclesPerSec
		c.typeCps[core.Type] += cps
		c.totalCps += cps
		if core.Type == c.fastType {
			c.numFast++
		}
	}
	return c
}

// Machine returns the described machine.
func (c *Capacity) Machine() *amp.Machine { return c.machine }

// NumTypes returns the core-type count.
func (c *Capacity) NumTypes() int { return len(c.typeCps) }

// FastType returns the highest-clocked type; SlowType the lowest.
func (c *Capacity) FastType() amp.CoreTypeID { return c.fastType }

// SlowType returns the lowest-clocked core type.
func (c *Capacity) SlowType() amp.CoreTypeID { return c.slowType }

// FastShare returns the fast type's fraction of machine cycle capacity.
func (c *Capacity) FastShare() float64 {
	if c.totalCps == 0 {
		return 0
	}
	return c.typeCps[c.fastType] / c.totalCps
}

// Quotas returns each type's capacity share of n tasks, rounded to nearest:
// the demand level above which arbitration treats the type as oversubscribed.
func (c *Capacity) Quotas(n int) []int {
	out := make([]int, len(c.typeCps))
	if c.totalCps == 0 {
		return out
	}
	for i, cps := range c.typeCps {
		out[i] = int(float64(n)*cps/c.totalCps + 0.5)
	}
	return out
}

// FastQuota returns how many of n utility-ranked tasks belong on the fast
// type: its cycle-capacity share, but never below one task per fast core
// while fast cores are undersubscribed (on an idle machine every task
// belongs on a fast core; pinning the lower ranks to slow cores would only
// idle capacity).
func (c *Capacity) FastQuota(n int) int {
	quota := int(float64(n)*c.FastShare() + 0.5)
	if quota < c.numFast {
		quota = c.numFast
		if quota > n {
			quota = n
		}
	}
	return quota
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

// Engine is the shared placement engine: Algorithm 2 decisions plus
// registered-claim capacity arbitration. It is not safe for concurrent use;
// every consumer runs inside the kernel's single-threaded event loop.
type Engine struct {
	capacity *Capacity
	priced   bool // Config.Contention non-nil: contention pricing on
	delta    float64

	claims map[int]*claim
	order  []int // claim ids in registration order (deterministic passes)
	dirty  bool

	tr *trace.Tracer
}

// NewEngine builds an engine for one machine. delta is the run's
// Algorithm 2 threshold; cfg parameterizes arbitration (the zero value is
// unpriced).
func NewEngine(m *amp.Machine, delta float64, cfg Config) *Engine {
	return &Engine{
		capacity: NewCapacity(m),
		priced:   cfg.Contention != nil,
		delta:    delta,
		claims:   map[int]*claim{},
	}
}

// Capacity returns the engine's capacity model.
func (e *Engine) Capacity() *Capacity { return e.capacity }

// SetTracer attaches a trace sink to the engine. Decisions and spill
// moves are emitted stamped at the tracer's simulated clock (the kernel
// keeps it current); a nil tracer disables emission. The engine never
// reads tracer state, so placements are identical with or without it.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tr = tr }

// Decide fixes a phase's placement: Algorithm 2 over the measured IPC
// vector plus the per-type instruction rates arbitration prices spills with.
func (e *Engine) Decide(ipc []float64) Decision {
	rates := make([]float64, len(ipc))
	for i := range ipc {
		rates[i] = ipc[i] * e.capacity.machine.Types[i].CyclesPerSec
	}
	dec := Decision{Choice: Select(e.capacity.machine, ipc, e.delta), Rates: rates}
	if e.tr != nil {
		e.tr.InstantNow("place", "decide", trace.PidMachine, trace.TidKernel,
			trace.Arg{Key: "ipc", Value: append([]float64(nil), ipc...)},
			trace.Arg{Key: "rates", Value: append([]float64(nil), rates...)},
			trace.Arg{Key: "choice", Value: e.capacity.machine.Types[dec.Choice].Name},
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
func (e *Engine) Enter(id int, dec Decision) {
	if c, ok := e.claims[id]; ok {
		if c.dec.Choice != dec.Choice {
			e.dirty = true
		}
		c.dec = dec
		return
	}
	e.claims[id] = &claim{dec: dec}
	e.order = append(e.order, id)
	e.dirty = true
}

// Leave withdraws a task's claim (process exit, phase under probe).
func (e *Engine) Leave(id int) {
	if _, ok := e.claims[id]; !ok {
		return
	}
	delete(e.claims, id)
	for i, oid := range e.order {
		if oid == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
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
	if e.dirty {
		e.rebalance()
	}
	return e.capacity.machine.TypeMask(c.assigned)
}

// Place is the claim step every mark-driven runtime takes: it enters id's
// decision, reads the arbitrated mask, and reports whether arbitration
// holds the task off dec.Choice — a knowing spill, which the cycle ledger
// charges apart from misprediction.
func (e *Engine) Place(id int, dec Decision) (mask uint64, spilled bool) {
	e.Enter(id, dec)
	mask = e.MaskFor(id)
	return mask, mask != e.capacity.machine.TypeMask(dec.Choice)
}

// rebalance arbitrates all registered claims in registration order.
func (e *Engine) rebalance() {
	e.dirty = false
	if len(e.order) == 0 {
		return
	}
	claims := make([]Claim, len(e.order))
	for i, id := range e.order {
		c := e.claims[id]
		claims[i] = Claim{Dec: &c.dec, Prev: c.assigned, HasPrev: c.placed}
	}
	assigned := e.Arbitrate(claims)
	for i, id := range e.order {
		e.claims[id].assigned = assigned[i]
		e.claims[id].placed = true
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
// of its inputs: identical claims always produce identical assignments.
func (e *Engine) Arbitrate(claims []Claim) []amp.CoreTypeID {
	nTypes := e.capacity.NumTypes()
	assigned := make([]amp.CoreTypeID, len(claims))
	for i, c := range claims {
		assigned[i] = c.Dec.Choice
	}
	if nTypes < 2 || len(claims) == 0 {
		return assigned
	}

	quota := e.capacity.Quotas(len(claims))
	demand := make([]int, nTypes)
	for i := range claims {
		demand[int(assigned[i])]++
	}
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
		// type; prefer claims already assigned there (no new switch).
		// Under contention pricing the loss compares *adjusted* rates at
		// the projected occupancies — source crowded as-is, target with
		// the spilled task added — so a memory phase leaving a thrashing
		// group can price as a gain, not a loss.
		best, bestLoss := -1, 0.0
		for i := range claims {
			if int(assigned[i]) != over {
				continue
			}
			var loss float64
			if e.priced {
				loss = e.adjustedRate(claims[i].Dec, over, demand[over], bw) -
					e.adjustedRate(claims[i].Dec, under, demand[under]+1, bw)
			} else {
				loss = claims[i].Dec.Rates[over] - claims[i].Dec.Rates[under]
			}
			if claims[i].HasPrev && int(claims[i].Prev) == under {
				loss -= claims[i].Dec.Rates[over] * hysteresis
			}
			if best == -1 || loss < bestLoss {
				best, bestLoss = i, loss
			}
		}
		if best == -1 {
			break
		}
		if e.tr != nil {
			e.tr.InstantNow("place", "spill", trace.PidMachine, trace.TidKernel,
				trace.Arg{Key: "claim", Value: best},
				trace.Arg{Key: "from", Value: e.capacity.machine.Types[over].Name},
				trace.Arg{Key: "to", Value: e.capacity.machine.Types[under].Name},
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

// AssignRanked places n utility-ranked tasks (index 0 = highest fast-core
// marginal utility) across the fast and slow types: the fast type's
// capacity share goes to the top of the ranking, the rest to the slowest
// type. A band-position hysteresis window keeps tasks at the quota boundary
// from flapping between types every pass; inside the window a task with a
// previous fast/slow assignment keeps its side, and an unplaced task takes
// the raw quota cut — so the quota fills from a cold start even when it is
// no larger than the band. Claims carry only Prev/HasPrev; Dec is unused.
func (e *Engine) AssignRanked(claims []Claim) []amp.CoreTypeID {
	c := e.capacity
	out := make([]amp.CoreTypeID, len(claims))
	quota := c.FastQuota(len(claims))
	for i := range claims {
		switch {
		case i < quota-band:
			out[i] = c.fastType
		case i >= quota+band:
			out[i] = c.slowType
		case claims[i].HasPrev && (claims[i].Prev == c.fastType || claims[i].Prev == c.slowType):
			out[i] = claims[i].Prev
		case i < quota:
			out[i] = c.fastType
		default:
			out[i] = c.slowType
		}
	}
	return out
}
