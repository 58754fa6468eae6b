// Package perfcnt simulates hardware performance counters and the PAPI-like
// interface the paper's dynamic analysis reads IPC through (§III).
//
// Two pieces mirror the real stack:
//
//   - Counters: per-process virtualized instruction/cycle counts, advanced
//     by the interpreter while the process runs (PAPI's per-thread
//     virtualized counting);
//   - Hardware: the finite pool of counter event sets. The paper notes "to
//     deal with limitations that may be imposed by the number of counters or
//     APIs, we require programs to wait for access to the counters"; here a
//     monitoring request that finds no free slot is deferred (the caller
//     retries at the next phase mark) and the contention is counted, so the
//     "processes seldom have to wait" claim is checkable.
package perfcnt

// Counters is a process's virtualized counter state: instructions retired,
// unhalted cycles, and memory references, accumulated only while the process
// runs. MemRefs is the load/store event the online phase detector reads for
// its instruction-mix signature (real PMUs expose it as MEM_INST_RETIRED).
type Counters struct {
	Instructions uint64
	Cycles       uint64
	MemRefs      uint64
}

// Add accumulates a block execution.
func (c *Counters) Add(instrs, cycles uint64) {
	c.Instructions += instrs
	c.Cycles += cycles
}

// AddMem accumulates retired memory references.
func (c *Counters) AddMem(refs uint64) { c.MemRefs += refs }

// IPC returns instructions per cycle for a counter delta; zero cycles yield
// zero (the paper's metric: IPC = instructions retired / cycles, §III).
func IPC(instrs, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instrs) / float64(cycles)
}

// MinSampleInstrs is the floor below which a measurement is too short to
// estimate IPC: the static tuner discards shorter representative-section
// samples and the hybrid shorter boundary-closed windows.
const MinSampleInstrs = 200

// Hardware is the bounded pool of counter event sets.
type Hardware struct {
	slots  int
	inUse  int
	defers uint64
}

// NewHardware returns a pool with the given number of concurrently usable
// event sets. Non-positive slots mean unlimited.
func NewHardware(slots int) *Hardware {
	return &Hardware{slots: slots}
}

// TryAcquire claims an event set, reporting success. On failure the
// contention counter is incremented.
func (h *Hardware) TryAcquire() bool {
	if h.slots > 0 && h.inUse >= h.slots {
		h.defers++
		return false
	}
	h.inUse++
	return true
}

// Release returns an event set to the pool. It panics on over-release,
// which is always a simulator accounting bug.
func (h *Hardware) Release() {
	if h.inUse <= 0 {
		panic("perfcnt: release without acquire")
	}
	h.inUse--
}

// Defers returns how many monitoring requests found no free event set.
func (h *Hardware) Defers() uint64 { return h.defers }

// InUse returns the number of currently held event sets.
func (h *Hardware) InUse() int { return h.inUse }

// EventSet is one active measurement: a snapshot of a process's counters.
type EventSet struct {
	startInstr, startCycles, startMem uint64
}

// Start snapshots the counters, beginning a measurement.
func Start(c *Counters) EventSet {
	return EventSet{startInstr: c.Instructions, startCycles: c.Cycles, startMem: c.MemRefs}
}

// Stop returns the instruction and cycle deltas since Start.
func (es EventSet) Stop(c *Counters) (instrs, cycles uint64) {
	return c.Instructions - es.startInstr, c.Cycles - es.startCycles
}

// StopFull returns the instruction, cycle, and memory-reference deltas since
// Start (the online detector's window read; Stop keeps the two-counter shape
// the static tuner uses).
func (es EventSet) StopFull(c *Counters) (instrs, cycles, memRefs uint64) {
	return c.Instructions - es.startInstr, c.Cycles - es.startCycles, c.MemRefs - es.startMem
}
