package place

import (
	"math"
	"slices"

	"phasetune/internal/amp"
)

// Table is the per-phase evidence table the mark-driven runtimes
// accumulate into: running per-(phase, core-type) IPC means plus the fixed
// Decision once enough evidence exists. The static tuner and the hybrid
// both key it by the mark-declared phase.Type, probe with LeastMeasured,
// and decide once Ready; the online detector's classifier keeps its own
// incremental means instead.
type Table struct {
	numTypes int
	rows     map[int]*tableRow
}

// tableRow is one phase's accumulation state.
type tableRow struct {
	sum []float64
	n   []int
	dec *Decision
	// decMeans snapshots the per-type IPC means the decision was fixed
	// from, so Drift can price how far later windows have moved them.
	decMeans []float64
}

// NewTable builds a table for a machine with numTypes core types.
func NewTable(numTypes int) *Table {
	return &Table{numTypes: numTypes, rows: map[int]*tableRow{}}
}

// row returns (allocating) a phase's row.
func (t *Table) row(phase int) *tableRow {
	r, ok := t.rows[phase]
	if !ok {
		r = &tableRow{sum: make([]float64, t.numTypes), n: make([]int, t.numTypes)}
		t.rows[phase] = r
	}
	return r
}

// Add records one IPC sample for a phase on a core type.
func (t *Table) Add(phase int, ct amp.CoreTypeID, ipc float64) {
	r := t.row(phase)
	r.sum[ct] += ipc
	r.n[ct]++
}

// Count returns a phase's sample count on a core type.
func (t *Table) Count(phase int, ct amp.CoreTypeID) int {
	r, ok := t.rows[phase]
	if !ok {
		return 0
	}
	return r.n[ct]
}

// Ready reports whether every core type has a sample for a phase, which is
// all any runtime waits for before deciding.
func (t *Table) Ready(phase int) bool {
	r, ok := t.rows[phase]
	return ok && !slices.Contains(r.n, 0)
}

// Means returns the per-type IPC means of a phase (0 for unsampled types).
func (t *Table) Means(phase int) []float64 {
	out := make([]float64, t.numTypes)
	r, ok := t.rows[phase]
	if !ok {
		return out
	}
	for i := range out {
		if r.n[i] > 0 {
			out[i] = r.sum[i] / float64(r.n[i])
		}
	}
	return out
}

// LeastMeasured returns the core type with the fewest samples for a phase,
// breaking ties round-robin from a caller-supplied offset so concurrent
// probers spread across core types instead of all probing type 0 first.
func (t *Table) LeastMeasured(phase, offset int) amp.CoreTypeID {
	start := offset % t.numTypes
	if start < 0 {
		start = 0
	}
	r := t.row(phase)
	best, bestN := start, int(^uint(0)>>1)
	for i := 0; i < t.numTypes; i++ {
		ct := (start + i) % t.numTypes
		if r.n[ct] < bestN {
			best, bestN = ct, r.n[ct]
		}
	}
	return amp.CoreTypeID(best)
}

// SetDecision fixes (or refreshes) a phase's decision, snapshotting the
// current means as the drift baseline.
func (t *Table) SetDecision(phase int, dec Decision) {
	r := t.row(phase)
	r.dec = &dec
	r.decMeans = t.Means(phase)
}

// Drift returns the relative movement of a phase's per-type IPC means
// since its decision was last fixed: the largest per-type |now-then| over
// the larger of the two values. A drift-damped consumer re-enters Decide
// only when this exceeds its ε — the hybrid's re-decision damping knob.
// Undecided phases report +Inf (any evidence warrants the first decision).
func (t *Table) Drift(phase int) float64 {
	r, ok := t.rows[phase]
	if !ok || r.dec == nil || r.decMeans == nil {
		return math.Inf(1)
	}
	now := t.Means(phase)
	worst := 0.0
	for i := range now {
		ref := now[i]
		if r.decMeans[i] > ref {
			ref = r.decMeans[i]
		}
		if ref <= 0 {
			continue
		}
		d := (now[i] - r.decMeans[i]) / ref
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// DecisionOf returns a phase's fixed decision, or nil while undecided.
func (t *Table) DecisionOf(phase int) *Decision {
	r, ok := t.rows[phase]
	if !ok {
		return nil
	}
	return r.dec
}
