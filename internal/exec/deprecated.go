package exec

// SegmentMemo is an empty stand-in for the deleted segment memo: every run
// steps natively from its image's cost tables. It and the names below keep
// code that still spells the memo compiling, and do nothing.
//
// Deprecated: no-op, kept until bench/ drops it.
type SegmentMemo struct{}

// DefaultMemoChunks was the memo's default chunk bound.
//
// Deprecated: no-op, kept until bench/ drops it.
const DefaultMemoChunks = 1 << 18

// NewSegmentMemo returns an empty SegmentMemo; maxChunks is ignored.
//
// Deprecated: no-op, kept until bench/ drops it.
func NewSegmentMemo(maxChunks int) *SegmentMemo { return &SegmentMemo{} }

// LaneFor returns p.Lane(par, shareKB, fastPs).
//
// Deprecated: no-op, kept until bench/ drops it.
func (m *SegmentMemo) LaneFor(p *Process, par *CoreParams, shareKB float64, fastPs int64) *Lane {
	return p.Lane(par, shareKB, fastPs)
}

// MemoStats is the memo's counter snapshot, always zero.
//
// Deprecated: no-op, kept until bench/ drops it.
type MemoStats struct {
	Chunks                                     int
	Hits, Misses, ReplayedSteps, RecordedSteps uint64
}

// HitRate returns 0: nothing is ever looked up.
//
// Deprecated: no-op, kept until bench/ drops it.
func (MemoStats) HitRate() float64 { return 0 }

// Stats returns the zero MemoStats, also for a nil memo.
//
// Deprecated: no-op, kept until bench/ drops it.
func (m *SegmentMemo) Stats() MemoStats { return MemoStats{} }

// EnableMemo does nothing.
//
// Deprecated: no-op, kept until bench/ drops it.
func (p *Process) EnableMemo() {}

// EndSlice does nothing.
//
// Deprecated: no-op, kept until bench/ drops it.
func (p *Process) EndSlice() {}

// Advance replays nothing and returns 0: the caller takes a native step.
//
// Deprecated: no-op, kept until bench/ drops it.
func (p *Process) Advance(lane *Lane, budget int64) int64 { return 0 }

// StepLane is Step on the lane's core parameters and cache share.
//
// Deprecated: no-op, kept until bench/ drops it.
func (p *Process) StepLane(lane *Lane, coreID int) StepResult {
	return p.Step(&lane.par, coreID, lane.shareKB)
}
