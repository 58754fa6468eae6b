package phasetune

import (
	"phasetune/internal/exec"
	"phasetune/internal/sim"
)

// Staged static pipeline.
//
// The one-shot Instrument helper re-runs every stage per call. The staged
// API splits it into the technique-independent front half (Analyze: CFGs,
// call graph, k-means typing) and the technique-dependent back half
// (Analysis.Instrument: summarization, transition planning, rewriting),
// and makes the products cacheable: an ImageCache keyed on program content
// plus every pipeline input serves repeated preparations without recompute.
type (
	// Analysis is the reusable front half of the static pipeline; one
	// Analysis can be instrumented under many technique variants.
	Analysis = sim.Analysis
	// Artifact is a prepared executable image plus its statistics.
	// Artifacts are immutable and safe to share across concurrent runs.
	Artifact = sim.Artifact
	// ImageCache is a content-keyed, concurrency-safe cache of Artifacts.
	ImageCache = sim.ImageCache
	// ImageSpec identifies one image preparation in the cache.
	ImageSpec = sim.ImageSpec
	// CacheStats reports cache effectiveness (Misses counts static
	// pipeline executions, Hits requests served without one).
	CacheStats = sim.CacheStats
	// SegmentMemo is a content-keyed, concurrency-safe cache of segment
	// outcomes: runs of interpreter steps whose deltas replay in O(1).
	// Memoization is invisible — a memoized run's Result is byte-identical
	// to an unmemoized one (see DESIGN.md §13).
	SegmentMemo = exec.SegmentMemo
	// MemoStats reports segment-memo effectiveness (lookup hits/misses and
	// interpreter steps replayed from cache versus stepped natively while
	// recording).
	MemoStats = exec.MemoStats
)

// Analyze runs the technique-independent front half of the static pipeline:
// CFG construction, call-graph construction, and k-means block typing.
// Instrument the result under one or more techniques with
// Analysis.Instrument.
func Analyze(p *Program, topts TypingOptions) (*Analysis, error) {
	return sim.Analyze(p, topts.Normalized(), 0, 1)
}

// NewImageCache returns an empty artifact cache. Pass it to sessions with
// WithCache to share prepared images across an experiment campaign.
func NewImageCache() *ImageCache { return sim.NewImageCache() }

// NewSegmentMemo returns an empty segment memo bounded to maxChunks cached
// chunks (<=0 uses DefaultMemoChunks). Pass it to sessions with
// WithSegmentMemo to share memoized segment outcomes across a campaign.
func NewSegmentMemo(maxChunks int) *SegmentMemo { return exec.NewSegmentMemo(maxChunks) }

// DefaultMemoChunks is the default segment-memo size bound.
const DefaultMemoChunks = exec.DefaultMemoChunks
