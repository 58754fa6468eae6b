package sim

import (
	"fmt"
	"hash/fnv"
	"sync"

	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/phase"
	"phasetune/internal/prog"
	"phasetune/internal/rng"
	"phasetune/internal/summarize"
	"phasetune/internal/transition"
)

// Analysis is the technique-independent front half of the static pipeline:
// CFG construction, call-graph construction, and k-means block typing (with
// optional error injection). One Analysis can be instrumented under many
// technique variants without re-running any of these stages.
type Analysis struct {
	// Prog is the analyzed program.
	Prog *prog.Program
	// Graphs are the per-procedure CFGs.
	Graphs []*cfg.Graph
	// CallGraph is the inter-procedural call graph.
	CallGraph *cfg.CallGraph
	// Typing is the block typing (after any error injection).
	Typing *phase.Typing
	// Opts echoes the typing options used.
	Opts phase.Options
}

// Analyze runs the front half of the static pipeline. errFrac > 0 injects
// clustering error (the Fig. 7 methodology) using errSeed.
func Analyze(p *prog.Program, opts phase.Options, errFrac float64, errSeed uint64) (*Analysis, error) {
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, err
	}
	cg := cfg.BuildCallGraph(p, graphs)
	typing, err := phase.ClusterBlocks(p, graphs, opts)
	if err != nil {
		return nil, err
	}
	if errFrac > 0 {
		typing = typing.InjectError(errFrac, rng.New(errSeed))
	}
	return &Analysis{Prog: p, Graphs: graphs, CallGraph: cg, Typing: typing, Opts: opts}, nil
}

// Artifact is a reusable product of the static pipeline: an executable
// instrumented image plus its statistics. Artifacts are immutable and safe
// to share across concurrent runs.
type Artifact struct {
	// Image is the executable image.
	Image *exec.Image
	// Stats summarizes the instrumentation.
	Stats ImageStats
}

// Instrument runs the back half of the static pipeline on the analysis:
// loop summarization (for the Loop technique), transition planning, binary
// rewriting, and image construction.
func (a *Analysis) Instrument(params transition.Params, cm exec.CostModel) (*Artifact, error) {
	var sum *summarize.Summary
	if params.Technique == transition.Loop {
		sum = summarize.SummarizeLoops(a.Prog, a.Graphs, a.CallGraph, a.Typing, summarize.DefaultWeights())
	}
	plan, err := transition.ComputePlan(a.Prog, a.Graphs, a.CallGraph, a.Typing, sum, params)
	if err != nil {
		return nil, err
	}
	bin, err := instrument.ApplyWithGraphs(a.Prog, plan, a.Graphs)
	if err != nil {
		return nil, err
	}
	img, err := exec.NewImage(bin.Prog, bin, cm)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Image: img,
		Stats: ImageStats{
			Marks:         bin.NumMarks(),
			SpaceOverhead: bin.SpaceOverhead(),
			OrigBytes:     bin.OrigBytes,
			NewBytes:      bin.NewBytes,
			EffectiveK:    a.Typing.K,
		},
	}, nil
}

// ImageSpec identifies one image preparation, independent of which Program
// pointer carries the content: two specs with equal fields and equal program
// content always yield bit-identical images.
type ImageSpec struct {
	// Baseline selects an uninstrumented image; Params, Typing, ErrFrac and
	// ErrSeed are ignored when set.
	Baseline bool
	// Params is the marking technique.
	Params transition.Params
	// Typing configures static block typing.
	Typing phase.Options
	// ErrFrac injects clustering error; ErrSeed drives the injection.
	ErrFrac float64
	ErrSeed uint64
}

// normalize zeroes fields the pipeline ignores so they cannot fragment the
// cache: everything under Baseline, and the error seed when no error is
// injected.
func (s ImageSpec) normalize() ImageSpec {
	if s.Baseline {
		return ImageSpec{Baseline: true}
	}
	if s.ErrFrac == 0 {
		s.ErrSeed = 0
	}
	return s
}

// artifactKey is the content key of one cache entry: the program content
// hash plus every input the static pipeline consumes.
type artifactKey struct {
	progHash uint64
	spec     ImageSpec
	cost     exec.CostModel
}

// cacheEntry is a singleflight slot: the first requester computes, every
// concurrent requester for the same key waits on the same entry.
type cacheEntry struct {
	once sync.Once
	art  *Artifact
	err  error
}

// ImageCache is a content-keyed cache of prepared images. It is safe for
// concurrent use; concurrent requests for the same key run the static
// pipeline exactly once (the others block until it lands). An experiment
// campaign sharing one cache therefore instruments each distinct
// (program, technique, typing, error-injection) combination once, no matter
// how many runs, seeds, or goroutines consume it.
type ImageCache struct {
	mu      sync.Mutex
	entries map[artifactKey]*cacheEntry
	hashes  map[*prog.Program]uint64

	hits, misses uint64
}

// NewImageCache returns an empty cache.
func NewImageCache() *ImageCache {
	return &ImageCache{
		entries: map[artifactKey]*cacheEntry{},
		hashes:  map[*prog.Program]uint64{},
	}
}

// progHash returns the FNV-64a hash of the program's canonical encoding,
// memoized per Program pointer (programs are immutable once built).
func (c *ImageCache) progHash(p *prog.Program) (uint64, error) {
	c.mu.Lock()
	if h, ok := c.hashes[p]; ok {
		c.mu.Unlock()
		return h, nil
	}
	c.mu.Unlock()
	h := fnv.New64a()
	if err := prog.Encode(h, p); err != nil {
		return 0, fmt.Errorf("sim: hashing %s: %w", p.Name, err)
	}
	sum := h.Sum64()
	c.mu.Lock()
	c.hashes[p] = sum
	c.mu.Unlock()
	return sum, nil
}

// Get returns the artifact for (program, spec, cost model), preparing it on
// first request and serving every later request from the cache.
func (c *ImageCache) Get(p *prog.Program, spec ImageSpec, cm exec.CostModel) (*Artifact, error) {
	art, _, err := c.get(p, spec, cm)
	return art, err
}

// get is Get plus a hit indicator: hit is true when this request did not
// run the static pipeline (it found, or waited on, an existing entry).
func (c *ImageCache) get(p *prog.Program, spec ImageSpec, cm exec.CostModel) (art *Artifact, hit bool, err error) {
	spec = spec.normalize()
	hash, err := c.progHash(p)
	if err != nil {
		return nil, false, err
	}
	key := artifactKey{progHash: hash, spec: spec, cost: cm}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.art, e.err = prepareArtifact(p, spec, cm)
	})
	return e.art, ok, e.err
}

// Stats reports cache effectiveness counters.
func (c *ImageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// CacheStats is a snapshot of ImageCache counters. Misses counts static
// pipeline executions; Hits counts requests served without one.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// prepare resolves one artifact through the cache when one is supplied,
// directly otherwise. cached reports whether a cache served the request
// without running the static pipeline.
func prepare(c *ImageCache, p *prog.Program, spec ImageSpec, cm exec.CostModel) (art *Artifact, cached bool, err error) {
	if c == nil {
		art, err = prepareArtifact(p, spec, cm)
		return art, false, err
	}
	return c.get(p, spec, cm)
}

// prepareArtifact builds one artifact without caching.
func prepareArtifact(p *prog.Program, spec ImageSpec, cm exec.CostModel) (*Artifact, error) {
	if spec.Baseline {
		img, err := exec.NewImage(p, nil, cm)
		if err != nil {
			return nil, err
		}
		return &Artifact{Image: img}, nil
	}
	a, err := Analyze(p, spec.Typing, spec.ErrFrac, spec.ErrSeed)
	if err != nil {
		return nil, err
	}
	return a.Instrument(spec.Params, cm)
}
