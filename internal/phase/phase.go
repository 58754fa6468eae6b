// Package phase assigns phase types to basic blocks.
//
// A phase type (the paper's π ∈ Π) is a label suggesting that two sections
// of code are likely to exhibit similar runtime characteristics. The paper's
// proof-of-concept static typing (§II-A3) places each block in a
// two-dimensional space — a combination of instruction types on one axis and
// a rough estimate of cache behavior from reuse distances on the other — and
// groups blocks with k-means. This package implements that typing, plus:
//
//   - an "oracle" typing built from observed per-core-type IPC profiles with
//     an IPC threshold, mirroring the paper's evaluation setup ("to determine
//     basic block types for our static analysis with little to no error, we
//     use an execution profile from each core", §IV-A1);
//   - controlled clustering-error injection, used by the Fig. 7 experiment
//     ("a percentage of blocks were randomly selected and placed into the
//     opposite cluster").
package phase

import (
	"fmt"

	"phasetune/internal/cfg"
	"phasetune/internal/cluster"
	"phasetune/internal/prog"
	"phasetune/internal/reuse"
	"phasetune/internal/rng"
)

// Type is a phase type. Valid types are >= 0; Untyped marks blocks excluded
// from typing (too small, or unknown targets per §II-A1a).
type Type int

// Untyped marks a block with no phase type.
const Untyped Type = -1

// BlockKey identifies a basic block program-wide.
type BlockKey struct {
	// Proc is the procedure index, Block the block ID within its CFG.
	Proc, Block int
}

// Features is the paper's two-dimensional feature space for a block.
type Features struct {
	// MemIntensity is the fraction of instructions referencing memory,
	// summarizing the block's instruction-type composition.
	MemIntensity float64
	// CacheBadness estimates how badly the block's references behave in a
	// reference-sized cache: L1-miss fraction times the expected miss ratio
	// of a nominal shared cache, from the reuse-distance model.
	CacheBadness float64
}

// ReferenceCacheKB is the nominal cache size the static cache-behavior
// estimate is evaluated against. The value matches the per-pair L2 of the
// paper's evaluation machine (Core 2 Quad: 4 MiB per core pair).
const ReferenceCacheKB = 4096

// BlockFeatures extracts the feature vector of one block.
func BlockFeatures(b *cfg.Block) Features {
	m := b.Mix()
	total := m.Total()
	if total == 0 {
		return Features{}
	}
	memOps := m.MemOps()
	prof := BlockProfile(b)
	badness := prof.L1MissFraction() * prof.MissRatio(ReferenceCacheKB)
	return Features{
		MemIntensity: float64(memOps) / float64(total),
		CacheBadness: badness,
	}
}

// BlockProfile aggregates the locality descriptors of a block's memory
// instructions into a single reuse profile.
func BlockProfile(b *cfg.Block) reuse.Profile {
	var prof reuse.Profile
	n := 0
	for _, in := range b.Instrs {
		if !in.Op.IsMemory() {
			continue
		}
		p := reuse.Profile{WorkingSetKB: in.Mem.WorkingSetKB, Locality: in.Mem.Locality}
		prof = reuse.Combine(prof, n, p, 1)
		n++
	}
	return prof
}

// Typing maps blocks to phase types.
type Typing struct {
	// K is the number of phase types.
	K int
	// Types maps each block to its type; blocks absent from the map are
	// untyped.
	Types map[BlockKey]Type
}

// TypeOf returns the block's phase type, or Untyped.
func (t *Typing) TypeOf(k BlockKey) Type {
	if ty, ok := t.Types[k]; ok {
		return ty
	}
	return Untyped
}

// Clone returns a deep copy.
func (t *Typing) Clone() *Typing {
	c := &Typing{K: t.K, Types: make(map[BlockKey]Type, len(t.Types))}
	for k, v := range t.Types {
		c.Types[k] = v
	}
	return c
}

// Options configures ClusterBlocks.
type Options struct {
	// K is the number of phase types (clusters). The paper notes two core
	// types suffice in practice (§VI-C); K defaults to 2.
	K int
	// MinBlockInstrs excludes blocks smaller than this from typing (the
	// paper's threshold-size filter, Fig. 1 step 2). ClusterBlocks types
	// every block at zero; Normalized fills zero with 5.
	MinBlockInstrs int
	// Seed drives k-means seeding.
	Seed uint64
	// MergeEps collapses clusters whose centroids are closer than this
	// Euclidean distance in feature space. Programs with genuinely uniform
	// behavior (the paper's zero-switch benchmarks: 459.GemsFDTD, 473.astar)
	// must end up with a single phase type rather than an arbitrary split of
	// near-identical blocks. Negative disables; zero uses DefaultMergeEps.
	MergeEps float64
}

// Normalized fills the zero-value fields with the standard typing: k = 2
// phase types over blocks of at least 5 instructions. Every run path
// types through it, so a zero Options means the same typing everywhere.
func (o Options) Normalized() Options {
	if o.K == 0 {
		o.K = 2
	}
	if o.MinBlockInstrs == 0 {
		o.MinBlockInstrs = 5
	}
	return o
}

// DefaultMergeEps is the default centroid-merge distance. Features live in
// [0,1]^2; genuinely distinct behaviors (compute vs. memory) sit >= 0.3
// apart, while k-means splits of a single behavioral cloud land around
// 0.1-0.15, so 0.18 separates the two regimes.
const DefaultMergeEps = 0.18

// ClusterBlocks performs the paper's static block typing: extract features
// for every sufficiently large block and cluster them with k-means.
func ClusterBlocks(p *prog.Program, graphs []*cfg.Graph, opts Options) (*Typing, error) {
	if opts.K <= 0 {
		opts.K = 2
	}
	var keys []BlockKey
	var pts []cluster.Point
	for pi, g := range graphs {
		for _, b := range g.Blocks {
			if b.NumInstrs() < opts.MinBlockInstrs {
				continue
			}
			if b.Kind != cfg.KindNormal {
				continue // call/syscall special nodes carry no mix of their own
			}
			f := BlockFeatures(b)
			keys = append(keys, BlockKey{Proc: pi, Block: b.ID})
			pts = append(pts, cluster.Point{f.MemIntensity, f.CacheBadness})
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("phase: program %q has no blocks of at least %d instructions", p.Name, opts.MinBlockInstrs)
	}
	k := opts.K
	if k > len(pts) {
		k = len(pts)
	}
	res, err := cluster.KMeans(pts, k, rng.New(opts.Seed), 0)
	if err != nil {
		return nil, fmt.Errorf("phase: clustering %q: %w", p.Name, err)
	}
	// Collapse behaviorally indistinguishable clusters.
	eps := opts.MergeEps
	if eps == 0 {
		eps = DefaultMergeEps
	}
	assign, centroids := mergeClose(res.Assign, res.Centroids, eps)
	// Canonicalize labels so type IDs are stable across runs and machines:
	// order clusters by ascending centroid memory intensity (type 0 =
	// compute-leaning, higher types = memory-leaning).
	relabel := canonicalOrder(centroids)
	effK := len(centroids)
	ty := &Typing{K: effK, Types: make(map[BlockKey]Type, len(keys))}
	for i, key := range keys {
		ty.Types[key] = Type(relabel[assign[i]])
	}
	return ty, nil
}

// mergeClose unions clusters whose centroids lie within eps of each other
// and compacts labels, returning the new assignment and centroid list.
func mergeClose(assign []int, centroids []cluster.Point, eps float64) ([]int, []cluster.Point) {
	if eps <= 0 || len(centroids) < 2 {
		return assign, centroids
	}
	k := len(centroids)
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	dist2 := func(a, b cluster.Point) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if dist2(centroids[i], centroids[j]) <= eps*eps {
				parent[find(j)] = find(i)
			}
		}
	}
	// Compact roots to 0..m-1.
	compact := map[int]int{}
	var merged []cluster.Point
	for i := 0; i < k; i++ {
		r := find(i)
		if _, ok := compact[r]; !ok {
			compact[r] = len(merged)
			merged = append(merged, centroids[r])
		}
	}
	out := make([]int, len(assign))
	for i, a := range assign {
		out[i] = compact[find(a)]
	}
	return out, merged
}

// canonicalOrder returns a relabeling old->new ordering clusters by centroid
// (memory intensity, then cache badness).
func canonicalOrder(centroids []cluster.Point) []int {
	n := len(centroids)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := centroids[order[i]], centroids[order[j]]
			if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	relabel := make([]int, n)
	for newID, oldID := range order {
		relabel[oldID] = newID
	}
	return relabel
}

// InjectError returns a copy of the typing with a fraction of typed blocks
// moved to a different (cyclically next) type — the paper's Fig. 7
// clustering-error protocol. frac is clamped to [0, 1].
func (t *Typing) InjectError(frac float64, r *rng.Source) *Typing {
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	c := t.Clone()
	if c.K < 2 {
		return c
	}
	// Deterministic order over map keys.
	keys := make([]BlockKey, 0, len(c.Types))
	for k := range c.Types {
		keys = append(keys, k)
	}
	sortKeys(keys)
	n := int(frac * float64(len(keys)))
	perm := r.Perm(len(keys))
	for i := 0; i < n; i++ {
		k := keys[perm[i]]
		c.Types[k] = (c.Types[k] + 1) % Type(c.K)
	}
	return c
}

// sortKeys orders BlockKeys lexicographically.
func sortKeys(keys []BlockKey) {
	// Insertion-free: simple sort via the standard library would need a
	// comparator closure; keep it explicit.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func less(a, b BlockKey) bool {
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Block < b.Block
}

// OracleTyping builds a typing from observed per-core-type IPC, the paper's
// low-error evaluation configuration: blocks whose IPC difference between
// core types exceeds ipcThreshold are typed by which core type favors them;
// the rest are typed by their better core with type 0.
//
// ipcByType maps each block to its measured IPC per core type (outer index:
// core type). Blocks missing from the map are left untyped.
func OracleTyping(ipcByType map[BlockKey][]float64, ipcThreshold float64) *Typing {
	ty := &Typing{K: 2, Types: map[BlockKey]Type{}}
	for k, ipcs := range ipcByType {
		if len(ipcs) < 2 {
			continue
		}
		// Type 0: compute-leaning (fast core at least as good: IPC gap below
		// threshold). Type 1: memory-leaning (slower core wins by more than
		// the threshold). Core type 0 is the fast type by amp convention.
		if ipcs[1]-ipcs[0] > ipcThreshold {
			ty.Types[k] = 1
		} else {
			ty.Types[k] = 0
		}
	}
	return ty
}

// Stats summarizes a typing for reporting.
type Stats struct {
	// TypedBlocks counts blocks with a type.
	TypedBlocks int
	// PerType counts blocks per type.
	PerType []int
}

// ComputeStats tallies a typing.
func ComputeStats(t *Typing) Stats {
	s := Stats{PerType: make([]int, t.K)}
	for _, ty := range t.Types {
		if ty >= 0 && int(ty) < t.K {
			s.PerType[ty]++
			s.TypedBlocks++
		}
	}
	return s
}

// Agreement returns the fraction of blocks typed identically by a and b,
// over blocks typed in both (used by the §II-A3 typing-accuracy experiment:
// "this technique miss-classifies only about 15% of loops").
func Agreement(a, b *Typing) float64 {
	common, agree := 0, 0
	for k, ta := range a.Types {
		tb, ok := b.Types[k]
		if !ok {
			continue
		}
		common++
		if ta == tb {
			agree++
		}
	}
	if common == 0 {
		return 0
	}
	return float64(agree) / float64(common)
}
