// Package reuse models cache behavior from reuse distances.
//
// The paper's static block typing uses "a rough estimate of cache behavior
// (computation based on reuse distances)" (§II-A3, citing Beyls &
// D'Hollander, "Reuse distance as a metric for cache behavior"). Two pieces
// are provided:
//
//   - Profile: an analytic reuse-distance profile attached to code (derived
//     from the working-set/locality descriptors on memory instructions) that
//     yields an expected miss ratio for any effective cache capacity. The
//     simulator's shared-L2 model and the static cache-behavior feature both
//     evaluate it.
//   - StackDist: an exact Mattson LRU stack-distance calculator over address
//     traces, used by tests to validate the analytic profile's shape and by
//     the typing-accuracy experiment.
package reuse

import (
	"math"
)

// Profile is an analytic reuse-distance profile for a stream of memory
// references. References fall in two populations: a fraction Locality with
// near-zero reuse distance (absorbed by the private L1), and the remainder
// with reuse distances distributed exponentially over a working set of
// WorkingSetKB. The exponential reuse CDF is the standard single-parameter
// fit for steady-state streaming/looping access patterns.
type Profile struct {
	// WorkingSetKB is the mean reuse footprint in KiB of non-L1 references.
	WorkingSetKB float64
	// Locality is the fraction of references absorbed by the L1, in [0,1].
	Locality float64
}

// L1MissFraction returns the fraction of references that miss the private L1
// and are exposed to the shared cache.
func (p Profile) L1MissFraction() float64 {
	l := p.Locality
	if l < 0 {
		l = 0
	} else if l > 1 {
		l = 1
	}
	return 1 - l
}

// MissRatio returns the expected miss ratio of the *L1-missing* references in
// a shared cache of effectiveKB capacity: P(reuse distance > C) under the
// exponential reuse model, exp(-C/WS). A zero working set never misses; a
// zero-capacity cache always misses.
func (p Profile) MissRatio(effectiveKB float64) float64 {
	if p.WorkingSetKB <= 0 {
		return 0
	}
	if effectiveKB <= 0 {
		return 1
	}
	return math.Exp(-effectiveKB / p.WorkingSetKB)
}

// Combine merges two profiles weighted by their reference counts, producing
// the profile of the concatenated stream. Used to aggregate instruction-level
// descriptors into block- and section-level profiles.
func Combine(a Profile, na int, b Profile, nb int) Profile {
	if na+nb == 0 {
		return Profile{}
	}
	wa := float64(na) / float64(na+nb)
	wb := 1 - wa
	return Profile{
		WorkingSetKB: wa*a.WorkingSetKB + wb*b.WorkingSetKB,
		Locality:     wa*a.Locality + wb*b.Locality,
	}
}

// StackDist computes exact LRU stack distances (Mattson et al. 1970) over an
// address trace. Distances are measured in distinct cache lines touched since
// the previous access to the same line.
type StackDist struct {
	lineShift uint
	stack     []uint64 // most recent first
	pos       map[uint64]int
}

// NewStackDist returns a calculator with the given cache-line size in bytes
// (rounded down to a power of two; 64 if non-positive).
func NewStackDist(lineBytes int) *StackDist {
	if lineBytes <= 0 {
		lineBytes = 64
	}
	shift := uint(0)
	for (1 << (shift + 1)) <= lineBytes {
		shift++
	}
	return &StackDist{lineShift: shift, pos: map[uint64]int{}}
}

// Access records a reference to byte address addr and returns its stack
// distance: the number of distinct lines referenced since the last access to
// addr's line, or -1 for a cold (first) access.
//
// The implementation is the simple O(n) list walk; traces used in tests and
// experiments are small enough that the asymptotically faster tree variants
// are not warranted.
func (s *StackDist) Access(addr uint64) int {
	line := addr >> s.lineShift
	idx, seen := s.pos[line]
	if !seen {
		s.stack = append([]uint64{line}, s.stack...)
		for l, i := range s.pos {
			s.pos[l] = i + 1
		}
		s.pos[line] = 0
		return -1
	}
	// Move to front.
	copy(s.stack[1:idx+1], s.stack[0:idx])
	s.stack[0] = line
	for l, i := range s.pos {
		if i < idx {
			s.pos[l] = i + 1
		}
	}
	s.pos[line] = 0
	return idx
}

// Histogram runs the calculator over a trace and returns the multiset of
// stack distances (cold misses excluded) plus the cold-miss count.
func Histogram(trace []uint64, lineBytes int) (dists []int, cold int) {
	sd := NewStackDist(lineBytes)
	for _, a := range trace {
		d := sd.Access(a)
		if d < 0 {
			cold++
		} else {
			dists = append(dists, d)
		}
	}
	return dists, cold
}

// MissRatioFromTrace returns the fraction of accesses in the trace that miss
// a fully-associative LRU cache of capacityLines lines (cold misses count as
// misses).
func MissRatioFromTrace(trace []uint64, lineBytes, capacityLines int) float64 {
	if len(trace) == 0 {
		return 0
	}
	dists, cold := Histogram(trace, lineBytes)
	misses := cold
	for _, d := range dists {
		if d >= capacityLines {
			misses++
		}
	}
	return float64(misses) / float64(len(trace))
}
