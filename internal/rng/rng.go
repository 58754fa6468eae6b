// Package rng provides a small, fast, deterministic pseudo-random number
// source used throughout the simulator. Every consumer receives an explicit
// *Source; there is no global state, so any experiment is a pure function of
// its configuration seeds and results are bit-for-bit reproducible.
//
// The generator is splitmix64 (Steele, Lea, Flood; JDK SplittableRandom),
// which passes BigCrush when used as a 64-bit stream and is trivially
// splittable: deriving independent child streams for sub-components (one per
// process, one per workload slot, ...) keeps components decoupled so adding
// randomness in one place does not perturb another.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// The zero value is a valid stream (seed 0); prefer New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden gamma, the splitmix64 state increment.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream. The child's sequence does not
// overlap the parent's for any practical stream length, and advancing the
// child does not advance the parent.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := ah*bl + (al*bl)>>32
	lo = a * b
	hi = ah*bh + (t >> 32) + (al*bh+t&mask)>>32
	return hi, lo
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, counting the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric called with p outside (0, 1]")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	// Inversion: floor(ln(1-u) / ln(1-p)).
	return int(math.Log1p(-u) / math.Log1p(-p))
}
