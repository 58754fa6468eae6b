package reuse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMissRatioMonotoneInCapacity(t *testing.T) {
	err := quick.Check(func(ws, c1, c2 float64) bool {
		ws = math.Abs(ws)
		c1, c2 = math.Abs(c1), math.Abs(c2)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		p := Profile{WorkingSetKB: ws}
		return p.MissRatio(c2) <= p.MissRatio(c1)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissRatioMonotoneInWorkingSet(t *testing.T) {
	err := quick.Check(func(ws1, ws2, c float64) bool {
		ws1, ws2, c = math.Abs(ws1), math.Abs(ws2), math.Abs(c)
		if ws1 > ws2 {
			ws1, ws2 = ws2, ws1
		}
		a := Profile{WorkingSetKB: ws1}
		b := Profile{WorkingSetKB: ws2}
		return a.MissRatio(c) <= b.MissRatio(c)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissRatioBounds(t *testing.T) {
	p := Profile{WorkingSetKB: 100}
	if r := p.MissRatio(0); r != 1 {
		t.Errorf("MissRatio(0) = %g, want 1", r)
	}
	if r := (Profile{}).MissRatio(64); r != 0 {
		t.Errorf("zero working set MissRatio = %g, want 0", r)
	}
	for _, c := range []float64{1, 10, 100, 1000} {
		r := p.MissRatio(c)
		if r < 0 || r > 1 {
			t.Errorf("MissRatio(%g) = %g outside [0,1]", c, r)
		}
	}
}

func TestL1MissFractionClamps(t *testing.T) {
	if f := (Profile{Locality: 1.5}).L1MissFraction(); f != 0 {
		t.Errorf("L1MissFraction with locality > 1 = %g, want 0", f)
	}
	if f := (Profile{Locality: -0.5}).L1MissFraction(); f != 1 {
		t.Errorf("L1MissFraction with locality < 0 = %g, want 1", f)
	}
	if f := (Profile{Locality: 0.25}).L1MissFraction(); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("L1MissFraction = %g, want 0.75", f)
	}
}

func TestCombineWeights(t *testing.T) {
	a := Profile{WorkingSetKB: 100, Locality: 1}
	b := Profile{WorkingSetKB: 300, Locality: 0}
	c := Combine(a, 1, b, 3)
	if math.Abs(c.WorkingSetKB-250) > 1e-9 {
		t.Errorf("combined working set = %g, want 250", c.WorkingSetKB)
	}
	if math.Abs(c.Locality-0.25) > 1e-9 {
		t.Errorf("combined locality = %g, want 0.25", c.Locality)
	}
	if got := Combine(a, 0, b, 0); got != (Profile{}) {
		t.Errorf("Combine with zero counts = %+v, want zero", got)
	}
}

func TestStackDistanceSequential(t *testing.T) {
	// Repeated sweep over N lines: second sweep sees distance N-1.
	sd := NewStackDist(64)
	const n = 8
	for i := 0; i < n; i++ {
		if d := sd.Access(uint64(i * 64)); d != -1 {
			t.Fatalf("cold access %d had distance %d", i, d)
		}
	}
	for i := 0; i < n; i++ {
		if d := sd.Access(uint64(i * 64)); d != n-1 {
			t.Errorf("second sweep access %d distance = %d, want %d", i, d, n-1)
		}
	}
}

func TestStackDistanceImmediateReuse(t *testing.T) {
	sd := NewStackDist(64)
	sd.Access(0)
	if d := sd.Access(0); d != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", d)
	}
	if d := sd.Access(8); d != 0 {
		t.Errorf("same-line access distance = %d, want 0", d)
	}
}

func TestStackDistanceLineGranularity(t *testing.T) {
	sd := NewStackDist(64)
	sd.Access(0)
	sd.Access(64)
	if d := sd.Access(0); d != 1 {
		t.Errorf("distance after one intervening line = %d, want 1", d)
	}
}

func TestMissRatioFromTraceLRU(t *testing.T) {
	// Cyclic sweep over 8 lines with capacity 4: everything misses (classic
	// LRU worst case).
	var trace []uint64
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 8; i++ {
			trace = append(trace, uint64(i*64))
		}
	}
	if r := MissRatioFromTrace(trace, 64, 4); r != 1 {
		t.Errorf("cyclic overflow miss ratio = %g, want 1", r)
	}
	// Capacity 8 holds everything: only cold misses.
	if r := MissRatioFromTrace(trace, 64, 8); math.Abs(r-8.0/32.0) > 1e-9 {
		t.Errorf("fitting-cache miss ratio = %g, want 0.25", r)
	}
	if r := MissRatioFromTrace(nil, 64, 4); r != 0 {
		t.Errorf("empty trace miss ratio = %g, want 0", r)
	}
}

func TestAnalyticMatchesTraceShape(t *testing.T) {
	// The analytic exponential model and an exact LRU simulation must agree
	// on ordering: bigger cache -> fewer misses, for a random-ish trace with
	// geometric reuse.
	var trace []uint64
	x := uint64(12345)
	for i := 0; i < 4000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		line := x % 256 // footprint 256 lines = 16 KiB
		trace = append(trace, line*64)
	}
	small := MissRatioFromTrace(trace, 64, 32)
	large := MissRatioFromTrace(trace, 64, 128)
	if small < large {
		t.Errorf("trace miss ratios not monotone: cap32=%g cap128=%g", small, large)
	}
	p := Profile{WorkingSetKB: 16}
	if p.MissRatio(2) < p.MissRatio(8) {
		t.Error("analytic miss ratios not monotone")
	}
}

func TestMissRatioEmptyProfilePrecedence(t *testing.T) {
	// A zero working set means "no shared-cache reuse to lose" and must win
	// over the zero-capacity rule: cache-neutral work never misses, even at
	// a degenerate zero share. This is what keeps compute-bound claims
	// inert under contention pricing.
	empty := Profile{}
	for _, kb := range []float64{0, 1, 4096, -5} {
		if got := empty.MissRatio(kb); got != 0 {
			t.Errorf("empty profile MissRatio(%g) = %g, want 0", kb, got)
		}
	}
	// A real working set at zero (or negative) capacity always misses.
	p := Profile{WorkingSetKB: 512, Locality: 0.9}
	if got := p.MissRatio(0); got != 1 {
		t.Errorf("MissRatio(0) = %g, want 1", got)
	}
	if got := p.MissRatio(-1); got != 1 {
		t.Errorf("MissRatio(-1) = %g, want 1", got)
	}
}

func TestCombineEmptyStreams(t *testing.T) {
	// Zero references on both sides yields the zero profile, not NaN.
	z := Combine(Profile{}, 0, Profile{}, 0)
	if z != (Profile{}) {
		t.Errorf("Combine of empty streams = %+v, want zero profile", z)
	}
	// A zero-count side contributes nothing.
	p := Profile{WorkingSetKB: 256, Locality: 0.5}
	if got := Combine(p, 10, Profile{WorkingSetKB: 9999, Locality: 1}, 0); got != p {
		t.Errorf("Combine with zero-count side = %+v, want %+v", got, p)
	}
}
