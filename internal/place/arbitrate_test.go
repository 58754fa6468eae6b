package place

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/reuse"
	"phasetune/internal/rng"
	"phasetune/internal/trace"
)

// arbitrateScan is the arbitration pass as it stood before unpriced spill
// selection moved to per-pair heaps: every round rescans every claim for
// the least loss. It is the oracle FuzzArbitrateMatchesScan holds Arbitrate
// to, assignments and trace alike.
func (e *Engine) arbitrateScan(claims []Claim) []amp.CoreTypeID {
	nTypes := len(e.machine.Types)
	assigned := make([]amp.CoreTypeID, len(claims))
	for i, c := range claims {
		assigned[i] = c.Dec.Choice
	}
	if nTypes < 2 || len(claims) == 0 {
		return assigned
	}

	quota := e.quotas(make([]int, nTypes), len(claims))
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

	bw := 1.0
	if e.priced {
		bw = e.bwFactor(claims, demand)
	}

	for round := 0; round < len(claims)*nTypes; round++ {
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
				trace.Arg{Key: "from", Value: e.machine.Types[over].Name},
				trace.Arg{Key: "to", Value: e.machine.Types[under].Name},
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

// fuzzRates is the rate table fuzzed claims draw from: a few values so
// losses tie often, a pair 1 ulp apart, signed zeros, and the infinities
// and NaN whose losses have no order.
var fuzzRates = []float64{
	1e5, 2e5, 2e5, 3e5, 5e5, 1e6, math.Nextafter(1e6, 2e6), 0, math.Copysign(0, -1),
	2.5e5, 4e5, 7.5e5, math.Inf(1), math.Inf(-1), math.NaN(), 6e5,
}

// fuzzClaims decodes a claim set from fuzz bytes: per claim, one byte of
// choice (low bits), previous assignment (bits 2–3) and HasPrev (bit 4),
// then a nibble per type indexing fuzzRates. The top bit sends the claim to
// the last type, so demand piles up past quota + band.
func fuzzClaims(data []byte, nTypes int) []Claim {
	var claims []Claim
	for len(data) >= 1+(nTypes+1)/2 && len(claims) < 200 {
		b := data[0]
		choice := int(b&3) % nTypes
		if b&0x80 != 0 {
			choice = nTypes - 1
		}
		prev := int(b>>2&3) % nTypes
		rates := make([]float64, nTypes)
		for t := range rates {
			nib := data[1+t/2]
			if t%2 == 1 {
				nib >>= 4
			}
			rates[t] = fuzzRates[nib&15]
		}
		claims = append(claims, Claim{
			Dec:     &Decision{Choice: amp.CoreTypeID(choice), Rates: rates},
			Prev:    amp.CoreTypeID(prev),
			HasPrev: b&0x10 != 0,
		})
		data = data[1+(nTypes+1)/2:]
	}
	return claims
}

// arbitrateTrace runs one arbitration on a fresh traced engine and returns
// the assignment and the exported trace.
func arbitrateTrace(t *testing.T, m *amp.Machine, cfg Config, claims []Claim, scan bool) ([]amp.CoreTypeID, []byte) {
	t.Helper()
	e := NewEngine(m, 0.06, cfg)
	tr := trace.New()
	e.SetTracer(tr)
	var got []amp.CoreTypeID
	if scan {
		got = e.arbitrateScan(claims)
	} else {
		got = append([]amp.CoreTypeID(nil), e.Arbitrate(claims)...)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return got, buf.Bytes()
}

// FuzzArbitrateMatchesScan holds Arbitrate to the rescanning oracle: on two-
// and three-type machines, with tied losses, previous assignments and
// demand at the band's edge, both must make the same assignments and emit
// the same place/arbitrate, place/spill and place/relief instants. The
// priced engine rides along; its spill selection still scans.
func FuzzArbitrateMatchesScan(f *testing.F) {
	f.Add(uint8(0), false, []byte{0x80, 0x10, 0x80, 0x21, 0x00, 0x32, 0x81, 0x11, 0x80, 0x10})
	f.Add(uint8(1), false, []byte{0x82, 0x11, 0x00, 0x92, 0x11, 0x00, 0x82, 0x11, 0x00, 0x82, 0x22, 0x01, 0x81, 0x33, 0x02})
	f.Add(uint8(2), false, bytes.Repeat([]byte{0x92, 0x21, 0x03}, 40))
	f.Add(uint8(0), false, bytes.Repeat([]byte{0x90, 0x11}, 60))
	f.Add(uint8(1), true, bytes.Repeat([]byte{0x82, 0x51, 0x02, 0x00, 0x15, 0x20}, 12))
	f.Add(uint8(2), false, []byte{0x80, 0xe0, 0x04, 0x80, 0x0e, 0x40, 0x81, 0xe6, 0x00, 0x82, 0x5c, 0x0e})
	machines := []*amp.Machine{quad(), amp.ThreeCore2Fast1Slow(), hex()}
	f.Fuzz(func(t *testing.T, which uint8, priced bool, data []byte) {
		m := machines[int(which)%len(machines)]
		claims := fuzzClaims(data, len(m.Types))
		cfg := Config{}
		if priced {
			cfg.Contention = &ContentionConfig{}
			for i := range claims {
				if i%2 == 0 {
					claims[i].Dec.Mem = &MemStats{L2RefsPerInstr: 0.25, Profile: reuse.Profile{WorkingSetKB: 3072, Locality: 0.9}}
				}
			}
		}
		want, wantTrace := arbitrateTrace(t, m, cfg, claims, true)
		got, gotTrace := arbitrateTrace(t, m, cfg, claims, false)
		if !slices.Equal(got, want) {
			t.Fatalf("%s priced=%v: Arbitrate %v, scan %v", m.Name, priced, got, want)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("%s priced=%v: traces differ:\n%s\nscan:\n%s", m.Name, priced, gotTrace, wantTrace)
		}
	})
}

// TestArbitrateReusesHeapsAcrossPasses runs one engine through many passes
// of different sizes against the oracle, so stale per-pair buffers from an
// earlier pass cannot leak into a later one.
func TestArbitrateReusesHeapsAcrossPasses(t *testing.T) {
	r := rng.New(3)
	for _, m := range []*amp.Machine{quad(), hex()} {
		e := NewEngine(m, 0.06, Config{})
		oracle := NewEngine(m, 0.06, Config{})
		for pass := 0; pass < 200; pass++ {
			claims := skewedClaims(r, m, 1+int(r.Uint64()%60))
			want := oracle.arbitrateScan(claims)
			if got := e.Arbitrate(claims); !slices.Equal(got, want) {
				t.Fatalf("%s pass %d: Arbitrate %v, scan %v", m.Name, pass, got, want)
			}
		}
	}
}

// skewedClaims draws n claims whose choices lean to the slowest type, as a
// memory-heavy serving mix does, so passes spill; rates are coarse so
// losses tie, and half the claims carry a previous assignment.
func skewedClaims(r *rng.Source, m *amp.Machine, n int) []Claim {
	nTypes := len(m.Types)
	claims := make([]Claim, n)
	for i := range claims {
		rates := make([]float64, nTypes)
		for t := range rates {
			rates[t] = 1e5 * float64(1+r.Uint64()%8)
		}
		choice := nTypes - 1
		if r.Uint64()%4 == 0 {
			choice = int(r.Uint64() % uint64(nTypes))
		}
		claims[i] = Claim{
			Dec:     &Decision{Choice: amp.CoreTypeID(choice), Rates: rates},
			Prev:    amp.CoreTypeID(r.Uint64() % uint64(nTypes)),
			HasPrev: r.Uint64()%2 == 0,
		}
	}
	return claims
}

// selectSortSlice is Select as it stood with sort.Slice: the reference
// TestSelectMatchesSortSlice holds the allocation-free sort to.
func selectSortSlice(machine *amp.Machine, f []float64, delta float64) amp.CoreTypeID {
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

// TestSelectMatchesSortSlice checks Select against sort.Slice's result on
// the inputs where the comparator is intransitive: IPC vectors whose
// entries sit within tieEps of one another (chains of ties that do not
// tie end to end), machines whose types share a clock, and type counts
// on both sides of pdqsort's insertion-sort cutoff (12) and of Select's
// stack array (8).
func TestSelectMatchesSortSlice(t *testing.T) {
	r := rng.New(17)
	clocks := [][]float64{{3.2, 2.4, 1.6}, {2, 2, 2}, {2, 1, 2}, {1, 3, 3}}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + int(r.Uint64()%14)
		base := clocks[trial%len(clocks)]
		m := &amp.Machine{Types: make([]amp.CoreType, n)}
		for i := range m.Types {
			m.Types[i].FreqGHz = base[(i+trial/len(clocks))%len(base)]
		}
		f := make([]float64, n)
		for i := range f {
			// Steps of 0–2.5% over a base IPC, so neighbours tie and
			// chains drift past tieEps.
			f[i] = 0.5 * (1 + 0.025*float64(r.Uint64()%5)*float64(r.Uint64()%3))
			if r.Uint64()%6 == 0 && i > 0 {
				f[i] = f[i-1]
			}
		}
		for _, delta := range []float64{0, 0.005, 0.02, 0.15} {
			if got, want := Select(m, f, delta), selectSortSlice(m, f, delta); got != want {
				t.Fatalf("trial %d: Select(%v, clocks %v, δ=%g) = %d, sort.Slice gives %d", trial, f, m.Types, delta, got, want)
			}
		}
	}
}

// TestSelectAndPlaceAllocateNothing pins the placement hot path's
// allocation count: Select sorts on the stack, and a steady-state Place —
// a choice flip that re-arbitrates every registered claim — reuses the
// engine's buffers.
func TestSelectAndPlaceAllocateNothing(t *testing.T) {
	m := hex()
	f := []float64{0.61, 0.6, 0.8}
	if n := testing.AllocsPerRun(100, func() { Select(m, f, 0.06) }); n != 0 {
		t.Errorf("Select allocates %v times per call, want 0", n)
	}

	e := NewEngine(m, 0.06, Config{})
	r := rng.New(5)
	for i, c := range skewedClaims(r, m, 170) {
		e.Enter(i, *c.Dec)
	}
	decs := [2]Decision{
		{Choice: 2, Rates: []float64{3e5, 2e5, 1e5}},
		{Choice: 0, Rates: []float64{3e5, 2e5, 1e5}},
	}
	flip := 0
	place := func() {
		flip ^= 1
		e.Place(7, decs[flip])
	}
	place() // first pass sizes the buffers
	if n := testing.AllocsPerRun(100, place); n != 0 {
		t.Errorf("steady-state Place allocates %v times per call, want 0", n)
	}
}

// BenchmarkArbitrate times one unpriced pass over 170 claims — the live
// task count of the serving grid at 1.5x load (osched's dispatch notes it)
// — leaning to the slow type so the pass spills, on two and three types.
func BenchmarkArbitrate(b *testing.B) {
	for _, m := range []*amp.Machine{quad(), hex()} {
		b.Run(m.Name, func(b *testing.B) {
			e := NewEngine(m, 0.06, Config{})
			claims := skewedClaims(rng.New(9), m, 170)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Arbitrate(claims)
			}
		})
	}
}
