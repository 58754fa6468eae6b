// Package amp describes performance-asymmetric multicore machines.
//
// The paper's evaluation platform (§IV-A1) is an Intel Core 2 Quad at
// 2.4 GHz with two cores underclocked to 1.6 GHz; the two cores running at
// the same frequency share an L2 cache. All cores execute the same ISA and
// share one microarchitecture — the asymmetry is purely clock frequency,
// which is exactly what this model captures: identical per-class CPI, but
// memory stalls priced in nanoseconds cost 1.5x more *cycles* on the fast
// cores. That asymmetry is what makes IPC (instructions per cycle) a
// discriminating signal: memory-bound code shows higher IPC on slow cores,
// compute-bound code shows equal IPC but finishes faster on fast cores.
//
// Simulation clock scaling: experiments use a scaled clock (CyclesPerSec)
// so that whole workloads simulate in seconds of wall time. FreqGHz remains
// the *nominal* frequency used to convert nanosecond latencies to cycles, so
// all cycle-level ratios match the real machine; only absolute durations are
// scaled (uniformly), which preserves every relative quantity the paper
// reports. See DESIGN.md §15.
package amp

import (
	"fmt"
	"math"
)

// CoreTypeID indexes Machine.Types.
type CoreTypeID int

// CoreType describes one class of core.
type CoreType struct {
	// Name is a human-readable label ("fast", "slow").
	Name string
	// FreqGHz is the nominal clock frequency in GHz, used to price
	// nanosecond memory latencies in cycles.
	FreqGHz float64
	// CyclesPerSec is the scaled simulation clock: how many cycles this
	// core retires per simulated second. Ratios between core types must
	// match FreqGHz ratios.
	CyclesPerSec float64
}

// PsPerCycle returns the simulated picoseconds one cycle takes.
func (t CoreType) PsPerCycle() int64 {
	return int64(math.Round(1e12 / t.CyclesPerSec))
}

// Core is one core instance.
type Core struct {
	// ID is the core's index in Machine.Cores.
	ID int
	// Type indexes Machine.Types.
	Type CoreTypeID
	// L2 indexes Machine.L2s, the shared cache group this core belongs to.
	L2 int
}

// L2Group is a shared last-level cache and the cores behind it.
type L2Group struct {
	// SizeKB is the cache capacity in KiB.
	SizeKB float64
	// Cores lists member core IDs.
	Cores []int
}

// Machine is a complete asymmetric multicore description.
type Machine struct {
	// Name labels the configuration.
	Name string
	// Types lists the distinct core types (paper §VI-C: grouping cores into
	// a small number of types keeps the technique scalable).
	Types []CoreType
	// Cores lists the core instances.
	Cores []Core
	// L2s lists the shared cache groups.
	L2s []L2Group
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.Cores) }

// CoresOfType returns the IDs of cores of type t, ascending.
func (m *Machine) CoresOfType(t CoreTypeID) []int {
	var out []int
	for _, c := range m.Cores {
		if c.Type == t {
			out = append(out, c.ID)
		}
	}
	return out
}

// TypeMask returns the affinity bit mask selecting all cores of type t.
func (m *Machine) TypeMask(t CoreTypeID) uint64 {
	var mask uint64
	for _, c := range m.Cores {
		if c.Type == t {
			mask |= 1 << uint(c.ID)
		}
	}
	return mask
}

// AllMask returns the affinity mask selecting every core.
func (m *Machine) AllMask() uint64 {
	return (uint64(1) << uint(len(m.Cores))) - 1
}

// CoreMask returns the mask selecting a single core.
func CoreMask(id int) uint64 { return 1 << uint(id) }

// Validate checks structural consistency.
func (m *Machine) Validate() error {
	if len(m.Cores) == 0 {
		return fmt.Errorf("amp: machine %q has no cores", m.Name)
	}
	if len(m.Cores) > 64 {
		return fmt.Errorf("amp: machine %q has %d cores; affinity masks support at most 64", m.Name, len(m.Cores))
	}
	if len(m.Types) == 0 {
		return fmt.Errorf("amp: machine %q has no core types", m.Name)
	}
	// Each check is written so that NaN fails it.
	for i, t := range m.Types {
		if !(t.FreqGHz > 0) || !(t.CyclesPerSec > 0) {
			return fmt.Errorf("amp: machine %q type %d has non-positive clock", m.Name, i)
		}
	}
	// Scaled clocks must preserve nominal frequency ratios.
	t0 := m.Types[0]
	for i, t := range m.Types[1:] {
		nominal := t.FreqGHz / t0.FreqGHz
		scaled := t.CyclesPerSec / t0.CyclesPerSec
		if !(math.Abs(nominal-scaled) <= 1e-9) {
			return fmt.Errorf("amp: machine %q type %d: scaled clock ratio %.6f != nominal %.6f",
				m.Name, i+1, scaled, nominal)
		}
	}
	seen := map[int]bool{}
	for i, c := range m.Cores {
		if c.ID != i {
			return fmt.Errorf("amp: machine %q core %d has ID %d", m.Name, i, c.ID)
		}
		if int(c.Type) < 0 || int(c.Type) >= len(m.Types) {
			return fmt.Errorf("amp: machine %q core %d has invalid type %d", m.Name, i, c.Type)
		}
		if c.L2 < 0 || c.L2 >= len(m.L2s) {
			return fmt.Errorf("amp: machine %q core %d has invalid L2 group %d", m.Name, i, c.L2)
		}
		seen[c.ID] = true
	}
	for gi, g := range m.L2s {
		if g.SizeKB <= 0 {
			return fmt.Errorf("amp: machine %q L2 group %d has non-positive size", m.Name, gi)
		}
		for _, cid := range g.Cores {
			if cid < 0 || cid >= len(m.Cores) {
				return fmt.Errorf("amp: machine %q L2 group %d lists invalid core %d", m.Name, gi, cid)
			}
			if m.Cores[cid].L2 != gi {
				return fmt.Errorf("amp: machine %q core %d listed in L2 group %d but assigned to %d",
					m.Name, cid, gi, m.Cores[cid].L2)
			}
		}
	}
	return nil
}

// DefaultTimeScale converts nominal GHz to the scaled simulation clock:
// cycles per simulated second = FreqGHz * 1e9 * DefaultTimeScale. The
// default 1e-4 turns 2.4 GHz into 240,000 cycles per simulated second, which
// lets an 800-simulated-second workload of dozens of processes run in
// seconds of wall time while preserving all cycle-level ratios.
const DefaultTimeScale = 1e-4

// scaled converts GHz to the scaled CyclesPerSec.
func scaled(ghz float64) float64 { return ghz * 1e9 * DefaultTimeScale }

// FastType and SlowType are the conventional type IDs of the presets: the
// fast type is always type 0.
const (
	FastType CoreTypeID = 0
	SlowType CoreTypeID = 1
)

// Quad2Fast2Slow is the paper's evaluation machine: four cores, two at
// 2.4 GHz and two underclocked to 1.6 GHz; same-frequency pairs share a
// 4 MiB L2 (§IV-A1).
func Quad2Fast2Slow() *Machine {
	m := &Machine{
		Name: "quad-2f2s",
		Types: []CoreType{
			{Name: "fast", FreqGHz: 2.4, CyclesPerSec: scaled(2.4)},
			{Name: "slow", FreqGHz: 1.6, CyclesPerSec: scaled(1.6)},
		},
		Cores: []Core{
			{ID: 0, Type: FastType, L2: 0},
			{ID: 1, Type: FastType, L2: 0},
			{ID: 2, Type: SlowType, L2: 1},
			{ID: 3, Type: SlowType, L2: 1},
		},
		L2s: []L2Group{
			{SizeKB: 4096, Cores: []int{0, 1}},
			{SizeKB: 4096, Cores: []int{2, 3}},
		},
	}
	return m
}

// ThreeCore2Fast1Slow is the additional configuration from the paper's
// future-work discussion (§VII): three cores, two fast and one slow.
func ThreeCore2Fast1Slow() *Machine {
	return &Machine{
		Name: "tri-2f1s",
		Types: []CoreType{
			{Name: "fast", FreqGHz: 2.4, CyclesPerSec: scaled(2.4)},
			{Name: "slow", FreqGHz: 1.6, CyclesPerSec: scaled(1.6)},
		},
		Cores: []Core{
			{ID: 0, Type: FastType, L2: 0},
			{ID: 1, Type: FastType, L2: 0},
			{ID: 2, Type: SlowType, L2: 1},
		},
		L2s: []L2Group{
			{SizeKB: 4096, Cores: []int{0, 1}},
			{SizeKB: 2048, Cores: []int{2}},
		},
	}
}

// Hex2Big2Medium2Little is the three-type generalization the paper leaves
// to future work (§VI-C argues the technique scales by grouping cores into
// a small number of types): six cores in big/medium/little pairs, each
// pair sharing an L2. Frequencies follow the paper's underclocking
// methodology — one microarchitecture, three clocks — so IPC keeps its
// discriminating role and Algorithm 2's Select generalizes unchanged over
// the third type. The little pair gets a half-size L2, matching the
// tri-core preset's slow core.
func Hex2Big2Medium2Little() *Machine {
	return &Machine{
		Name: "hex-2b2m2l",
		Types: []CoreType{
			{Name: "big", FreqGHz: 2.4, CyclesPerSec: scaled(2.4)},
			{Name: "medium", FreqGHz: 2.0, CyclesPerSec: scaled(2.0)},
			{Name: "little", FreqGHz: 1.6, CyclesPerSec: scaled(1.6)},
		},
		Cores: []Core{
			{ID: 0, Type: 0, L2: 0},
			{ID: 1, Type: 0, L2: 0},
			{ID: 2, Type: 1, L2: 1},
			{ID: 3, Type: 1, L2: 1},
			{ID: 4, Type: 2, L2: 2},
			{ID: 5, Type: 2, L2: 2},
		},
		L2s: []L2Group{
			{SizeKB: 4096, Cores: []int{0, 1}},
			{SizeKB: 4096, Cores: []int{2, 3}},
			{SizeKB: 2048, Cores: []int{4, 5}},
		},
	}
}

// Symmetric builds an n-core symmetric machine at the given frequency, each
// pair sharing an L2 — the control configuration.
func Symmetric(n int, ghz float64) *Machine {
	m := &Machine{
		Name:  fmt.Sprintf("sym-%dx%.1f", n, ghz),
		Types: []CoreType{{Name: "core", FreqGHz: ghz, CyclesPerSec: scaled(ghz)}},
	}
	groups := (n + 1) / 2
	for g := 0; g < groups; g++ {
		m.L2s = append(m.L2s, L2Group{SizeKB: 4096})
	}
	for i := 0; i < n; i++ {
		g := i / 2
		m.Cores = append(m.Cores, Core{ID: i, Type: 0, L2: g})
		m.L2s[g].Cores = append(m.L2s[g].Cores, i)
	}
	return m
}

// ByName resolves a preset machine by its short name (quad, tri, hex) or
// its full name (quad-2f2s, tri-2f1s, hex-2b2m2l) — the one resolver
// behind every command's -machine flag.
func ByName(name string) (*Machine, error) {
	for _, p := range []struct {
		short string
		build func() *Machine
	}{
		{"quad", Quad2Fast2Slow}, {"tri", ThreeCore2Fast1Slow}, {"hex", Hex2Big2Medium2Little},
	} {
		if m := p.build(); name == p.short || name == m.Name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q (want quad|tri|hex or a full machine name)", name)
}

// MaskCores expands an affinity mask into core IDs, ascending.
func MaskCores(mask uint64, numCores int) []int {
	var out []int
	for i := 0; i < numCores; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
