// Package workload provides the synthetic SPEC-like benchmark suite and the
// constant-size workload construction of the paper's evaluation (§IV-A2).
//
// Real SPEC CPU 2000/2006 binaries are unavailable here; each suite member
// is a generated program whose *personality* — phase structure, memory vs.
// compute balance, and relative length — matches the corresponding benchmark
// as characterized by the paper's Table 1 (switch counts and isolation
// runtimes). Benchmarks with a single behavior (459.GemsFDTD, 473.astar)
// produce zero phase transitions; heavy phase-alternators (183.equake,
// 401.bzip2, 171.swim, 172.mgrid) alternate compute- and memory-bound loops
// many times. Every program also carries a few thousand instructions of
// cold startup/utility code so static measurements (space overhead, Fig. 3)
// are taken against realistically sized binaries.
//
// Time scale: isolation runtimes follow the paper's Table 1 divided by
// ScaleDivisor (bwaves capped), under the scaled simulation clock of
// package amp; phase alternation counts follow the paper's switch counts
// under the same divisor. Uniform scaling preserves every relative quantity
// (see DESIGN.md §15).
//
// Beyond the fixed suite, the package provides the synthetic
// alternation-rate axis of the misprediction-cost breakdown (AltSpec,
// AltAnchorSpecs, Spec.Alternations + Spec.Materialize): constant-mix
// alternator fleets whose only varying property is how fast their phases
// alternate, with rates reported in alternations per billion estimated
// dynamic instructions (BenchSpec.AltRate).
package workload

import (
	"fmt"
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/isa"
	"phasetune/internal/prog"
	"phasetune/internal/reuse"
	"phasetune/internal/rng"
)

// ScaleDivisor divides the paper's Table 1 isolation runtimes (and switch
// counts) to keep simulations tractable.
const ScaleDivisor = 20

// PhaseKind is the behavioral class of one phase.
type PhaseKind int

const (
	// CPUPhase is integer-compute-bound: high IPC on every core, 1.5x
	// faster wall clock on fast cores.
	CPUPhase PhaseKind = iota
	// FPPhase is floating-point-compute-bound.
	FPPhase
	// MemPhase streams a working set overflowing the L2 into DRAM: higher
	// IPC on slow cores, little wall-clock gain from fast ones.
	MemPhase
	// MemLightPhase streams an L2-resident working set: memory-intensive by
	// instruction mix, but the on-die cache absorbs it, so IPC is core-type
	// invariant and the phase stays on fast cores.
	MemLightPhase
	// MixedPhase is in between; programs made only of it have one phase
	// type and never switch.
	MixedPhase
	// MemAntPhase is the memory antagonist: a DRAM streamer whose working
	// set overflows even a solo shared L2 by design, so its throughput is
	// governed almost entirely by its effective cache share — the phase
	// that makes shared-hierarchy contention visible. Its IPC profile is
	// flat across core types (memory latency is wall-clock), which is
	// exactly why unpriced placement herds antagonist fleets onto one
	// cache group: Algorithm 2 sends each one to cheap slow capacity and
	// nothing charges for the crowding.
	MemAntPhase
)

// String names the kind.
func (k PhaseKind) String() string {
	switch k {
	case CPUPhase:
		return "cpu"
	case FPPhase:
		return "fp"
	case MemPhase:
		return "mem"
	case MemLightPhase:
		return "memlight"
	case MixedPhase:
		return "mixed"
	case MemAntPhase:
		return "memant"
	}
	return fmt.Sprintf("phasekind(%d)", int(k))
}

// variants returns the block mixes of one phase-body iteration: a main
// block plus two alternates the body picks between at run time. All three
// share the kind's behavior (one phase type) while giving the binary static
// diversity.
func (k PhaseKind) variants() [3]prog.BlockMix {
	switch k {
	case CPUPhase:
		return [3]prog.BlockMix{
			{IntALU: 26, IntMul: 6, Load: 4, Store: 2, WorkingSetKB: 16, Locality: 0.99},
			{IntALU: 18, IntMul: 2, Load: 2, WorkingSetKB: 16, Locality: 0.99},
			{IntALU: 14, IntMul: 4, Store: 2, WorkingSetKB: 16, Locality: 0.99},
		}
	case FPPhase:
		return [3]prog.BlockMix{
			{FPAdd: 12, FPMul: 10, IntALU: 8, Load: 5, Store: 2, WorkingSetKB: 32, Locality: 0.99},
			{FPAdd: 8, FPMul: 6, IntALU: 4, Load: 3, WorkingSetKB: 32, Locality: 0.99},
			{FPAdd: 6, FPMul: 8, IntALU: 6, Store: 2, WorkingSetKB: 32, Locality: 0.99},
		}
	case MemPhase:
		return [3]prog.BlockMix{
			{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94},
			{Load: 12, Store: 4, IntALU: 4, WorkingSetKB: 4096, Locality: 0.93},
			{Load: 10, Store: 6, IntALU: 6, WorkingSetKB: 2048, Locality: 0.95},
		}
	case MemLightPhase:
		return [3]prog.BlockMix{
			{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 512, Locality: 0.96},
			{Load: 12, Store: 4, IntALU: 4, WorkingSetKB: 384, Locality: 0.96},
			{Load: 10, Store: 6, IntALU: 6, WorkingSetKB: 640, Locality: 0.97},
		}
	case MixedPhase:
		return [3]prog.BlockMix{
			{IntALU: 14, FPAdd: 4, Load: 8, Store: 3, WorkingSetKB: 512, Locality: 0.97},
			{IntALU: 10, FPAdd: 2, Load: 6, Store: 2, WorkingSetKB: 512, Locality: 0.97},
			{IntALU: 8, FPAdd: 4, Load: 5, Store: 3, WorkingSetKB: 512, Locality: 0.97},
		}
	case MemAntPhase:
		// Working sets straddle the largest shared L2 (4 MiB) with lower
		// locality than MemPhase: halving the cache share roughly triples
		// the miss ratio, so co-location cost dominates core-type choice.
		return [3]prog.BlockMix{
			{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.92},
			{Load: 14, Store: 6, IntALU: 4, WorkingSetKB: 3584, Locality: 0.90},
			{Load: 12, Store: 8, IntALU: 6, WorkingSetKB: 2560, Locality: 0.91},
		}
	}
	return [3]prog.BlockMix{{IntALU: 10}, {IntALU: 8}, {IntALU: 6}}
}

// PhaseSpec is one phase of a benchmark.
type PhaseSpec struct {
	// Kind selects the behavior.
	Kind PhaseKind
	// Share is this phase's fraction of the benchmark's total cycles.
	Share float64
	// Helper places the phase body in a separate procedure called from the
	// loop, exercising the inter-procedural analysis.
	Helper bool
}

// BenchSpec describes one suite member.
type BenchSpec struct {
	// Name is the SPEC-style benchmark name.
	Name string
	// Personality optionally overrides the phase-table key: synthetic
	// benchmarks (the alternation-rate axis) share one personality under
	// many names. Empty means the Name is the key.
	Personality string
	// PaperRuntimeSec and PaperSwitches record the paper's Table 1 row this
	// personality models (0 switches means single-phase).
	PaperRuntimeSec float64
	PaperSwitches   int
	// TargetSec is the designed isolation runtime on a fast core under the
	// scaled clock.
	TargetSec float64
	// Alternations is the exact number of outer-loop repetitions of the
	// phase sequence; 1 means the phases run once, in order.
	Alternations int
	// StaticInstrs is the approximate cold startup/utility code size,
	// giving the binary realistic static bulk.
	StaticInstrs int
}

// Phases derives the per-iteration phase sequence from the personality
// table.
func (s BenchSpec) Phases() []PhaseSpec {
	key := s.Personality
	if key == "" {
		key = s.Name
	}
	return phaseTable[key]
}

// phaseTable maps benchmark names to phase sequences.
var phaseTable = map[string][]PhaseSpec{
	"401.bzip2":       {{Kind: CPUPhase, Share: 0.55}, {Kind: MemPhase, Share: 0.45}},
	"410.bwaves":      {{Kind: FPPhase, Share: 0.45}, {Kind: MemPhase, Share: 0.55, Helper: true}},
	"429.mcf":         {{Kind: MemPhase, Share: 0.55}, {Kind: CPUPhase, Share: 0.1}, {Kind: MemPhase, Share: 0.35}},
	"459.GemsFDTD":    {{Kind: MemPhase, Share: 1}},
	"470.lbm":         {{Kind: MemPhase, Share: 0.8}, {Kind: FPPhase, Share: 0.2}},
	"473.astar":       {{Kind: MixedPhase, Share: 1}},
	"188.ammp":        {{Kind: FPPhase, Share: 0.4}, {Kind: MemPhase, Share: 0.3}, {Kind: FPPhase, Share: 0.3}},
	"173.applu":       {{Kind: FPPhase, Share: 0.6}, {Kind: MemPhase, Share: 0.4, Helper: true}},
	"179.art":         {{Kind: MemPhase, Share: 0.8}, {Kind: CPUPhase, Share: 0.2}},
	"183.equake":      {{Kind: CPUPhase, Share: 0.5}, {Kind: MemPhase, Share: 0.5}},
	altPersonality:    {{Kind: CPUPhase, Share: 0.5}, {Kind: MemPhase, Share: 0.5}},
	altRevPersonality: {{Kind: MemPhase, Share: 0.5}, {Kind: CPUPhase, Share: 0.5}},
	altCPUPersonality: {{Kind: CPUPhase, Share: 0.9}, {Kind: MemPhase, Share: 0.1}},
	altMemPersonality: {{Kind: MemPhase, Share: 0.9}, {Kind: CPUPhase, Share: 0.1}},
	antPersonality:    {{Kind: MemAntPhase, Share: 0.9}, {Kind: CPUPhase, Share: 0.1}},
	antCPUPersonality: {{Kind: CPUPhase, Share: 0.9}, {Kind: MemLightPhase, Share: 0.1}},
	"164.gzip":        {{Kind: CPUPhase, Share: 0.7}, {Kind: MemPhase, Share: 0.3}},
	"181.mcf":         {{Kind: MemPhase, Share: 0.6}, {Kind: CPUPhase, Share: 0.15}, {Kind: MemPhase, Share: 0.25}},
	"172.mgrid":       {{Kind: FPPhase, Share: 0.5}, {Kind: MemPhase, Share: 0.5}},
	"171.swim":        {{Kind: MemPhase, Share: 0.45}, {Kind: FPPhase, Share: 0.55}},
	"175.vpr":         {{Kind: CPUPhase, Share: 0.35}, {Kind: MemPhase, Share: 0.35}, {Kind: CPUPhase, Share: 0.3}},
}

// Benchmark is a generated suite member.
type Benchmark struct {
	// Spec is the personality that generated the program.
	Spec BenchSpec
	// Prog is the generated program image.
	Prog *prog.Program
}

// Name returns the benchmark name.
func (b *Benchmark) Name() string { return b.Spec.Name }

// mixCycles estimates the isolation cycle cost of executing one block of
// mix m on a fast core with the full reference L2, mirroring the exec
// timing model (control-flow cost excluded).
func mixCycles(cm exec.CostModel, machine *amp.Machine, m prog.BlockMix) float64 {
	c := float64(m.IntALU)*cm.CPI[isa.IntALU] +
		float64(m.IntMul)*cm.CPI[isa.IntMul] +
		float64(m.IntDiv)*cm.CPI[isa.IntDiv] +
		float64(m.FPAdd)*cm.CPI[isa.FPAdd] +
		float64(m.FPMul)*cm.CPI[isa.FPMul] +
		float64(m.FPDiv)*cm.CPI[isa.FPDiv] +
		float64(m.Load)*cm.CPI[isa.Load] +
		float64(m.Store)*cm.CPI[isa.Store]
	mem := m.Load + m.Store
	if mem > 0 {
		par := exec.ParamsFor(cm, machine)[0]
		prof := reuse.Profile{WorkingSetKB: m.WorkingSetKB, Locality: m.Locality}
		l1miss := float64(mem) * prof.L1MissFraction()
		share := machine.L2s[0].SizeKB
		c += l1miss * (par.L2HitCycles + prof.MissRatio(share)*par.MemCycles)
	}
	return c
}

// emitPhaseBody emits one iteration of a phase body (main variant plus a
// random alternate) and returns its expected cycle cost.
func emitPhaseBody(pb *prog.ProcBuilder, kind PhaseKind, cm exec.CostModel, machine *amp.Machine) float64 {
	vs := kind.variants()
	pb.Straight(vs[0])
	pb.IfElse(0.5,
		func(pb *prog.ProcBuilder) { pb.Straight(vs[1]) },
		func(pb *prog.ProcBuilder) { pb.Straight(vs[2]) },
	)
	cost := mixCycles(cm, machine, vs[0]) +
		0.5*(mixCycles(cm, machine, vs[1])+mixCycles(cm, machine, vs[2])) +
		cm.CPI[isa.Branch] + 0.5*cm.CPI[isa.Jump]
	return cost
}

// emitStartup emits the cold startup/utility code: a chain of conditional
// straight blocks whose mixes are perturbed versions of the benchmark's own
// phase kinds (so single-behavior benchmarks stay single-typed), plus a few
// utility procedures called once.
func emitStartup(b *prog.Builder, spec BenchSpec, r *rng.Source) {
	phases := spec.Phases()
	kinds := make([]PhaseKind, 0, len(phases))
	for _, ph := range phases {
		kinds = append(kinds, ph.Kind)
	}
	perturb := func(m prog.BlockMix) prog.BlockMix {
		scale := func(n int) int {
			if n == 0 {
				return 0
			}
			v := n + r.Intn(n+1) - n/2 // n +/- n/2
			if v < 1 {
				v = 1
			}
			return v
		}
		m.IntALU = scale(m.IntALU)
		m.IntMul = scale(m.IntMul)
		m.FPAdd = scale(m.FPAdd)
		m.FPMul = scale(m.FPMul)
		m.Load = scale(m.Load)
		m.Store = scale(m.Store)
		return m
	}
	blockOf := func() prog.BlockMix {
		kind := kinds[r.Intn(len(kinds))]
		vs := kind.variants()
		return perturb(vs[r.Intn(3)])
	}

	// Utility procedures (~1/4 of the static budget).
	nUtil := 2 + r.Intn(3)
	utilBudget := spec.StaticInstrs / 4
	perUtil := utilBudget / nUtil
	utilNames := make([]string, nUtil)
	for u := 0; u < nUtil; u++ {
		name := fmt.Sprintf("util%d", u)
		utilNames[u] = name
		up := b.Proc(name)
		emitted := 0
		for emitted < perUtil {
			m := blockOf()
			up.Straight(m)
			emitted += m.Total()
			if r.Float64() < 0.4 && emitted < perUtil {
				m2 := blockOf()
				up.IfElse(0.5,
					func(pb *prog.ProcBuilder) { pb.Straight(m2) },
					nil,
				)
				emitted += m2.Total()
			}
		}
		up.Ret()
	}

	sp := b.Proc("startup")
	emitted := 0
	budget := spec.StaticInstrs - utilBudget
	for emitted < budget {
		m1, m2 := blockOf(), blockOf()
		sp.IfElse(0.5,
			func(pb *prog.ProcBuilder) { pb.Straight(m1) },
			func(pb *prog.ProcBuilder) { pb.Straight(m2) },
		)
		emitted += m1.Total() + m2.Total()
	}
	for _, name := range utilNames {
		sp.CallProc(name)
	}
	sp.Ret()
}

// Generate builds the benchmark program for a spec.
func Generate(spec BenchSpec, cm exec.CostModel, machine *amp.Machine) (*Benchmark, error) {
	if spec.TargetSec <= 0 {
		return nil, fmt.Errorf("workload: %s: non-positive target runtime", spec.Name)
	}
	phases := spec.Phases()
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: %s: unknown personality", spec.Name)
	}
	alts := spec.Alternations
	if alts < 1 {
		alts = 1
	}
	totalShare := 0.0
	for _, ph := range phases {
		totalShare += ph.Share
	}
	if totalShare <= 0 {
		return nil, fmt.Errorf("workload: %s: zero total phase share", spec.Name)
	}

	fastCPS := machine.Types[0].CyclesPerSec
	totalCycles := spec.TargetSec * fastCPS

	b := prog.NewBuilder(spec.Name)
	main := b.Proc("main")
	b.SetEntry("main")

	// Cold code first: startup chain and utility procedures.
	r := rng.New(hashName(spec.Name))
	if spec.StaticInstrs > 0 {
		emitStartup(b, spec, r)
	}

	// Helper procedures for Helper phases, with their per-call cost.
	helperCost := map[int]float64{}
	for pi, ph := range phases {
		if !ph.Helper {
			continue
		}
		name := fmt.Sprintf("phase%d_%s", pi, ph.Kind)
		hp := b.Proc(name)
		helperCost[pi] = emitPhaseBody(hp, ph.Kind, cm, machine) +
			cm.CPI[isa.Call] + cm.CPI[isa.Ret]
		hp.Ret()
	}

	if spec.StaticInstrs > 0 {
		main.CallProc("startup")
	}

	emitPhases := func(pb *prog.ProcBuilder, cyclesBudget float64) {
		for pi, ph := range phases {
			phaseCycles := cyclesBudget * ph.Share / totalShare
			if ph.Helper {
				perIter := helperCost[pi] + cm.CPI[isa.Branch]
				trips := math.Max(1, phaseCycles/perIter)
				name := fmt.Sprintf("phase%d_%s", pi, ph.Kind)
				pb.Loop(trips, func(pb *prog.ProcBuilder) {
					pb.CallProc(name)
				})
				continue
			}
			// Inline body: emit once into the loop, sizing the trip count
			// from the expected cost returned by the emitter.
			head := pb.Here()
			cost := emitPhaseBody(pb, ph.Kind, cm, machine) + cm.CPI[isa.Branch]
			trips := int(math.Max(1, phaseCycles/cost) + 0.5)
			pb.BranchCounted(head, trips)
		}
	}

	if alts > 1 {
		main.Loop(float64(alts), func(pb *prog.ProcBuilder) {
			// A small preamble block keeps the alternation loop's header
			// distinct from the first phase loop's header; natural loops
			// sharing a header would be merged by the CFG analysis and the
			// phase structure would disappear into one region.
			pb.Straight(prog.BlockMix{IntALU: 3})
			emitPhases(pb, totalCycles/float64(alts))
		})
	} else {
		emitPhases(main, totalCycles)
	}
	main.Ret()

	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
	}
	return &Benchmark{Spec: spec, Prog: p}, nil
}

// hashName derives a stable per-benchmark seed.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// scale converts a paper Table 1 runtime to the scaled target, capping very
// long benchmarks so no single job dominates wall-clock time.
func scale(paperSec float64) float64 {
	s := paperSec / ScaleDivisor
	return math.Min(s, 300)
}

// Specs returns the 15 suite personalities modeled on the paper's Table 1.
// Alternation counts follow the paper's switch counts / (2 * ScaleDivisor):
// each alternation of a two-phase benchmark causes two switches.
func Specs() []BenchSpec {
	mk := func(name string, paperSec float64, paperSw, alts, static int) BenchSpec {
		return BenchSpec{
			Name:            name,
			PaperRuntimeSec: paperSec,
			PaperSwitches:   paperSw,
			TargetSec:       scale(paperSec),
			Alternations:    alts,
			StaticInstrs:    static,
		}
	}
	return []BenchSpec{
		mk("401.bzip2", 364, 4837, 120, 4000),
		mk("410.bwaves", 33636, 205, 6, 6000),
		mk("429.mcf", 872, 15, 1, 3000),
		mk("459.GemsFDTD", 3327, 0, 1, 8000),
		mk("470.lbm", 1123, 99, 3, 3000),
		mk("473.astar", 55, 0, 1, 3500),
		mk("188.ammp", 67, 3, 1, 5000),
		mk("173.applu", 3414, 205, 6, 5500),
		mk("179.art", 46, 3, 1, 2500),
		mk("183.equake", 62, 7715, 190, 3000),
		mk("164.gzip", 23, 3, 1, 2000),
		mk("181.mcf", 58, 6, 1, 2500),
		mk("172.mgrid", 172, 2005, 50, 3500),
		mk("171.swim", 5720, 3204, 80, 4500),
		mk("175.vpr", 46, 6, 1, 4000),
	}
}

// ---------------------------------------------------------------------------
// The synthetic alternation-rate axis.
//
// The misprediction-cost ablation (ROADMAP; experiments.Breakdown) needs to
// vary exactly one thing — how fast phases alternate — while holding the
// instruction mix constant. No real suite member can do that (each has its
// own mix and length), so the axis is a synthetic benchmark: the equake
// personality (a cpu/mem alternator, the paper's fastest phase-switcher)
// at a fixed target runtime, with Alternations swept geometrically. Rates
// are reported in alternations per billion estimated dynamic instructions
// (AltRate) so the experiment axis and the benchgen suite table share one
// unit.

// altPersonality keys the alternator's phase table entry: the same 50/50
// cpu/mem alternation as 183.equake. altRevPersonality is the identical
// mix with the phase order rotated (mem first), and altCPUPersonality /
// altMemPersonality are the stable single-phase anchors. Materialize
// interleaves all four across slots: a fleet of only alternators is
// degenerate — every task demands the same core type at the same instant
// (correlated herding) and every DRAM phase lands on one shared L2 — so
// the fleet mirrors the real suite's composition (stable jobs plus
// alternators, aggregate demand matching machine capacity) while only the
// alternation rate varies across the axis.
const (
	altPersonality    = "synthetic.alt"
	altRevPersonality = "synthetic.alt.rev"
	altCPUPersonality = "synthetic.cpu"
	altMemPersonality = "synthetic.mem"
	// antPersonality keys the memory antagonist: a MemAntPhase-dominant
	// job with a small compute phase (so it carries phase marks and every
	// policy, static included, can place it — same shape as the anchors).
	// It is deliberately NOT a Specs() suite member: the suite drives
	// BuildWorkload's random draws, and extending it would perturb every
	// existing seed's workload — the byte-identity contract the dist
	// fabric and the golden tests pin. Antagonist fleets materialize
	// through Spec.Fleet instead.
	antPersonality = "synthetic.antagonist"
	// antCPUPersonality keys the antagonist fleet's compute anchor: like
	// altCPUPersonality but with a *light* memory secondary, so its
	// image-level shared-cache signature stays unambiguously compute-side
	// (the alternation anchor's MemPhase secondary dominates the
	// ref-weighted working set and would classify it memory-bound).
	antCPUPersonality = "synthetic.antagonist.cpu"
)

// AltTargetSec is the alternator's designed isolation runtime on a fast
// core under the scaled clock. 20 s × 240k cycles/s = 4.8M cycles total,
// so one alternation at count A spans 4.8M/A cycles: the default axis
// (DefaultAltAlternations) walks phase lengths from well above the largest
// detection window to equake-like (~2k cycles) and beyond.
const AltTargetSec = 20

// AltSpec returns the synthetic constant-mix alternator personality at the
// given alternation count. Alternation counts are the axis; everything
// else — mix, target runtime, static bulk — is held fixed.
func AltSpec(alternations int) BenchSpec {
	return altSpec(alternations, false)
}

// AltSpecRev is AltSpec with the phase order rotated (mem first) — the
// antiphase partner Materialize interleaves across slots.
func AltSpecRev(alternations int) BenchSpec {
	return altSpec(alternations, true)
}

func altSpec(alternations int, rev bool) BenchSpec {
	if alternations < 1 {
		alternations = 1
	}
	name, personality := fmt.Sprintf("alt.x%d", alternations), altPersonality
	if rev {
		name, personality = name+".r", altRevPersonality
	}
	return BenchSpec{
		Name:         name,
		Personality:  personality,
		TargetSec:    AltTargetSec,
		Alternations: alternations,
		StaticInstrs: 3000,
	}
}

// AltAnchorSpecs returns the fleet's stable anchors: a compute-dominant
// job and a memory-dominant job at the alternator's target runtime, each
// with a small secondary phase (so they carry phase marks and every
// policy — static included — can place them, like the suite's
// low-alternation members) and a fixed low alternation count. They are
// rate-invariant — the constant half of every alternation-axis workload.
func AltAnchorSpecs() []BenchSpec {
	return []BenchSpec{
		{Name: "alt.cpu", Personality: altCPUPersonality, TargetSec: AltTargetSec,
			Alternations: 2, StaticInstrs: 3000},
		{Name: "alt.mem", Personality: altMemPersonality, TargetSec: AltTargetSec,
			Alternations: 2, StaticInstrs: 3000},
	}
}

// FleetAntagonist selects the memory-antagonist fleet axis
// (workload.Spec.Fleet): slots cycle [antagonist, cpu anchor], so half the
// fleet streams DRAM against a compute half that anchors fast-core demand.
// The composition makes shared-hierarchy contention the dominant effect —
// on the hex, two or more antagonists sharing one L2 group thrash it while
// another same-size group sits cold — which is the separation the
// contention-priced placement engine must produce and the unpriced engine
// demonstrably does not.
const FleetAntagonist = "antagonist"

// AntagonistSpecs returns the antagonist fleet's member specs in slot-cycle
// order: the DRAM antagonist and the stable compute anchor, both at the
// alternator target runtime with the anchors' low alternation count.
func AntagonistSpecs() []BenchSpec {
	return []BenchSpec{
		{Name: "ant.mem", Personality: antPersonality, TargetSec: AltTargetSec,
			Alternations: 2, StaticInstrs: 3000},
		{Name: "ant.cpu", Personality: antCPUPersonality, TargetSec: AltTargetSec,
			Alternations: 2, StaticInstrs: 3000},
	}
}

// DefaultAltAlternations is the default breakdown axis: six alternation
// counts spaced geometrically (×4). At AltTargetSec the phase period runs
// from ~600k cycles (trivially tracked by every window) down to ~590
// cycles (faster than 183.equake — inside any realistic window).
func DefaultAltAlternations() []int {
	return []int{4, 16, 64, 256, 1024, 4096}
}

// EstInstrs estimates a spec's dynamic phase-loop instruction count from
// the same per-iteration cost math Generate sizes trip counts with: for
// each phase, cycles-per-iteration prices the trip count and the expected
// instructions per iteration (main variant plus half of each alternate,
// plus the branch skeleton) scale it back to instructions. Cold startup
// code is excluded — thousands of instructions against millions. The
// estimate is what AltRate normalizes alternation counts by.
func (s BenchSpec) EstInstrs(cm exec.CostModel, machine *amp.Machine) float64 {
	phases := s.Phases()
	if len(phases) == 0 || s.TargetSec <= 0 {
		return 0
	}
	totalShare := 0.0
	for _, ph := range phases {
		totalShare += ph.Share
	}
	if totalShare <= 0 {
		return 0
	}
	totalCycles := s.TargetSec * machine.Types[0].CyclesPerSec
	instrs := 0.0
	for _, ph := range phases {
		vs := ph.Kind.variants()
		perIterCost := mixCycles(cm, machine, vs[0]) +
			0.5*(mixCycles(cm, machine, vs[1])+mixCycles(cm, machine, vs[2])) +
			cm.CPI[isa.Branch] + 0.5*cm.CPI[isa.Jump] +
			cm.CPI[isa.Branch] // loop back-branch
		perIterInstrs := float64(vs[0].Total()) +
			0.5*float64(vs[1].Total()+vs[2].Total()) +
			2.5 // if-else branch + loop branch + half a jump
		if ph.Helper {
			perIterCost += cm.CPI[isa.Call] + cm.CPI[isa.Ret]
			perIterInstrs += 2
		}
		phaseCycles := totalCycles * ph.Share / totalShare
		instrs += phaseCycles / perIterCost * perIterInstrs
	}
	return instrs
}

// AltRate returns the spec's phase-alternation rate in alternations per
// billion estimated dynamic instructions — the shared unit of the
// breakdown experiment's rate axis and the benchgen suite table. Zero for
// single-run (Alternations <= 1) or unestimable specs.
func (s BenchSpec) AltRate(cm exec.CostModel, machine *amp.Machine) float64 {
	if s.Alternations <= 1 {
		return 0
	}
	inst := s.EstInstrs(cm, machine)
	if inst <= 0 {
		return 0
	}
	return float64(s.Alternations) * 1e9 / inst
}

// Suite generates the full benchmark suite deterministically.
func Suite(cm exec.CostModel, machine *amp.Machine) ([]*Benchmark, error) {
	specs := Specs()
	out := make([]*Benchmark, 0, len(specs))
	for _, s := range specs {
		b, err := Generate(s, cm, machine)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Workload is the paper's constant-size workload: a fixed number of slots,
// each with its own queue of randomly selected benchmarks. Upon completion
// of a job, the next job in its slot's queue starts immediately (§IV-A2).
type Workload struct {
	// Slots holds one job queue per slot.
	Slots [][]*Benchmark
}

// BuildWorkload draws queueLen random benchmarks per slot. The same seed
// reproduces the same queues, so compared techniques run identical work —
// exactly the paper's protocol ("when comparing two techniques, the same
// queues were used for each experiment").
func BuildWorkload(suite []*Benchmark, slots, queueLen int, seed uint64) *Workload {
	r := rng.New(seed)
	w := &Workload{Slots: make([][]*Benchmark, slots)}
	for s := 0; s < slots; s++ {
		q := make([]*Benchmark, queueLen)
		for i := range q {
			q[i] = suite[r.Intn(len(suite))]
		}
		w.Slots[s] = q
	}
	return w
}

// NumSlots returns the slot count.
func (w *Workload) NumSlots() int { return len(w.Slots) }

// Spec describes a workload by its construction parameters instead of a
// built queue set. BuildWorkload is deterministic, so a Spec is the
// serializable identity of a workload: any process holding the same suite
// rebuilds bit-identical queues from it — which is what lets run
// specifications cross process boundaries in the distributed sweep fabric.
type Spec struct {
	// Slots is the constant workload size.
	Slots int `json:"slots"`
	// QueueLen is the per-slot queue length.
	QueueLen int `json:"queue_len"`
	// Seed drives the random benchmark draw.
	Seed uint64 `json:"seed"`
	// Alternations, when > 0, selects the synthetic alternation-rate axis
	// instead of the suite draw: slots cycle through the anchored
	// alternation fleet — the constant-mix alternator at this alternation
	// count, a stable cpu anchor, the antiphase alternator rotation, and a
	// stable mem anchor — so only the alternation rate varies across
	// compared specs while the fleet's composition stays fixed (see
	// Materialize). Specs carrying it must materialize through Materialize:
	// the fleet is generated against (cost, machine), which Build does not
	// have.
	Alternations int `json:"alternations,omitempty"`
	// Fleet, when non-empty, selects a named synthetic fleet instead of
	// the suite draw — currently FleetAntagonist, the memory-antagonist
	// composition behind the contention-pricing experiments. Like the
	// alternation axis, fleet specs must materialize through Materialize
	// (the fleet generates against cost and machine) and rebuild
	// bit-identically across processes.
	Fleet string `json:"fleet,omitempty"`
	// Arrivals, when non-nil, selects the open-system serving form instead
	// of a closed slot-queue workload: jobs from the serving fleet arrive
	// over time under the described process. Specs carrying it materialize
	// through MaterializeOpen (to a Stream, not a Workload); Slots and
	// QueueLen are unused. Seed drives both the arrival schedule and the
	// per-process branch seeds.
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
}

// Build materializes the workload against a suite. It serves only the
// suite-draw form (Alternations == 0); alternation-axis specs go through
// Materialize.
func (s Spec) Build(suite []*Benchmark) *Workload {
	return BuildWorkload(suite, s.Slots, s.QueueLen, s.Seed)
}

// MaxQueuedJobs caps a closed workload's slot count and its job count,
// Slots×QueueLen, as a runaway guard on wire specs (the campaigns queue a
// few thousand jobs).
const MaxQueuedJobs = 1 << 20

// Validate checks the closed-workload construction parameters: queue
// lengths must be non-negative, slots must queue at least one job each,
// Slots and Slots×QueueLen must each stay within MaxQueuedJobs, and a
// named fleet must exist. Materialize calls it; open specs (Arrivals set)
// leave Slots and QueueLen unused, and MaterializeOpen validates their
// arrival process instead.
func (s Spec) Validate() error {
	if s.Slots < 0 || s.QueueLen < 0 {
		return fmt.Errorf("workload: negative queues (%d slots of %d jobs)", s.Slots, s.QueueLen)
	}
	if s.Arrivals == nil && s.Slots > 0 && s.QueueLen == 0 {
		// Suite draws and fleets alike fill each slot with QueueLen jobs:
		// without this the run would start nothing and report no error.
		return fmt.Errorf("workload: %d slots of 0 jobs: QueueLen must be at least 1", s.Slots)
	}
	if s.Slots > MaxQueuedJobs || (s.QueueLen > 0 && s.Slots > MaxQueuedJobs/s.QueueLen) {
		return fmt.Errorf("workload: %d slots of %d jobs exceed the %d-job ceiling", s.Slots, s.QueueLen, MaxQueuedJobs)
	}
	if s.Fleet != "" && s.Fleet != FleetAntagonist {
		return fmt.Errorf("workload: unknown fleet %q (want %q)", s.Fleet, FleetAntagonist)
	}
	return nil
}

// Materialize builds the workload, generating the synthetic alternation
// fleet when the spec carries an alternation-rate axis: slots cycle
// through [alternator, cpu anchor, reversed alternator, mem anchor], so
// half the fleet alternates (in antiphase rotations) against a stable
// half whose demand anchors the machine — the composition that keeps
// aggregate core-type demand near capacity at every rate (see
// altPersonality for why an alternator-only fleet is degenerate).
// Generation is a pure function of (cost, machine, alternations), so
// alternation specs rebuild bit-identically across processes exactly like
// suite draws do, and within a process every spec of one environment
// shares the fleet's generated benchmarks; Seed keeps driving per-process
// branch seeds through the run configuration.
func (s Spec) Materialize(suite []*Benchmark, cm exec.CostModel, machine *amp.Machine) (*Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch {
	case s.Fleet != "":
		return s.materializeFleet(AntagonistSpecs(), cm, machine)
	case s.Alternations > 0:
		anchors := AltAnchorSpecs()
		specs := []BenchSpec{AltSpec(s.Alternations), anchors[0], AltSpecRev(s.Alternations), anchors[1]}
		return s.materializeFleet(specs, cm, machine)
	}
	return s.Build(suite), nil
}

// materializeFleet draws the fleet members from the environment's
// generation table and cycles them across the spec's slots, each slot
// queue repeating one benchmark — the shape both synthetic axes
// (alternation rate, antagonist contention) share.
func (s Spec) materializeFleet(specs []BenchSpec, cm exec.CostModel, machine *amp.Machine) (*Workload, error) {
	fleet, err := generated(specs, cm, machine)
	if err != nil {
		return nil, err
	}
	w := &Workload{Slots: make([][]*Benchmark, s.Slots)}
	for i := range w.Slots {
		b := fleet[i%len(fleet)]
		q := make([]*Benchmark, s.QueueLen)
		for j := range q {
			q[j] = b
		}
		w.Slots[i] = q
	}
	return w, nil
}
