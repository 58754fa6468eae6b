// Package dist is the distributed sweep fabric: it shards an experiment
// campaign — a grid of run specifications sharing one environment — across
// worker processes and merges the results deterministically.
//
// The design leans entirely on the property the sweep engine already
// guarantees: every run is a pure function of its RunConfig, and both the
// configuration and the result are plain data. The fabric therefore never
// moves programs, images, or simulator state between processes; it moves
// *recipes*. A Campaign carries the serialized environment (machine, cost
// model, counter pool, typing — EnvSpec) plus one wire Spec per run (workload
// construction parameters, mode, technique, tuning, online config, seed).
// A worker rebuilds the benchmark suite from the environment — suite
// generation is deterministic in (cost, machine), and the synthetic
// alternation-rate workloads of the breakdown map regenerate the same way
// (workload.Spec.Materialize) — executes its leased specs, and commits
// each result in a canonical encoding. Merging is then trivially
// deterministic: results are keyed by spec index, and any two successful
// executions of the same index commit identical bytes, so the coordinator
// can accept the first commit and reject duplicates without ever comparing
// payloads.
//
// The failure model is crash-stop workers with at-most-once commit per
// spec index: leases expire when a worker stops heartbeating, expired
// indices are re-dispatched, and a straggler that commits after its lease
// expired still wins if it commits first (its result is byte-identical to
// the re-dispatched worker's by construction). A run that fails
// deterministically aborts the whole campaign, mirroring sim.Sweep.
//
// Two transports serve the same protocol: LocalTransport calls the
// coordinator in-process (the whole fabric is unit-testable without
// sockets), and Client/NewHandler speak HTTP/JSON for real multi-process
// deployments (cmd/sweepd).
package dist

import (
	"encoding/json"
	"fmt"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/online"
	"phasetune/internal/osched"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// SpecVersion is the fabric wire-format version. Byte-identical merge only
// holds when every worker runs the same decision code as the coordinator,
// so the version is bumped whenever the wire form or run semantics change
// and checked at registration — a stale worker fails fast instead of
// committing divergent bytes. History: v1 was the PR-3 format (no
// placement engine); v2 added Spec.Placement and the hybrid mode; v3 added
// the alternation-rate workload axis (workload.Spec.Alternations) and the
// hybrid's drift-damping knob (online.HybridConfig.Drift), both of which
// change run results and result encodings (online.Stats.Damped); v4 added
// the open-system serving form (workload.Spec.Arrivals lowering to a
// stream run, the overcommit switch in the environment) and the
// overcommit fields in result encodings (sim.Result.PeakRunnable,
// OvercommitSlices); v5 added campaign-wide cycle accounting
// (EnvSpec.Ledger lowering to sim.RunConfig.Ledger) and the ledger
// rollup in result encodings (sim.Result.Ledger), which must merge
// byte-identically like every other Result field; v6 added contention
// pricing (place.Config.Contention inside Spec.Placement), the
// memory-antagonist fleet axis (workload.Spec.Fleet), and per-group
// cache residency stats (Spec.CacheStats lowering to
// sim.RunConfig.CacheStats, sim.Result.CacheStats in result encodings)
// — all omitempty, so specs and results not using them encode
// byte-identically to v5 payloads, but run semantics diverge whenever
// they are set, hence the bump; v7 dropped thirteen fixed runtime knobs
// (DESIGN.md §8): a v7 spec is its v6 form minus those keys, every Result
// is unchanged, and dynamic and hybrid specs need the monitor period; v8
// made the scheduler's periods, switch costs and overcommit switch osched
// constants and dropped tuning.Config.Mode and online.Config.Delta
// (DESIGN.md §7): a v8 campaign is its v7 form minus those ten keys,
// overcommit is on exactly for open specs, the detector and hybrid decide
// at Tuning.Delta, and every Result is unchanged; v9 dropped
// tuning.Config.MinSectionInstrs: the static tuner and the hybrid share
// one sample floor (perfcnt.MinSampleInstrs, 200 instructions, the value
// every campaign already sent), so a v9 spec is its v8 form minus that key
// and every Result is unchanged.
const SpecVersion = 9

// EnvSpec is the serialized session environment: everything a worker needs
// to rebuild the simulation stack that is shared by every run of a
// campaign. Per-run knobs travel in each Spec instead. All fields are
// plain data and JSON round-trips are exact (counters stay far below 2^53;
// floats use Go's shortest round-trip encoding).
type EnvSpec struct {
	// Version is the wire-format version (SpecVersion); mismatched peers
	// reject the campaign at validation.
	Version int `json:"version"`
	// Machine is the hardware description.
	Machine amp.Machine `json:"machine"`
	// Cost is the shared cost model.
	Cost exec.CostModel `json:"cost"`
	// Sched is the scheduler's counter pool (osched.Config); the periods
	// and switch costs are osched constants and never cross the wire.
	Sched osched.Config `json:"sched"`
	// Typing configures static block typing.
	Typing phase.Options `json:"typing"`
	// Ledger enables conserved cycle accounting on every run of the
	// campaign (sim.RunConfig.Ledger). Campaign-wide rather than per-spec:
	// attribution columns only mean something when every cell of a grid
	// carries them.
	Ledger bool `json:"ledger,omitempty"`
}

// Validate checks the environment is structurally sound, speaks this
// build's wire version, and has a machine the fixed scheduler timeslice
// advances (osched.Config.Validate).
func (e *EnvSpec) Validate() error {
	if e.Version != SpecVersion {
		return fmt.Errorf("dist: env: wire version %d, this build speaks %d", e.Version, SpecVersion)
	}
	if err := e.Machine.Validate(); err != nil {
		return fmt.Errorf("dist: env: %w", err)
	}
	if err := e.Sched.Validate(&e.Machine); err != nil {
		return fmt.Errorf("dist: env: %w", err)
	}
	return nil
}

// Suite rebuilds the benchmark suite for this environment. Suite
// generation is a pure function of (cost, machine), so every worker
// regenerates programs bit-identical to the coordinator's.
func (e *EnvSpec) Suite() ([]*workload.Benchmark, error) {
	m := e.Machine
	return workload.Suite(e.Cost, &m)
}

// Spec is one run of a campaign in wire form: sim.RunConfig minus the
// shared environment and minus anything process-local (built workloads,
// caches, hooks). The workload travels as its construction parameters
// (workload.Spec); together with an EnvSpec it lowers to a RunConfig.
type Spec struct {
	// Queues describes the workload by construction — a suite draw; the
	// synthetic alternation-rate axis when Queues.Alternations > 0; or the
	// open-system serving form when Queues.Arrivals is set (the worker
	// regenerates the alternator fleet, serving fleet, and arrival
	// schedule from the environment's cost model and machine exactly as it
	// regenerates the suite).
	Queues workload.Spec `json:"queues"`
	// DurationSec is the run length in simulated seconds.
	DurationSec float64 `json:"duration_sec"`
	// Mode is the run mode a placement policy lowered to
	// (sim.Policy.Lower), with Tuning and Online as that lowering set them.
	Mode sim.Mode `json:"mode"`
	// Params is the marking technique for instrumented modes.
	Params transition.Params `json:"params"`
	// Tuning configures the static-mark runtime.
	Tuning tuning.Config `json:"tuning"`
	// Online configures the dynamic detector (Mode == Dynamic or Hybrid).
	Online online.Config `json:"online"`
	// Placement configures the shared placement engine's arbitration
	// (engine-backed modes: Dynamic, Hybrid, Tuned with Tuning.Spill).
	Placement place.Config `json:"placement"`
	// TypingError injects clustering error (Fig. 7 methodology).
	TypingError float64 `json:"typing_error"`
	// Seed drives workload process seeds and error injection.
	Seed uint64 `json:"seed"`
	// CacheStats enables the kernel's per-cache-group residency map for
	// this run (sim.RunConfig.CacheStats; the rollup lands in
	// sim.Result.CacheStats and must merge byte-identically like every
	// other Result field). Per-spec rather than campaign-wide: only the
	// contention cells of a grid read it.
	CacheStats bool `json:"cache_stats,omitempty"`
}

// RunConfig lowers a wire spec onto the environment. The machine, cost,
// and scheduler are copied so the returned config is self-contained; suite
// must be the environment's suite (EnvSpec.Suite or an equal generation).
// Alternation-axis, fleet and serving specs regenerate their workload from
// (cost, machine) instead of the suite; materialization is the only step
// that can fail.
func (e EnvSpec) RunConfig(sp Spec, suite []*workload.Benchmark, cache *sim.ImageCache) (sim.RunConfig, error) {
	m := e.Machine
	cost := e.Cost
	sched := e.Sched
	cfg := sim.RunConfig{
		Machine: &m, Cost: &cost, Sched: &sched,
		DurationSec: sp.DurationSec,
		Mode:        sp.Mode,
		Params:      sp.Params,
		Tuning:      sp.Tuning,
		Online:      sp.Online,
		Placement:   sp.Placement,
		TypingOpts:  e.Typing,
		TypingError: sp.TypingError,
		Seed:        sp.Seed,
		Cache:       cache,
		Ledger:      e.Ledger,
		CacheStats:  sp.CacheStats,
	}
	var err error
	if sp.Queues.Arrivals != nil {
		// Open-system serving spec: the worker regenerates the serving
		// fleet and the arrival schedule from (cost, machine, spec, seed),
		// both pure functions, exactly as it regenerates the suite.
		cfg.Stream, err = sp.Queues.MaterializeOpen(e.Cost, cfg.Machine)
	} else {
		cfg.Workload, err = sp.Queues.Materialize(suite, e.Cost, cfg.Machine)
	}
	if err != nil {
		return sim.RunConfig{}, fmt.Errorf("dist: materialize workload: %w", err)
	}
	return cfg, nil
}

// Campaign is a complete distributable sweep: one environment plus the run
// grid. Results are always reported in grid order, regardless of how the
// fabric schedules the work.
type Campaign struct {
	// Env is the shared environment.
	Env EnvSpec `json:"env"`
	// Specs is the run grid.
	Specs []Spec `json:"specs"`
}

// EncodeResult canonically encodes a run result for commit. The encoding
// is deterministic (encoding/json sorts map keys) and lossless for every
// Result field, which is what makes "byte-identical" a meaningful
// cross-process contract: any two successful executions of the same spec
// commit the same bytes.
func EncodeResult(res *sim.Result) (json.RawMessage, error) {
	return json.Marshal(res)
}

// DecodeResult inverts EncodeResult.
func DecodeResult(raw json.RawMessage) (*sim.Result, error) {
	var r sim.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("dist: decode result: %w", err)
	}
	return &r, nil
}
