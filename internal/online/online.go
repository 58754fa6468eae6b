// Package online is the dynamic competitor to the paper's static phase
// marks: a runtime phase-detection subsystem that needs no binary analysis
// and no instrumentation.
//
// The paper (§I, §V) argues that static marks beat purely dynamic phase
// detection on asymmetric multicores because dynamic schemes pay continuous
// monitoring overhead and mispredict at phase boundaries — but offers no
// measured dynamic baseline. This package supplies one, modeled on the two
// standard designs from the literature:
//
//   - interval signatures classified online (Jooya & Analoui, "Classifying
//     Application Phases in Asymmetric Chip Multiprocessors"): per-process
//     performance counters are read in fixed instruction windows; each
//     window's signature (IPC plus an instruction-mix component) is
//     classified with leader-follower threshold clustering into phases;
//   - runtime-guided big/LITTLE placement (Saez et al., "Enabling
//     performance portability of data-parallel OpenMP applications on
//     asymmetric multicore processors"): per-phase speedup estimates drive
//     either a greedy IPC ranking over fast-core slots or a sampling probe
//     that measures each phase on every core type and then applies the
//     paper's own Algorithm 2 (place.Engine.Decide) — mark-free.
//
// The Manager hangs off the kernel's periodic TaskMonitor hook, draws
// counter event sets from the same bounded perfcnt.Hardware pool as the
// static runtime (so counter contention stays modeled), charges its
// per-window sampling work to the monitored task, and reassigns tasks with
// the kernel-side SetAffinity — every cost the paper attributes to dynamic
// detection is simulated, which is what makes the static-vs-dynamic
// showdown (internal/experiments.Showdown) a fair reproduction of the
// paper's headline claim. Where dynamic detection breaks — the
// alternation-rate × window-size plane mapped quantitatively — is the
// misprediction-cost breakdown (internal/experiments.Breakdown).
//
// The package also houses the two mark-aware runtimes that bracket the
// detector: Hybrid (marks give phase boundaries, windows keep refreshing
// its per-phase place.Table; HybridConfig.Drift damps its re-decisions to
// estimate movements above an ε threshold) and the perfect-knowledge
// oracle (OracleDecisions precomputed, OracleHook at marks), the
// showdown's upper bound. All three turn evidence into masks through the
// run's one place.Engine, which each takes in its constructor:
// Engine.Decide fixes a decision, Engine.Place or Engine.Arbitrate
// arbitrates it, and a decision carries the image's
// exec.Image.MemSignature as is.
package online

import (
	"fmt"

	"phasetune/internal/amp"
)

// PolicyKind selects the dynamic reassignment policy.
type PolicyKind int

const (
	// Greedy ranks runnable tasks by smoothed IPC and grants the fast-core
	// share to the highest ranks. In a frequency-asymmetric machine IPC
	// orders fast-core marginal utility: stall-free code keeps its IPC on
	// the fast clock and gains the full frequency ratio, DRAM-bound code
	// gains almost nothing. The true per-phase IPC ratio across core types
	// is unobservable from a single placement (the miss profile hides
	// behind two counters), so Greedy is the heuristic estimator; Probe
	// measures the ratio instead.
	Greedy PolicyKind = iota
	// Probe steers each newly detected phase across every core type,
	// measures its windowed IPC there, and then fixes the phase's
	// placement with the paper's Algorithm 2 (place.Engine.Decide) — the
	// mark-free temporal analogue of the static runtime's
	// representative-section sampling.
	Probe
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case Probe:
		return "probe"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config parameterizes the online detector, which ticks on the kernel's
// fixed monitor period (osched.MonitorIntervalSec). Its Algorithm 2
// threshold δ is not part of it: the detector and the hybrid take the
// run's tuning δ (tuning.Config.Delta), as the oracle does, so every
// policy of a run decides at the same δ.
type Config struct {
	// Policy selects the reassignment policy.
	Policy PolicyKind
	// WindowInstrs is the detection window: a signature is produced every
	// time a monitored process retires this many instructions.
	WindowInstrs uint64
	// Hybrid holds the knobs only the marks+windows hybrid runtime reads;
	// the window detector ignores them.
	Hybrid HybridConfig
}

// The detector's fixed design choices.
const (
	// sampleCycles is the per-window monitoring overhead charged to the
	// sampled task (counter reads, signature computation, classification).
	sampleCycles = 25
	// classifyEps is the leader-follower distance threshold: a window
	// signature farther than this from every known phase centroid founds a
	// new phase.
	classifyEps = 0.25
	// maxPhases bounds the phases tracked per process; once reached,
	// outlier windows join the nearest phase instead of founding new ones.
	maxPhases = 6
	// ipcSmoothing is the EWMA weight of the newest window in the greedy
	// policy's per-task IPC estimate.
	ipcSmoothing = 0.4
)

// HybridConfig parameterizes the marks+windows hybrid runtime beyond the
// shared detector knobs.
type HybridConfig struct {
	// Drift is the re-decision damping threshold ε: once a phase's
	// placement is fixed, later windows refresh its per-(phase, core-type)
	// IPC means, but the hybrid re-enters the engine's Decide only when the
	// means have moved more than this relative fraction since the decision
	// (place.Table.Drift). Zero — the default — re-decides on every
	// accepted window, reproducing the undamped hybrid exactly;
	// DefaultDrift is the measured knee of the switch-volume-vs-throughput
	// trade (the showdown's hybrid/damped column).
	Drift float64 `json:"drift,omitempty"`
}

// DefaultDrift is the damped hybrid's operating point: 5% relative
// movement of a phase's IPC means before its placement is re-decided —
// comfortably above per-window sampling noise (branch-variant mix, mark
// payloads; cf. place's 3% tie epsilon) yet far below the tens-of-percent
// shifts a real behavior change produces.
const DefaultDrift = 0.05

// DefaultConfig returns the operating point used by the showdown
// experiments: windows of 8000 instructions (at the 0.1 s monitor tick a
// loaded task closes one every tick or two).
func DefaultConfig() Config {
	return Config{
		Policy:       Probe,
		WindowInstrs: 8000,
	}
}

// Normalized fills zero fields from DefaultConfig (the form every consumer
// of a Config should operate on).
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.WindowInstrs == 0 {
		c.WindowInstrs = d.WindowInstrs
	}
	return c
}

// Signature is one detection window's measurement: the runtime analogue of
// the static analysis's per-block feature vector.
type Signature struct {
	// IPC is instructions per cycle over the window.
	IPC float64
	// MemFrac is the fraction of retired instructions referencing memory.
	MemFrac float64
}

// Stats aggregates what the online runtime did during a run — the
// monitoring overhead and switch counts the showdown table reports against
// the static technique's.
type Stats struct {
	// Windows counts accepted detection windows.
	Windows uint64
	// Discarded counts windows dropped because a migration landed mid-window
	// (their IPC would blend two core types) or the cycle delta was empty.
	Discarded uint64
	// ChargedCycles is the total monitoring overhead charged to tasks.
	ChargedCycles uint64
	// Switches counts reassignments that changed a task's affinity mask.
	Switches int
	// Phases counts phase clusters founded across all tasks (hybrid runs:
	// distinct mark-declared phase types entered).
	Phases int
	// Decisions counts placements fixed via Algorithm 2.
	Decisions int
	// Refreshes counts hybrid decision refreshes after the first fix:
	// monitor windows keep updating the per-phase IPC estimates, and each
	// refreshed estimate re-runs Algorithm 2 over current evidence.
	Refreshes int
	// Damped counts hybrid re-decisions suppressed by the drift threshold
	// (HybridConfig.Drift): the window was accepted and the estimate
	// updated, but the means had moved ≤ ε since the standing decision, so
	// Algorithm 2 was not re-entered. Always 0 when Drift is 0.
	Damped int
}

// ipcStat is a running per-core-type IPC mean.
type ipcStat struct {
	mean float64
	n    int
}

// phaseCluster is one leader-follower centroid: the running mean signature
// of a detected phase, with IPC kept per core type (the same phase shows
// different IPC on different core types — that asymmetry is the signal, so
// it must not smear the centroid).
type phaseCluster struct {
	memFrac float64
	ipc     []ipcStat // indexed by core type
	n       int
}

// Classifier assigns window signatures to phases with leader-follower
// threshold clustering: a window joins the nearest centroid within eps, or
// founds a new phase. Centroids update as running means.
type Classifier struct {
	eps      float64
	max      int
	numTypes int
	clusters []*phaseCluster
}

// NewClassifier builds a classifier for a machine with numTypes core types.
func NewClassifier(eps float64, maxPhases, numTypes int) *Classifier {
	return &Classifier{eps: eps, max: maxPhases, numTypes: numTypes}
}

// ipcWeight scales the IPC component of the signature distance relative to
// the mix component (mix is already in [0,1]; IPC distances are relative).
const ipcWeight = 0.5

// distance measures a signature against a centroid for a window observed on
// the given core type. The mix component always contributes; the IPC
// component only when the centroid has been observed on the same core type
// (cross-type IPC differences are asymmetry, not phase change).
func (c *phaseCluster) distance(sig Signature, coreType amp.CoreTypeID) float64 {
	d := sig.MemFrac - c.memFrac
	if d < 0 {
		d = -d
	}
	if st := c.ipc[coreType]; st.n > 0 {
		ref := st.mean
		if sig.IPC > ref {
			ref = sig.IPC
		}
		if ref > 0 {
			di := (sig.IPC - st.mean) / ref
			if di < 0 {
				di = -di
			}
			d += ipcWeight * di
		}
	}
	return d
}

// Classify assigns the window to a phase, updating centroids, and returns
// the phase index plus whether a new phase was founded.
func (cl *Classifier) Classify(sig Signature, coreType amp.CoreTypeID) (phase int, founded bool) {
	best, bestDist := -1, 0.0
	for i, c := range cl.clusters {
		if d := c.distance(sig, coreType); best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	if best == -1 || (bestDist > cl.eps && len(cl.clusters) < cl.max) {
		c := &phaseCluster{memFrac: sig.MemFrac, ipc: make([]ipcStat, cl.numTypes), n: 1}
		c.ipc[coreType] = ipcStat{mean: sig.IPC, n: 1}
		cl.clusters = append(cl.clusters, c)
		return len(cl.clusters) - 1, true
	}
	c := cl.clusters[best]
	c.n++
	c.memFrac += (sig.MemFrac - c.memFrac) / float64(c.n)
	st := &c.ipc[coreType]
	st.n++
	st.mean += (sig.IPC - st.mean) / float64(st.n)
	return best, false
}

// NumPhases returns how many phases have been founded.
func (cl *Classifier) NumPhases() int { return len(cl.clusters) }

// TypeIPC returns the running IPC mean and sample count of a phase on a
// core type.
func (cl *Classifier) TypeIPC(phase int, t amp.CoreTypeID) (mean float64, n int) {
	st := cl.clusters[phase].ipc[t]
	return st.mean, st.n
}
