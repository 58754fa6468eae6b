package sim

import (
	"fmt"
	"strings"

	"phasetune/internal/online"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
)

// Policy names one placement policy — the axis of the paper's central
// comparison (§V). It is the one policy vocabulary: Session runs, the
// experiment columns, and the command-line tools all select a policy by
// this value and its name, and Lower turns it into the wire-level run Mode
// plus the few configuration fields a policy owns.
type Policy int

const (
	// PolicyNone runs unmodified binaries under the stock
	// asymmetry-unaware scheduler (the baseline).
	PolicyNone Policy = iota
	// PolicyStatic runs instrumented binaries with the paper's static
	// phase marks and the Algorithm 2 runtime.
	PolicyStatic
	// PolicyStaticSpill is PolicyStatic with capacity-aware spill
	// arbitration through the shared placement engine (tuning.Config.Spill)
	// — the ablation that fixes pin-to-type herding on memory-dominant
	// mixes.
	PolicyStaticSpill
	// PolicyDynamicGreedy runs unmodified binaries under the online phase
	// detector, granting fast-core slots by smoothed IPC rank.
	PolicyDynamicGreedy
	// PolicyDynamicProbe runs unmodified binaries under the online phase
	// detector, measuring each detected phase on every core type and
	// fixing its placement with Algorithm 2.
	PolicyDynamicProbe
	// PolicyHybrid runs instrumented binaries under the marks+windows
	// hybrid: marks define phase boundaries, monitor windows keep the
	// per-phase IPC estimates fresh, and the shared placement engine
	// re-arbitrates at boundaries (the paper's §VI-B feedback mechanism
	// grown into a full policy).
	PolicyHybrid
	// PolicyHybridDamped is PolicyHybrid with re-decision drift damping at
	// online.DefaultDrift: refreshed estimates re-enter Algorithm 2 only
	// when the per-phase means moved by more than ε.
	PolicyHybridDamped
	// PolicyOracle runs instrumented binaries with perfect-knowledge
	// placement — zero monitoring, zero misprediction; the upper bound the
	// other policies chase.
	PolicyOracle
	// PolicyOverhead runs instrumented binaries in all-cores mode: marks
	// execute but never move a process (Fig. 4's time-overhead
	// methodology, §IV-B2).
	PolicyOverhead
)

// policies is the one policy table: each policy's name, the run mode it
// lowers to, whether the shared engine's capacity arbitration places it
// (engine), whether it spills (tuning.Config.Spill), and — for the
// detector modes — the online reassignment rule and drift threshold.
var policies = [...]struct {
	name   string
	mode   Mode
	engine bool
	spill  bool
	online online.PolicyKind
	drift  float64
}{
	PolicyNone:          {name: "none", mode: Baseline},
	PolicyStatic:        {name: "static", mode: Tuned},
	PolicyStaticSpill:   {name: "static/spill", mode: Tuned, engine: true, spill: true},
	PolicyDynamicGreedy: {name: "dynamic/greedy", mode: Dynamic, online: online.Greedy},
	PolicyDynamicProbe:  {name: "dynamic/probe", mode: Dynamic, engine: true, online: online.Probe},
	PolicyHybrid:        {name: "hybrid", mode: Hybrid, engine: true, online: online.Probe},
	PolicyHybridDamped:  {name: "hybrid/damped", mode: Hybrid, engine: true, online: online.Probe, drift: online.DefaultDrift},
	PolicyOracle:        {name: "oracle", mode: Oracle, engine: true},
	PolicyOverhead:      {name: "overhead", mode: Overhead},
}

// String names the policy; ParsePolicy inverts it.
func (p Policy) String() string {
	if p >= 0 && int(p) < len(policies) {
		return policies[p].name
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name. Names are exactly the String forms;
// there are no aliases.
func ParsePolicy(s string) (Policy, error) {
	names := make([]string, len(policies))
	for i, e := range policies {
		if e.name == s {
			return Policy(i), nil
		}
		names[i] = e.name
	}
	return 0, fmt.Errorf("unknown policy %q (want %s)", s, strings.Join(names, "|"))
}

// Mode returns the run mode the policy lowers to.
func (p Policy) Mode() Mode { return policies[p].mode }

// EngineBacked reports whether the policy's placements flow through the
// shared engine's capacity arbitration (place.Engine.Arbitrate) — the
// policies whose decisions contention pricing can change.
func (p Policy) EngineBacked() bool { return policies[p].engine }

// BestParams is the paper's best marking variant, Loop[45]: the technique
// instrumented policies run when the caller names none.
func BestParams() transition.Params {
	return transition.Params{Technique: transition.Loop, MinSize: 45, PropagateThroughUntyped: true}
}

// Lower sets the fields of a run the policy owns and returns its run mode.
// Zero params become BestParams for policies that run instrumented images;
// tcfg.Spill is set for static/spill and cleared otherwise; ocfg is zeroed
// for policies that run without the online detector, and otherwise gets
// the policy's reassignment rule and drift threshold. Every other field is
// the caller's and passes through unchanged.
func (p Policy) Lower(params *transition.Params, tcfg *tuning.Config, ocfg *online.Config) Mode {
	e := policies[p]
	if e.mode != Baseline && e.mode != Dynamic && *params == (transition.Params{}) {
		*params = BestParams()
	}
	tcfg.Spill = e.spill
	if e.mode == Dynamic || e.mode == Hybrid {
		ocfg.Policy, ocfg.Hybrid.Drift = e.online, e.drift
	} else {
		*ocfg = online.Config{}
	}
	return e.mode
}
