package sim

import (
	"strings"
	"testing"

	"phasetune/internal/online"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
)

func allPolicies() []Policy {
	var ps []Policy
	for p := PolicyNone; p <= PolicyOverhead; p++ {
		ps = append(ps, p)
	}
	return ps
}

func TestPolicyNamesRoundTrip(t *testing.T) {
	want := []string{"none", "static", "static/spill", "dynamic/greedy", "dynamic/probe",
		"hybrid", "hybrid/damped", "oracle", "overhead"}
	for i, p := range allPolicies() {
		if p.String() != want[i] {
			t.Errorf("policy %d named %q, want %q", i, p, want[i])
		}
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p, got, err, p)
		}
	}
}

func TestParsePolicyRejectsUnknownAndRemovedAliases(t *testing.T) {
	for _, name := range []string{"", "bogus", "baseline", "tuned", "online", "dynamic", "Static"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
			continue
		}
		for _, p := range allPolicies() {
			if !strings.Contains(err.Error(), p.String()) {
				t.Errorf("ParsePolicy(%q) error %q does not list %q", name, err, p)
			}
		}
	}
}

// TestPolicyLowerOwnsOnlyItsFields lowers every policy onto configs whose
// fields are all set and checks that exactly the policy-owned fields move.
func TestPolicyLowerOwnsOnlyItsFields(t *testing.T) {
	loop30 := transition.Params{Technique: transition.Loop, MinSize: 30}
	for _, p := range allPolicies() {
		for _, given := range []transition.Params{{}, loop30} {
			params := given
			tcfg := tuning.DefaultConfig()
			tcfg.Spill = true
			tcfg.Delta = 0.11
			ocfg := online.DefaultConfig()
			ocfg.WindowInstrs = 1234
			ocfg.Hybrid.Drift = 0.5
			mode := p.Lower(&params, &tcfg, &ocfg)

			if mode != p.Mode() {
				t.Errorf("%s: Lower mode %s, Mode() %s", p, mode, p.Mode())
			}
			instrumented := mode != Baseline && mode != Dynamic
			switch {
			case given != (transition.Params{}) && params != given:
				t.Errorf("%s: explicit params overwritten with %+v", p, params)
			case given == (transition.Params{}) && instrumented && params != BestParams():
				t.Errorf("%s: zero params lowered to %+v, want BestParams", p, params)
			case given == (transition.Params{}) && !instrumented && params != given:
				t.Errorf("%s: uninstrumented policy set params %+v", p, params)
			}
			if tcfg.Spill != (p == PolicyStaticSpill) {
				t.Errorf("%s: Spill = %v", p, tcfg.Spill)
			}
			if tcfg.Delta != 0.11 {
				t.Errorf("%s: tuning delta changed to %g", p, tcfg.Delta)
			}

			detector := mode == Dynamic || mode == Hybrid
			if !detector {
				if ocfg != (online.Config{}) {
					t.Errorf("%s: detector config not zeroed: %+v", p, ocfg)
				}
				continue
			}
			if ocfg.WindowInstrs != 1234 {
				t.Errorf("%s: window changed to %d", p, ocfg.WindowInstrs)
			}
			wantKind := online.Probe
			if p == PolicyDynamicGreedy {
				wantKind = online.Greedy
			}
			if ocfg.Policy != wantKind {
				t.Errorf("%s: online policy %s, want %s", p, ocfg.Policy, wantKind)
			}
			wantDrift := 0.0
			if p == PolicyHybridDamped {
				wantDrift = online.DefaultDrift
			}
			if ocfg.Hybrid.Drift != wantDrift {
				t.Errorf("%s: drift %g, want %g", p, ocfg.Hybrid.Drift, wantDrift)
			}
		}
	}
}
