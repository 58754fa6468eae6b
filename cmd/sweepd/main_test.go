package main

import (
	"strings"
	"testing"

	"phasetune/internal/experiments"
)

// TestBuildCampaignResolvesRegistry checks that every registry entry with a
// wire grid is cut for the machine asked for, and that unknown names and
// entries without a wire grid fail listing the valid ones.
func TestBuildCampaignResolvesRegistry(t *testing.T) {
	names := experiments.Names(experiments.FabricCampaigns())
	for _, tc := range []struct {
		name     string
		machines []string
		campaign func(string) string
		want     string // error substring; "" = builds
	}{
		{"every campaign builds on every machine", []string{"quad", "tri", "hex"},
			func(n string) string { return n }, ""},
		{"unknown machine", []string{"bogus"},
			func(n string) string { return n }, `unknown machine "bogus"`},
		{"unknown campaign", []string{"quad"},
			func(string) string { return "nope" }, strings.Join(names, "|")},
		{"entry without a wire grid", []string{"quad"},
			func(string) string { return "fig3" }, `unknown campaign "fig3" (want ` + strings.Join(names, "|") + ")"},
	} {
		for _, name := range names {
			for _, machine := range tc.machines {
				o := coordOpts{campaign: tc.campaign(name), machine: machine, quick: true, slots: 2, duration: 10}
				camp, err := buildCampaign(o)
				if tc.want != "" {
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("%s: %s on %s: error %v, want %q", tc.name, o.campaign, machine, err, tc.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %s on %s: %v", tc.name, name, machine, err)
				}
				if len(camp.Specs) == 0 || !strings.HasPrefix(camp.Env.Machine.Name, machine) {
					t.Errorf("%s on %s: %d specs on machine %q", name, machine, len(camp.Specs), camp.Env.Machine.Name)
				}
			}
		}
	}
}
