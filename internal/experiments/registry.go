package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
)

// Campaign is one entry of the campaign registry: a grid the fabric can
// serve (Build) plus a driver whose typed rows reduce to generic tables
// (Tables). Everything downstream is generic over the registry:
// cmd/experiments prints every campaign with benchhist.Render and records
// it as one `table` history entry, cmd/sweepd resolves -campaign here, and
// benchjson -history redraws recorded tables with the same Render.
type Campaign struct {
	// Name is the registry key; Title heads the printed tables.
	Name, Title string
	// Build cuts the campaign's wire grid on one machine.
	Build func(Config, *amp.Machine) dist.Campaign
	// Tables runs the campaign on its default machines and reduces the
	// typed rows to the tables it prints.
	Tables func(Config, Axes) ([]benchhist.Table, error)
}

// Axes are the breakdown map's flag-selected axes (nil = the defaults);
// no other campaign has swept axes chosen on the command line.
type Axes struct {
	Alts    []int
	Windows []uint64
}

// registry is every campaign, in the order tools list them.
var registry = []Campaign{
	{"showdown", "§V showdown — static marks vs dynamic online detection vs oracle (paper's central claim)",
		ShowdownCampaign, showdownTables},
	{"grid", "Table 2 — fairness vs stock Linux, % decrease (paper best Loop[45]: 12.04/20.41/35.95)",
		TechniqueCampaign, gridTables},
	{"window", "Window-size sweep — online WindowInstrs vs throughput and switches (dynamic Fig. 6 analogue)",
		WindowCampaign, windowTables},
	{"breakdown", "Misprediction-cost breakdown map — alternation rate × window size (§V, quantitative)",
		BreakdownCampaign, breakdownTables},
	{"serving", "Open-system serving — sojourn-time tail by offered load × placement policy",
		ServingCampaign, servingTables},
	{"contention", "Shared-cache contention — antagonist herding vs contention-priced placement",
		ContentionCampaign, contentionTables},
}

// CampaignNames returns the registry names in order.
func CampaignNames() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	return names
}

// LookupCampaign resolves a registry name; the error lists every name.
func LookupCampaign(name string) (Campaign, error) {
	for _, c := range registry {
		if c.Name == name {
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("unknown campaign %q (want %s)", name, strings.Join(CampaignNames(), "|"))
}

// FlagConfig assembles the configuration the command-line tools cut
// campaigns from: Default, shrunk by quick to 8 slots, 200 s and seed 5,
// then slots, durationSec and the comma-separated seeds where set.
func FlagConfig(quick bool, slots int, durationSec float64, seeds string) (Config, error) {
	cfg, err := Default()
	if err != nil {
		return cfg, err
	}
	if quick {
		cfg = cfg.Scale(8, 200, []uint64{5})
	}
	if slots > 0 {
		cfg.Slots = slots
	}
	if durationSec > 0 {
		cfg.DurationSec = durationSec
	}
	if seeds != "" {
		cfg.Seeds = nil
		for _, s := range strings.Split(seeds, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad seed %q: %w", s, err)
			}
			cfg.Seeds = append(cfg.Seeds, v)
		}
	}
	return cfg, nil
}

// col abbreviates benchhist.Col for the campaigns' column lists.
var col = benchhist.Col

// runs splits rows into maximal runs of equal key, in order: the
// per-machine (or per-load) groups a campaign charts one by one.
func runs[R any](rows []R, key func(R) string) [][]R {
	var out [][]R
	for i, r := range rows {
		if i == 0 || key(r) != key(rows[i-1]) {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}
