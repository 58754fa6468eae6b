package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"phasetune/internal/amp"
	"phasetune/internal/benchhist"
	"phasetune/internal/dist"
	"phasetune/internal/workload"
)

// Campaign is one entry of the registry: one -run target of cmd/experiments
// (a paper figure, table or check, or a campaign of this reproduction),
// whose driver's typed rows reduce to generic tables (Tables), plus the
// wire grid the fabric can serve (Build) where it has one. Everything
// downstream is generic over the registry: cmd/experiments prints every
// entry with benchhist.Render and records it as one `table` history entry,
// cmd/sweepd serves the entries with a Build, and benchjson -history
// redraws recorded tables with the same Render.
type Campaign struct {
	// Name is the registry key; Title heads the printed tables.
	Name, Title string
	// Build cuts the campaign's wire grid on one machine; nil for entries
	// the fabric does not serve.
	Build func(Config, *amp.Machine) dist.Campaign
	// Tables runs the entry on its default machines and reduces the typed
	// rows to the tables it prints.
	Tables func(Config, Axes) ([]benchhist.Table, error)
}

// Axes are the breakdown map's flag-selected axes (nil = the defaults);
// no other campaign has swept axes chosen on the command line.
type Axes struct {
	Alts    []int
	Windows []uint64
}

// registry is every entry, in -run all order.
var registry = []Campaign{
	{"fig3", "Fig. 3 — space overhead per technique (paper: best Loop[45] < 4%)", nil, fig3Tables},
	{"fig4", "Fig. 4 — time overhead, all-cores mode (paper: as low as 0.14%)", nil, fig4Tables},
	{"table1", fmt.Sprintf("Table 1 — switches per benchmark, Loop[45] (paper values scaled by 1/%d)", workload.ScaleDivisor),
		nil, table1Tables},
	{"fig5", "Fig. 5 — average cycles per core switch, log scale", nil, fig5Tables},
	{"fig6", "Fig. 6 — throughput vs IPC threshold, BB[15,0] (paper: optimum between extremes)", nil, fig6Tables},
	{"fig7", "Fig. 7 — throughput vs clustering error, BB[15,0] (paper: robust to 20%)", nil, fig7Tables},
	{"grid", "Table 2 — fairness vs stock Linux, % decrease (paper best Loop[45]: 12.04/20.41/35.95)",
		TechniqueCampaign, gridTables},
	{"fig8", "Fig. 8 — speedup vs fairness trade-off (avg time vs max stretch)", nil, fig8Tables},
	{"switchcost", "§IV-B3 — core switch cost (paper: ~1000 cycles)", nil, switchCostTables},
	{"typing", "§II-A3 — static typing accuracy (paper: ~15% misclassified)", nil, typingTables},
	{"threecore", "§VII — 3-core (2 fast, 1 slow) machine (paper: ~32% speedup)", nil, threeCoreTables},
	{"showdown", "§V showdown — static marks vs dynamic online detection vs oracle (paper's central claim)",
		ShowdownCampaign, showdownTables},
	{"window", "Window-size sweep — online WindowInstrs vs throughput and switches (dynamic Fig. 6 analogue)",
		WindowCampaign, windowTables},
	{"breakdown", "Misprediction-cost breakdown map — alternation rate × window size (§V, quantitative)",
		BreakdownCampaign, breakdownTables},
	{"serving", "Open-system serving — sojourn-time tail by offered load × placement policy",
		ServingCampaign, servingTables},
	{"contention", "Shared-cache contention — antagonist herding vs contention-priced placement",
		ContentionCampaign, contentionTables},
	{"ablations", "Ablations — one design choice changed per table, first pin to core type vs single core",
		nil, ablationTables},
}

// Campaigns returns the registry in order.
func Campaigns() []Campaign { return slices.Clone(registry) }

// FabricCampaigns returns the entries with a wire grid, in order.
func FabricCampaigns() []Campaign {
	return slices.DeleteFunc(Campaigns(), func(c Campaign) bool { return c.Build == nil })
}

// Names returns the entries' names.
func Names(cs []Campaign) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// Lookup resolves a name among cs; the error lists their names.
func Lookup(cs []Campaign, name string) (Campaign, error) {
	for _, c := range cs {
		if c.Name == name {
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("unknown campaign %q (want %s)", name, strings.Join(Names(cs), "|"))
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

// tabulate reduces a driver's rows to one table: t's columns and chart,
// one row per element with the cells row returns. A driver error passes
// through.
func tabulate[R any](rows []R, err error, t benchhist.Table, row func(R) []any) ([]benchhist.Table, error) {
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(row(r)...)
	}
	return []benchhist.Table{t}, nil
}

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
