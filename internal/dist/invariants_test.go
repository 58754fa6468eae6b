package dist_test

// FuzzRunInvariants checks every invariant the system advertises about a
// run on generated campaigns: a run is a pure function of its wire spec,
// so where its images come from, whether a tracer or a ledger watches it,
// and how the grid is scheduled never change its Result bytes. The seed
// corpus holds one tiny campaign per family, and plain `go test` runs it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/experiments"
	"phasetune/internal/serve"
	"phasetune/internal/sim"
	"phasetune/internal/trace"
	"phasetune/internal/workload"
)

// The harness budget. An input past any bound is skipped, never clamped:
// clamping would run a campaign other than the one the input names.
const (
	// maxSpecs bounds the campaign grid.
	maxSpecs = 4
	// maxCores bounds the machine.
	maxCores = 6
	// maxCoreCycles bounds each spec's duration as simulated core-cycles:
	// DurationSec × the summed clock of every core (the hex at 8 s).
	maxCoreCycles = 8 * 1.2e6
	// maxQueued bounds a closed spec's Slots and its Slots × QueueLen
	// (workload.Spec.Validate bounds each only at workload.MaxQueuedJobs).
	maxQueued = 64
	// maxArrivals bounds an open spec's expected arrivals, RatePerSec ×
	// HorizonSec (or MaxJobs when lower).
	maxArrivals = 64
)

// withinBudget reports whether every spec of a validated campaign fits the
// harness budget.
func withinBudget(camp dist.Campaign) bool {
	m := camp.Env.Machine
	if len(camp.Specs) == 0 || len(camp.Specs) > maxSpecs || len(m.Cores) > maxCores {
		return false
	}
	var hz float64
	for _, c := range m.Cores {
		hz += m.Types[c.Type].CyclesPerSec
	}
	for _, sp := range camp.Specs {
		if !(sp.DurationSec*hz <= maxCoreCycles) {
			return false
		}
		if a := sp.Queues.Arrivals; a != nil {
			n := a.RatePerSec * a.HorizonSec
			if a.MaxJobs > 0 && float64(a.MaxJobs) < n {
				n = float64(a.MaxJobs)
			}
			if !(n <= maxArrivals) {
				return false
			}
		} else if q := sp.Queues; q.Slots > maxQueued || (q.Slots > 0 && q.QueueLen > maxQueued/q.Slots) {
			return false
		}
	}
	return true
}

// cut keeps the specs at the given indices of a campaign's grid, after
// keep (nil keeps every spec) has filtered it, and sets the ledger.
func cut(camp dist.Campaign, ledger bool, keep func(dist.Spec) bool, idx ...int) dist.Campaign {
	var kept []dist.Spec
	for _, sp := range camp.Specs {
		if keep == nil || keep(sp) {
			kept = append(kept, sp)
		}
	}
	out := dist.Campaign{Env: camp.Env}
	out.Env.Ledger = ledger
	for _, i := range idx {
		out.Specs = append(out.Specs, kept[i])
	}
	return out
}

// invariantCampaigns is the seed corpus: one tiny campaign per family, in a
// ledger-on and a ledger-off variant over different specs of its grid.
func invariantCampaigns(f *testing.F) []dist.Campaign {
	f.Helper()
	cfg, err := experiments.Default()
	if err != nil {
		f.Fatal(err)
	}
	cfg = cfg.Scale(4, 3, []uint64{1})
	cfg.QueueLen = 3
	quad, tri, hex := amp.Quad2Fast2Slow(), amp.ThreeCore2Fast1Slow(), amp.Hex2Big2Medium2Little()
	var camps []dist.Campaign
	// Showdown grids list none, static, static/spill, dynamic/greedy,
	// dynamic/probe, hybrid, hybrid/damped and oracle.
	for _, c := range []struct {
		m       *amp.Machine
		on, off []int
	}{
		{quad, []int{1, 4, 7}, []int{0, 3, 6}},
		{tri, []int{2, 5, 6}, []int{1, 4, 7}},
		{hex, []int{0, 2, 5}, []int{3, 6, 7}},
	} {
		camp := experiments.ShowdownCampaign(cfg, c.m)
		camps = append(camps, cut(camp, true, nil, c.on...), cut(camp, false, nil, c.off...))
	}
	window := experiments.WindowCampaign(cfg, quad)
	last := len(window.Specs) - 1
	camps = append(camps, cut(window, true, nil, 0, 3, last), cut(window, false, nil, 1, 2, last-1))
	// Breakdown grids hold per cells for each alternation count in turn:
	// every pick is a different count and a different cell.
	breakdown := experiments.BreakdownCampaign(cfg, quad)
	per := len(breakdown.Specs) / len(workload.DefaultAltAlternations())
	camps = append(camps,
		cut(breakdown, true, nil, 1, 2*per+3, len(breakdown.Specs)-1),
		cut(breakdown, false, nil, 0, 3*per+2, 4*per+4))
	overload := func(m *amp.Machine) func(dist.Spec) bool {
		rate := serve.OfferedRate(m, 1.25)
		return func(sp dist.Spec) bool { return sp.Queues.Arrivals.RatePerSec == rate }
	}
	// Serving grids list none, static, dynamic/probe, hybrid and oracle.
	camps = append(camps,
		cut(experiments.ServingCampaign(cfg, hex), true, overload(hex), 0, 2, 3),
		cut(experiments.ServingCampaign(cfg, quad), false, overload(quad), 1, 3, 4))
	// The priced contention cells are static/spill, dynamic/probe, hybrid
	// and oracle.
	priced := func(sp dist.Spec) bool { return sp.Placement.Contention != nil }
	contention := experiments.ContentionCampaign(cfg, hex)
	camps = append(camps, cut(contention, true, priced, 0, 2, 3), cut(contention, false, priced, 1, 2, 3))
	// The hex with a big and a little core traded between L2 groups: each
	// core type then runs under two cache sizes, which every cost table
	// must keep apart. Three seeds draw different queues, so an image
	// first runs beside different cache groups: static, static/spill and
	// hybrid, each on its own seed.
	split := amp.Hex2Big2Medium2Little()
	split.Name = "hex-split-l2"
	split.Cores[1].L2, split.Cores[4].L2 = 2, 0
	split.L2s[0].Cores, split.L2s[2].Cores = []int{0, 4}, []int{1, 5}
	seeds := cfg.Scale(cfg.Slots, cfg.DurationSec, []uint64{1, 2, 3})
	camps = append(camps, cut(experiments.ShowdownCampaign(seeds, split), true, nil, 3, 7, 17))
	return camps
}

func FuzzRunInvariants(f *testing.F) {
	for _, camp := range invariantCampaigns(f) {
		if !withinBudget(camp) {
			f.Fatalf("seed campaign past the harness budget: %s", mustMarshal(f, camp))
		}
		f.Add(mustMarshal(f, camp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		t.Parallel() // the seeds share nothing, so plain go test runs them side by side
		var camp dist.Campaign
		if err := json.Unmarshal(data, &camp); err != nil {
			return
		}
		roundTrip[dist.Campaign](t, data)
		if camp.Env.Validate() != nil || !withinBudget(camp) {
			return
		}
		suite, err := camp.Env.Suite()
		if err != nil {
			return
		}
		cfgs := make([]sim.RunConfig, len(camp.Specs))
		for i, sp := range camp.Specs {
			if cfgs[i], err = camp.Env.RunConfig(sp, suite, nil); err != nil {
				return
			}
		}
		checkRunInvariants(t, camp, suite, cfgs)
	})
}

// checkRunInvariants runs each lowered spec of a campaign several ways and
// requires one set of Result bytes from all of them:
//   - sequentially on private images, traced;
//   - sequentially through one shared image cache, traced;
//   - on a 2-worker sim.Sweep over that cache, untraced;
//   - on a 2-worker dist.RunLocal fabric, untraced.
//
// The two traced runs must also export the same trace, in which no core's
// bursts overlap. A ledgered run must conserve its cycles and, stripped of
// its ledger, give the ledger-off run's bytes.
func checkRunInvariants(t *testing.T, camp dist.Campaign, suite []*workload.Benchmark, cfgs []sim.RunConfig) {
	want := make([][]byte, len(cfgs))
	traces := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Trace = trace.New()
		res, err := sim.Run(cfg)
		if err != nil {
			// A spec that fails to run is not a run to check, unless the
			// ledger alone makes it fail: an observer must not change a
			// run's outcome, and a burst the ledger cannot tile is an error.
			cfg.Ledger, cfg.Trace = false, nil
			if _, offErr := sim.Run(cfg); camp.Env.Ledger && offErr == nil {
				t.Fatalf("spec %d: ledgered run fails where the ledger-off run does not: %v", i, err)
			}
			return
		}
		want[i] = encodeResult(t, res)
		traces[i] = traceBytes(t, cfg.Trace)
		checkObservers(t, camp, i, res, traces[i])
	}

	cache := sim.NewImageCache()
	for i, cfg := range cfgs {
		cfg.Cache = cache
		cfg.Trace = trace.New()
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("spec %d: shared-cache run: %v", i, err)
		}
		if !bytes.Equal(want[i], encodeResult(t, res)) {
			t.Errorf("spec %d: shared-cache result differs from the private-image run", i)
		}
		if !bytes.Equal(traces[i], traceBytes(t, cfg.Trace)) {
			t.Errorf("spec %d: shared-cache trace differs from the private-image trace", i)
		}
	}

	swept, err := sim.Sweep(context.Background(), cfgs, sim.SweepOptions{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	fabric, err := dist.RunLocal(context.Background(), camp, dist.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatalf("fabric: %v", err)
	}
	for i := range cfgs {
		if !bytes.Equal(want[i], encodeResult(t, swept[i])) {
			t.Errorf("spec %d: untraced 2-worker sweep differs from the traced sequential run", i)
		}
		if !bytes.Equal(want[i], encodeResult(t, fabric[i])) {
			t.Errorf("spec %d: 2-worker fabric differs from the sequential run", i)
		}
	}

	if !camp.Env.Ledger {
		return
	}
	off := camp.Env
	off.Ledger = false
	for i, sp := range camp.Specs {
		cfg, err := off.RunConfig(sp, suite, nil)
		if err != nil {
			t.Fatalf("spec %d: ledger-off lowering: %v", i, err)
		}
		plain, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("spec %d: ledger-off run: %v", i, err)
		}
		res, err := dist.DecodeResult(want[i])
		if err != nil {
			t.Fatal(err)
		}
		res.Ledger = nil
		if !bytes.Equal(encodeResult(t, plain), encodeResult(t, res)) {
			t.Errorf("spec %d: ledgered result without its ledger differs from the ledger-off run", i)
		}
	}
}

// checkObservers checks one run's observers: the ledger and the cache
// residency map are present exactly when asked for, the ledger conserves
// cycles, and the trace holds events but no overlapping bursts on a core.
func checkObservers(t *testing.T, camp dist.Campaign, i int, res *sim.Result, traceJSON []byte) {
	if (res.CacheStats != nil) != camp.Specs[i].CacheStats {
		t.Errorf("spec %d: cache stats %v, requested %v", i, res.CacheStats != nil, camp.Specs[i].CacheStats)
	}
	if l := res.Ledger; l == nil {
		if camp.Env.Ledger {
			t.Errorf("spec %d: ledger requested but absent", i)
		} else if bytes.Contains(encodeResult(t, res), []byte(`"ledger"`)) {
			t.Errorf(`spec %d: ledger-off result encodes a "ledger" key`, i)
		}
	} else {
		if !camp.Env.Ledger {
			t.Errorf("spec %d: ledger present but not requested", i)
		}
		if err := l.Verify(); err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
		if got, want := l.Total.Total(), int64(l.Cores)*l.HorizonPs; got != want {
			t.Errorf("spec %d: ledger total %d ps, want cores × horizon = %d ps", i, got, want)
		}
		if res.TotalInstructions > 0 && l.Total.UsefulPs <= 0 {
			t.Errorf("spec %d: %d instructions retired but no useful time", i, res.TotalInstructions)
		}
	}
	if err := checkBursts(traceJSON); err != nil {
		t.Errorf("spec %d: %v", i, err)
	}
}

// checkBursts parses an exported trace and reports an empty trace or two
// bursts of one core that overlap in simulated time.
func checkBursts(traceJSON []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string      `json:"name"`
			Ts   json.Number `json:"ts"`
			Dur  json.Number `json:"dur"`
			Pid  int         `json:"pid"`
			Tid  int         `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		return fmt.Errorf("trace does not decode: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return errors.New("trace holds no events")
	}
	// Stamps are microseconds with exactly six decimals: whole ps.
	ps := func(n json.Number) int64 {
		whole, frac, _ := strings.Cut(n.String(), ".")
		v, _ := strconv.ParseInt(whole+frac, 10, 64)
		return v
	}
	type span struct{ start, end int64 }
	bursts := map[int][]span{}
	for _, e := range doc.TraceEvents {
		if e.Name == "burst" && e.Pid == trace.PidMachine {
			start := ps(e.Ts)
			bursts[e.Tid] = append(bursts[e.Tid], span{start, start + ps(e.Dur)})
		}
	}
	for tid, spans := range bursts {
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		for j := 1; j < len(spans); j++ {
			if spans[j].start < spans[j-1].end {
				return fmt.Errorf("core %d bursts overlap at %d ps", tid-trace.CoreTid(0), spans[j].start)
			}
		}
	}
	return nil
}

func encodeResult(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	blob, err := dist.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func traceBytes(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
