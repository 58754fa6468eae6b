package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// tiny is the self-test's grid size: one machine, 4 slots, 20 simulated
// seconds, run on one seed.
var (
	tiny       = size{machines: 1, slots: 4, durationSec: 20}
	tinyInputs = inputs{seeds: []uint64{5}}
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the part of BENCHMARK.json the command must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// command's workloads and metrics, with the same units, directions and
// bounds, under well-formed names.
func TestBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's per-layer metrics")
	}
	for _, m := range append(append([]metric(nil), f.EndToEnd...), f.PerLayer...) {
		names = append(names, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !namePattern.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
}

// TestTinyCampaigns runs every workload at the tiny size in this process:
// twice untraced and once traced, plus the probes once.
func TestTinyCampaigns(t *testing.T) {
	ctx := context.Background()
	f := readBenchmarkFile(t)
	untraced := map[string][2]*repReport{}
	traced := map[string]*repReport{}
	for _, w := range workloads {
		var pair [2]*repReport
		for i := range pair {
			rep, err := runRep(ctx, w, tinyInputs, tiny, time.Now(), nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(rep.Errors) > 0 {
				t.Errorf("%s: %v", w.name, rep.Errors)
			}
			pair[i] = rep
		}
		if !slices.Equal(pair[0].Digests, pair[1].Digests) {
			t.Errorf("%s: two runs gave different digests", w.name)
		}
		rep, err := runRep(ctx, w, tinyInputs, tiny, time.Now(), newRecorder())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if len(rep.Errors) > 0 {
			t.Errorf("%s traced: %v", w.name, rep.Errors)
		}
		if !slices.Equal(rep.Digests, pair[0].Digests) {
			t.Errorf("%s: the traced run changed cell results", w.name)
		}
		untraced[w.name], traced[w.name] = pair, rep
		for _, m := range f.EndToEnd {
			if v := endToEndValues(pair[0])[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.Name, v)
			}
		}
	}
	if !slices.Equal(untraced["fabric"][0].Digests, untraced["showdown"][0].Digests) {
		t.Error("fabric digests differ from showdown digests")
	}

	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)
	probes, err := runProbes(ctx, tiny, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Every per-layer metric is measured on some workload or by a probe,
	// and every run's result line carries every metric.
	measured := map[string]bool{"harness.span_overhead_pct": true, "dist.overhead_pct": true}
	for k := range probes {
		measured[k] = true
	}
	for _, w := range workloads {
		for k := range traced[w.name].Layers {
			measured[k] = true
		}
		pair := untraced[w.name]
		r := workloadResult{Layers: assembleLayers(w, traced[w.name], pair[0], untraced[w.sameGridAs][0], probes)}
		r.summarize(pair[:])
		for _, tr := range []bool{false, true} {
			blob, err := json.Marshal(resultLine(r, tr))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var line struct {
				Metrics map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal(blob, &line); err != nil {
				t.Fatal(err)
			}
			want := f.EndToEnd
			if tr {
				want = f.PerLayer
			}
			for _, m := range want {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("%s: result line lacks %s", w.name, m.Name)
				}
			}
		}
	}
	for _, m := range f.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload or probe measures %s", m.Name)
		}
	}
}

// TestCorruptDigestFails checks that a cell whose digest differs from its
// plain rerun makes the run incorrect even when every rep agrees, as on a
// seed without goldens.
func TestCorruptDigestFails(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("showdown")
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGrid(w, tinyInputs, tiny)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runRep(ctx, w, tinyInputs, tiny, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(ctx, []workload{w}, []grid{g}, tinyInputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		bad := *rep
		bad.Digests = slices.Clone(rep.Digests)
		if corrupt {
			bad.Digests[1] = digest([]byte("not a result"))
		}
		results := []workloadResult{{Name: w.name, Cells: len(g.labels), Attempted: 2 * len(g.labels)}}
		results[0].check([]*repReport{&bad, &bad}, nil, g.labels)
		crossCheck([]workload{w}, []grid{g}, results, refs)
		blob, err := json.Marshal(resultLine(results[0], false))
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal(blob, &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == corrupt || (line.Failed > 0) != corrupt {
			t.Errorf("corrupt=%v: result line %s", corrupt, blob)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall, setup := endToEnd[0], endToEnd[1]
	at := func(vs ...float64) summary { return newSummary(wall, vs) }
	for _, c := range []struct {
		m          metric
		base, head summary
		want       string
	}{
		{wall, at(10, 10.1, 10.2), at(10.1, 10.2, 10.3), "same"},
		{wall, at(10, 10.1, 10.2), at(13, 13.1, 13.2), "worse"},
		{wall, at(10, 10.1, 10.2), at(7, 7.1, 7.2), "better"},
		{wall, at(5, 10, 15), at(6, 11, 16), "unresolved"},
		{wall, at(5, 6, 15), at(16, 17, 18), "worse"},
		// 10 ms of set-up growing to 25 ms stays within the 20 ms floor.
		{setup, at(0.010, 0.010, 0.011), at(0.025, 0.025, 0.026), "same"},
		{setup, at(0.010, 0.010, 0.011), at(0.035, 0.035, 0.036), "worse"},
	} {
		if got := verdict(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base.Values, c.head.Values, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// A 100 ns root whose two children overlap on [20, 60] and [40, 90]:
	// the children cover 70 ns of it, leaving 30 ns of root self time.
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.cell", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "sim.cell", Start: 40, End: 90},
	}
	got := selfTimes(spans, 1)
	if math.Abs(got["campaign"]-30e-6) > 1e-12 || math.Abs(got["sim"]-90e-6) > 1e-12 {
		t.Errorf("self times %v, want campaign 30e-6 ms, sim 90e-6 ms", got)
	}
}
