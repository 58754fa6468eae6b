package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasetune/internal/benchhist"
)

// fixture is a passing bench/run.sh report on the given seeds: two
// workloads with one host-time and two allocation metrics each.
func fixture(seeds ...uint64) passReport {
	p := passReport{Revision: "0123456789abcdef0123456789abcdef01234567", GOMAXPROCS: 2, Seeds: seeds}
	for _, name := range []string{"showdown", "serving"} {
		p.Workloads = append(p.Workloads, workload{Name: name, Reps: 3,
			Metrics: map[string]summary{
				"wall_s":   {Better: "lower", Bound: 0.25, Median: 6.5, Q1: 6.4, Q3: 6.7},
				"allocs_m": {Better: "lower", Bound: 0.03, Median: 0.54, Q1: 0.54, Q3: 0.54},
				"alloc_mb": {Better: "lower", Bound: 0.03, Median: 92.3, Q1: 92.2, Q3: 92.4},
			}})
	}
	return p
}

// write writes the report to a fresh file and returns its path.
func write(t *testing.T, p passReport) string {
	t.Helper()
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pass.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scale returns p with one metric's median multiplied by f on every workload.
func scale(p passReport, metric string, f float64) passReport {
	for _, w := range p.Workloads {
		m := w.Metrics[metric]
		m.Median *= f
		w.Metrics[metric] = m
	}
	return p
}

// history records the reports in order into a fresh history, then runs
// -history on it.
func history(t *testing.T, passes ...passReport) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.json")
	for _, p := range passes {
		if err := record(write(t, p), path); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	err := renderHistory(&out, path)
	return out.String(), err
}

func TestRecordAppendsOneBenchTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := benchhist.Append(path, benchhist.Entry{Benchmarks: []benchhist.Benchmark{{Name: "old_timing", NsPerOp: 1}}}); err != nil {
		t.Fatal(err)
	}
	p := fixture(5, 42)
	if err := record(write(t, p), path); err != nil {
		t.Fatal(err)
	}
	h, err := benchhist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 2 || h.Entries[0].Benchmarks[0].Name != "old_timing" {
		t.Fatalf("history after record: %+v", h.Entries)
	}
	e := h.Entries[1]
	if e.Kind != benchhist.KindTable || e.Campaign != "bench" || e.Revision != p.Revision ||
		e.MaxProcs != p.GOMAXPROCS || e.Timestamp == "" || len(e.Tables) != 1 {
		t.Fatalf("recorded entry: kind %q campaign %q revision %q gomaxprocs %d stamped %q, %d tables",
			e.Kind, e.Campaign, e.Revision, e.MaxProcs, e.Timestamp, len(e.Tables))
	}
	rows := rowsOf(e)
	if len(rows) != 6 {
		t.Fatalf("%d rows, want one per workload and metric (6)", len(rows))
	}
	if r := rows[0]; r.workload != "showdown" || r.metric != "alloc_mb" || r.median != 92.3 || r.bound != 0.03 {
		t.Errorf("first row %+v", r)
	}
}

func TestRecordRefusesBrokenPass(t *testing.T) {
	failed, problem := fixture(5, 42), fixture(5, 42)
	failed.Workloads[1].Failed = 2
	problem.Workloads[0].Problems = []string{"digest differs across reps"}
	for name, p := range map[string]passReport{"failed": failed, "problem": problem, "empty": {Revision: "abc"}} {
		path := filepath.Join(t.TempDir(), "hist.json")
		if err := record(write(t, fixture(5, 42)), path); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := record(write(t, p), path); err == nil {
			t.Errorf("%s pass recorded", name)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Errorf("%s pass rewrote the history", name)
		}
	}
}

func TestHistoryGatesAllocations(t *testing.T) {
	out, err := history(t, fixture(5, 42), scale(fixture(5, 42), "allocs_m", 1.05))
	if err == nil || !strings.Contains(err.Error(), "allocs_m") {
		t.Fatalf("allocs_m +5%% passed the gate (err %v):\n%s", err, out)
	}
	if _, err := history(t, fixture(5, 42), scale(fixture(5, 42), "alloc_mb", 1.02)); err != nil {
		t.Errorf("alloc_mb +2%%, within its 3%% bound, failed: %v", err)
	}
}

func TestHistoryNotesHostTime(t *testing.T) {
	out, err := history(t, fixture(5, 42), scale(fixture(5, 42), "wall_s", 1.5))
	if err != nil {
		t.Fatalf("wall_s +50%% failed -history: %v", err)
	}
	if !strings.Contains(out, "note: showdown wall_s worse by 50.0%") {
		t.Errorf("no note on wall_s:\n%s", out)
	}
}

func TestHistoryComparesSameSeedsOnly(t *testing.T) {
	worse := scale(fixture(1, 2), "allocs_m", 1.5)
	out, err := history(t, fixture(5, 42), worse)
	if err != nil {
		t.Errorf("compared across seeds: %v", err)
	}
	if !strings.Contains(out, "nothing to compare") {
		t.Errorf("no comparison expected:\n%s", out)
	}
	// An entry on other seeds between two same-seed passes is skipped.
	if _, err := history(t, fixture(5, 42), fixture(1, 2), scale(fixture(5, 42), "allocs_m", 1.05)); err == nil {
		t.Error("newest pass not compared with the earlier one on its seeds")
	}
}

func TestHistoryReportsUnloadableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := os.WriteFile(path, []byte("<<<<<<< HEAD\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := renderHistory(&bytes.Buffer{}, path)
	if err == nil || !strings.Contains(err.Error(), "invalid character") {
		t.Errorf("unloadable history: %v", err)
	}
}
