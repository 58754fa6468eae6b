package benchhist

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

func TestAppendRoundTripsMixedKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := Append(path, Entry{
		GoVersion:  "go-test",
		Benchmarks: []Benchmark{{Name: "grid", NsPerOp: 123, Reps: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	ledger := Table{Title: "hex-2b2m2l", Columns: []Column{Col("policy", "", ""),
		Col("useful", "%", "%.2f"), Col("idle", "%", "%.2f")}, Chart: &Chart{Kind: ChartStackedBars}}
	ledger.AddRow("hybrid", 61.5, 25.0)
	shares := Table{Columns: []Column{Col("machine", "", ""), Col("groups", "groups", "%.0f"),
		Col("shares", "share", "%.2f")}}
	shares.AddRow("quad-2f2s", 2, []float64{0.25, 0.75})
	if err := Append(path, Entry{Kind: KindTable, Campaign: "showdown", Title: "showdown",
		Tables: []Table{ledger, shares}}); err != nil {
		t.Fatal(err)
	}
	h := Load(path)
	if h.Schema != HistorySchema || len(h.Entries) != 2 {
		t.Fatalf("loaded %d entries under schema %q", len(h.Entries), h.Schema)
	}
	if h.Entries[0].Kind != KindBench || len(h.Entries[0].Benchmarks) != 1 {
		t.Errorf("timing entry mangled: %+v", h.Entries[0])
	}
	tb := h.Entries[1]
	if tb.Kind != KindTable || tb.Campaign != "showdown" || len(tb.Tables) != 2 {
		t.Fatalf("table entry mangled: %+v", tb)
	}
	if !reflect.DeepEqual(tb.Tables, []Table{ledger, shares}) {
		t.Errorf("tables mangled:\n got %+v\nwant %+v", tb.Tables, []Table{ledger, shares})
	}
}

// TestUnknownKindSurvivesAppend pins the forward-compatibility contract
// on Kind: an entry recorded by a newer producer under a kind this build
// does not know must ride through Load/Append untouched, not be dropped
// or re-labeled.
func TestUnknownKindSurvivesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := Append(path, Entry{Kind: "future-thing", GoVersion: "go-next"}); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, Entry{Benchmarks: []Benchmark{{Name: "grid", NsPerOp: 7, Reps: 1}}}); err != nil {
		t.Fatal(err)
	}
	h := Load(path)
	if len(h.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(h.Entries))
	}
	if h.Entries[0].Kind != "future-thing" || h.Entries[0].GoVersion != "go-next" {
		t.Errorf("unknown-kind entry mangled: %+v", h.Entries[0])
	}
}

func TestLoadAbsorbsLegacyReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	legacy := `{"schema":"phasetune-bench/v1","go_version":"go-old","gomaxprocs":1,` +
		`"benchmarks":[{"name":"grid_sequential","ns_per_op":42,"reps":3}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	h := Load(path)
	if len(h.Entries) != 1 || h.Entries[0].Schema != LegacySchema {
		t.Fatalf("legacy report not absorbed: %+v", h)
	}
	if h.Entries[0].Benchmarks[0].NsPerOp != 42 {
		t.Errorf("legacy benchmark lost")
	}
}

func TestLoadMissingOrGarbageStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if h := Load(filepath.Join(dir, "absent.json")); len(h.Entries) != 0 {
		t.Errorf("missing file produced entries")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if h := Load(bad); len(h.Entries) != 0 {
		t.Errorf("garbage file produced entries")
	}
}

// TestAppendRefusesUnloadableHistory pins that Append never clobbers a
// history it cannot read: a merge-conflicted or foreign file is reported
// and left byte-for-byte as it was, with every entry it holds.
func TestAppendRefusesUnloadableHistory(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	for i := 0; i < 2; i++ {
		if err := Append(good, Entry{GoVersion: "go-test"}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"conflict":  "<<<<<<< HEAD\n" + string(data) + "=======\n" + string(data) + ">>>>>>> other\n",
		"truncated": string(data[:len(data)/2]),
		"foreign":   `{"schema":"someone-else/v1","entries":[]}`,
		"bad entry": `{"schema":"phasetune-bench-history/v1","entries":[{"gomaxprocs":"two"}]}`,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Append(path, Entry{GoVersion: "go-new"}); err == nil {
			t.Errorf("%s: Append accepted an unloadable history", name)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != content {
			t.Errorf("%s: Append rewrote the file:\n%s", name, after)
		}
	}
}

// TestRevisionFromBuildInfo pins the provenance Stamp reads from a build
// stamped by the go command, and that an unstamped build records none.
func TestRevisionFromBuildInfo(t *testing.T) {
	info := &debug.BuildInfo{Settings: []debug.BuildSetting{
		{Key: "vcs", Value: "git"},
		{Key: "vcs.revision", Value: "4f2c1e0d9b8a7f6e5d4c3b2a1f0e9d8c7b6a5f4e"},
		{Key: "vcs.modified", Value: "true"},
	}}
	if rev, dirty := revision(info); rev != "4f2c1e0d9b8a7f6e5d4c3b2a1f0e9d8c7b6a5f4e" || !dirty {
		t.Errorf("stamped build: revision %q, dirty %v", rev, dirty)
	}
	info.Settings[2].Value = "false"
	if _, dirty := revision(info); dirty {
		t.Error("clean build marked dirty")
	}
	if rev, dirty := revision(&debug.BuildInfo{}); rev != "" || dirty {
		t.Errorf("unstamped build: revision %q, dirty %v", rev, dirty)
	}
	// Old entries carry no provenance and must encode as they did.
	blob, err := json.Marshal(Entry{GoVersion: "go-old"})
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"go_version":"go-old"}` {
		t.Errorf("entry without provenance encodes as %s", blob)
	}
}

func TestSanitizeNaNs(t *testing.T) {
	nan := math.NaN()
	got := SanitizeNaNs([]float64{1.5, nan, 0, nan})
	want := []float64{1.5, NoData, 0, NoData}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SanitizeNaNs[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if SanitizeNaNs(nil) != nil {
		t.Error("nil slice not preserved")
	}
	// The point of the sentinel: a table with starved cells must marshal,
	// its NaNs recorded as NoData.
	tb := Table{Columns: []Column{Col("p50", "s", "%.2f"), Col("shares", "share", "%.2f")}}
	tb.AddRow(nan, []float64{0.5, nan})
	blob, err := json.Marshal(Entry{Kind: KindTable, Tables: []Table{tb}})
	if err != nil {
		t.Fatalf("table with NaN cells failed to marshal: %v", err)
	}
	if !strings.Contains(string(blob), `"rows":[[-1,[0.5,-1]]]`) {
		t.Errorf("NaN cells not recorded as NoData: %s", blob)
	}
}
