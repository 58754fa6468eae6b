// Package benchhist is the schema and I/O for the repository's
// machine-readable measurement history (BENCH_sweep.json). The file is an
// append-only log with two entry kinds: cmd/benchjson's benchmark timings,
// and the generic campaign tables that `cmd/experiments -benchout`
// records. cmd/benchjson -history renders the accumulated trajectory.
// Keeping the schema here, instead of private to one command, is what lets
// several producers share one history without drifting.
package benchhist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// Schema identifiers of the on-disk formats.
const (
	// HistorySchema identifies the append-only history file.
	HistorySchema = "phasetune-bench-history/v1"
	// LegacySchema identifies the pre-history single-report file, absorbed
	// as the first entry on load.
	LegacySchema = "phasetune-bench/v1"
)

// Entry kinds. An empty Kind means benchmark timings (the original entry
// form, kept unnamed for backward compatibility with recorded histories).
const (
	// KindBench marks a benchmark-timing entry ("" on the wire).
	KindBench = ""
	// KindTable marks a campaign's tables (Campaign, Title, Tables).
	KindTable = "table"
)

// Benchmark is one recorded timing measurement.
type Benchmark struct {
	Name    string             `json:"name"`
	NsPerOp int64              `json:"ns_per_op"`
	Reps    int                `json:"reps"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NoData marks a number with no data in recorded tables. The in-memory
// convention for an empty sample is NaN (metrics.Quantile,
// serve.Summarize), but JSON cannot carry NaN — json.Marshal rejects it —
// so a Cell encodes NaN as NoData. Consumers must treat negative
// latencies as absent data, not as measurements.
const NoData = -1

// SanitizeNaNs returns a copy of vs with every NaN replaced by NoData,
// making a row of numbers safe to marshal. A nil slice stays nil.
func SanitizeNaNs(vs []float64) []float64 {
	out := slices.Clone(vs)
	for i, v := range out {
		if math.IsNaN(v) {
			out[i] = NoData
		}
	}
	return out
}

// Entry is one producer invocation. Timing entries carry Benchmarks and
// Derived; table entries carry the registry name and printed heading of
// the campaign (Campaign, Title) and the Tables it printed. Consumers must
// treat unknown kinds as data to be surfaced, not silently dropped.
type Entry struct {
	Schema    string `json:"schema,omitempty"`
	Kind      string `json:"kind,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	MaxProcs  int    `json:"gomaxprocs,omitempty"`
	// Revision and Dirty are the build's VCS stamp (empty without one, as
	// under go test); Host names the machine that recorded the entry.
	Revision string `json:"revision,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
	Host     string `json:"host,omitempty"`
	// Shards appears only in older timing entries, recorded when benchjson
	// could also time the grid on an in-process fabric (its removed -shards
	// flag). It is kept so rewriting the history preserves those entries.
	Shards     int                `json:"shards,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks,omitempty"`
	Derived    map[string]float64 `json:"derived,omitempty"`
	Campaign   string             `json:"campaign,omitempty"`
	Title      string             `json:"title,omitempty"`
	Tables     []Table            `json:"tables,omitempty"`
}

// Stamp returns an entry of the given kind carrying the provenance every
// entry records: the time, the Go version, GOMAXPROCS, and, where known,
// the build's VCS revision and the host name.
func Stamp(kind string) Entry {
	e := Entry{
		Kind:      kind,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		e.Revision, e.Dirty = revision(info)
	}
	e.Host, _ = os.Hostname()
	return e
}

// revision reads the VCS revision and modified flag the go command stamps
// into a build from a checkout.
func revision(info *debug.BuildInfo) (rev string, dirty bool) {
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}

// History is the file format: one entry per invocation, oldest first.
type History struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Load reads a history file for display, absorbing a legacy single-report
// file as the first entry. Unreadable or unrecognized content reads as an
// empty history.
func Load(path string) History {
	h, _ := load(path)
	return h
}

// load is Load that reports why an existing file did not load (returning
// an empty history); a missing file is an empty history, not an error.
func load(path string) (History, error) {
	h := History{Schema: HistorySchema}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, nil
	} else if err != nil {
		return h, err
	}
	// One decode serves both schemas: a history's top level is its schema
	// and entries, a legacy report's is one timing entry.
	var file struct {
		Entry
		Entries []Entry `json:"entries"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return h, err
	}
	switch file.Schema {
	case HistorySchema:
		h.Entries = file.Entries
	case LegacySchema:
		h.Entries = []Entry{file.Entry}
	default:
		return h, fmt.Errorf("unknown schema %q", file.Schema)
	}
	return h, nil
}

// Append loads path, appends the entry, and writes the history back. A
// file that exists but does not load is left untouched and reported:
// rewriting it would drop every entry it holds.
func Append(path string, e Entry) error {
	h, err := load(path)
	if err != nil {
		return fmt.Errorf("benchhist: %s does not load, not appending: %w", path, err)
	}
	h.Entries = append(h.Entries, e)
	return Save(path, h)
}

// Save writes the history to path.
func Save(path string, h History) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
