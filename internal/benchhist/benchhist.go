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
	"math"
	"os"
	"runtime"
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
// entry records: the time, the Go version and GOMAXPROCS.
func Stamp(kind string) Entry {
	return Entry{
		Kind:      kind,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
}

// History is the file format: one entry per invocation, oldest first.
type History struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Load reads a history file, absorbing a legacy single-report file as the
// first entry. Unreadable or unrecognized content starts a fresh history —
// the file is a derived artifact, never a source of truth.
func Load(path string) History {
	h := History{Schema: HistorySchema}
	data, err := os.ReadFile(path)
	if err != nil {
		return h
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(data, &probe) != nil {
		return h
	}
	switch probe.Schema {
	case HistorySchema:
		var old History
		if json.Unmarshal(data, &old) == nil {
			h.Entries = old.Entries
		}
	case LegacySchema:
		var legacy Entry
		if json.Unmarshal(data, &legacy) == nil {
			legacy.Schema = LegacySchema
			h.Entries = []Entry{legacy}
		}
	}
	return h
}

// Append loads path, appends the entry, and writes the history back.
func Append(path string, e Entry) error {
	h := Load(path)
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
