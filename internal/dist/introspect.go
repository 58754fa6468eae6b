package dist

import (
	"bytes"
	"fmt"
	"io"
	"sort"
)

// Fabric introspection: the coordinator's live view of its workers and
// counters, served by NewHandler as GET /status (JSON) and GET /metrics
// (Prometheus text). Both are read-only renderings of one snapshot taken
// under the coordinator lock: the campaign Progress, the protocol event
// counters, and the commit round-trip histogram.

// WorkerStatus is one registered worker's live state.
type WorkerStatus struct {
	// ID is the coordinator-assigned worker identity.
	ID string `json:"id"`
	// HeartbeatAgeSec is the time since the worker was last heard from
	// (any authenticated call counts, not just heartbeats).
	HeartbeatAgeSec float64 `json:"heartbeat_age_sec"`
	// Commits counts results this worker committed (accepted only).
	Commits int `json:"commits"`
	// ThroughputPerSec is commits divided by time since registration.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Done reports the worker has been told the campaign finished.
	Done bool `json:"done"`
}

// StatusReport is the GET /status payload: campaign progress plus one row
// per registered worker, sorted by worker ID.
type StatusReport struct {
	Progress Progress       `json:"progress"`
	Workers  []WorkerStatus `json:"workers"`
}

// Status snapshots the coordinator for the /status endpoint.
func (c *Coordinator) Status() StatusReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := StatusReport{Progress: c.progressLocked()}
	now := c.opts.Clock()
	for id, ws := range c.workers {
		row := WorkerStatus{
			ID:              id,
			HeartbeatAgeSec: now.Sub(ws.lastSeen).Seconds(),
			Commits:         ws.commits,
			Done:            ws.released,
		}
		if up := now.Sub(ws.registeredAt).Seconds(); up > 0 {
			row.ThroughputPerSec = float64(ws.commits) / up
		}
		rep.Workers = append(rep.Workers, row)
	}
	sort.Slice(rep.Workers, func(i, j int) bool { return rep.Workers[i].ID < rep.Workers[j].ID })
	return rep
}

// roundtripBoundsUS are the commit_roundtrip_us bucket upper bounds
// (inclusive, ascending; an overflow bucket follows). Fixed bounds keep
// the exported bucket lines identical across runs; they span the fabric's
// realistic grant-to-commit range, from a local transport round-trip
// (sub-millisecond) to a lease-TTL straggler.
var roundtripBoundsUS = [...]int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000}

// histogram is the commit round-trip distribution: per-bucket counts
// parallel to roundtripBoundsUS plus the overflow slot, and the sum of
// the raw observations.
type histogram struct {
	counts [len(roundtripBoundsUS) + 1]int64
	sum    int64
}

// observe records one value.
func (h *histogram) observe(v int64) {
	i := sort.Search(len(roundtripBoundsUS), func(i int) bool { return v <= roundtripBoundsUS[i] })
	h.counts[i]++
	h.sum += v
}

// WriteMetrics exports the fabric counters in Prometheus text format (the
// GET /metrics payload): thirteen untyped values with HELP lines in a
// fixed order, then the commit_roundtrip_us histogram as cumulative
// _bucket/_sum/_count series.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	p := c.progressLocked()
	values := []struct {
		name, help string
		v          int
	}{
		{"workers_registered_total", "workers admitted to the campaign", p.Workers},
		{"leases_granted_total", "spec chunks granted to workers", c.leasesGranted},
		{"lease_waits_total", "lease polls answered with wait (no work queued)", c.leaseWaits},
		{"commits_total", "results accepted", p.Done},
		{"duplicate_commits_total", "commits rejected as duplicates (at-most-once per index)", p.DuplicateCommits},
		{"failed_commits_total", "commits reporting a deterministic run failure", c.failedCommits},
		{"expired_leases_total", "leases reclaimed after missed heartbeats", p.ExpiredLeases},
		{"heartbeats_total", "heartbeats received", c.heartbeats},
		{"specs_total", "campaign grid size", p.Total},
		{"specs_done", "specs with a committed result", p.Done},
		{"specs_queued", "specs awaiting dispatch", p.Queued},
		{"specs_leased", "specs granted and not yet committed", p.Leased},
		{"leases_in_flight", "outstanding leases", len(c.leases)},
	}
	h := c.roundtrip
	c.mu.Unlock()

	var b bytes.Buffer
	for _, v := range values {
		fmt.Fprintf(&b, "# HELP %s %s\n%s %d\n", v.name, v.help, v.name, v.v)
	}
	const name = "commit_roundtrip_us"
	fmt.Fprintf(&b, "# HELP %s microseconds from lease grant to accepted commit, per spec\n", name)
	fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, bound := range roundtripBoundsUS {
		cum += h.counts[i]
		fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
	}
	cum += h.counts[len(roundtripBoundsUS)]
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", name, cum, name, h.sum, name, cum)
	_, err := w.Write(b.Bytes())
	return err
}
