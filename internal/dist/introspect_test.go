package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatusReportsWorkerRows pins the introspection snapshot: per-worker
// heartbeat age, commit count, throughput, and ID-sorted row order.
func TestStatusReportsWorkerRows(t *testing.T) {
	camp := testCampaign()
	camp.Specs = camp.Specs[:2]
	clock := newFakeClock()
	coord, err := NewCoordinator(camp, Options{LeaseTTL: time.Minute, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := coord.Register("alpha", SpecVersion)
	rb, _ := coord.Register("beta", SpecVersion)

	lr, err := coord.Lease(ra.WorkerID)
	if err != nil || lr.Status != StatusLease {
		t.Fatalf("lease = %+v, %v", lr, err)
	}
	clock.Advance(10 * time.Second)
	raw := runSpecRaw(t, camp, lr.Indices[0])
	if _, err := coord.Commit(CommitRequest{WorkerID: ra.WorkerID, LeaseID: lr.LeaseID, Index: lr.Indices[0], Result: raw}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)

	rep := coord.Status()
	if len(rep.Workers) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(rep.Workers))
	}
	if rep.Workers[0].ID != ra.WorkerID || rep.Workers[1].ID != rb.WorkerID {
		t.Errorf("rows not ID-sorted: %q, %q", rep.Workers[0].ID, rep.Workers[1].ID)
	}
	a, b := rep.Workers[0], rep.Workers[1]
	if a.Commits != 1 || b.Commits != 0 {
		t.Errorf("commits = %d/%d, want 1/0", a.Commits, b.Commits)
	}
	// alpha was last seen at its commit (5s ago), beta at registration (15s).
	if a.HeartbeatAgeSec != 5 || b.HeartbeatAgeSec != 15 {
		t.Errorf("heartbeat ages = %g/%g, want 5/15", a.HeartbeatAgeSec, b.HeartbeatAgeSec)
	}
	// 1 commit over 15s of registered lifetime.
	if want := 1.0 / 15.0; a.ThroughputPerSec != want {
		t.Errorf("throughput = %g, want %g", a.ThroughputPerSec, want)
	}
	if rep.Progress.Done != 1 || rep.Progress.Total != 2 {
		t.Errorf("progress = %+v", rep.Progress)
	}
}

// metricsGolden is the exact GET /metrics body of the fake-clock scenario
// in TestWriteMetricsCountsFabricEvents: all 13 HELP lines in their fixed
// order, the zero-valued counters, and the cumulative bucket lines.
const metricsGolden = `# HELP workers_registered_total workers admitted to the campaign
workers_registered_total 1
# HELP leases_granted_total spec chunks granted to workers
leases_granted_total 2
# HELP lease_waits_total lease polls answered with wait (no work queued)
lease_waits_total 0
# HELP commits_total results accepted
commits_total 1
# HELP duplicate_commits_total commits rejected as duplicates (at-most-once per index)
duplicate_commits_total 1
# HELP failed_commits_total commits reporting a deterministic run failure
failed_commits_total 0
# HELP expired_leases_total leases reclaimed after missed heartbeats
expired_leases_total 1
# HELP heartbeats_total heartbeats received
heartbeats_total 1
# HELP specs_total campaign grid size
specs_total 1
# HELP specs_done specs with a committed result
specs_done 1
# HELP specs_queued specs awaiting dispatch
specs_queued 0
# HELP specs_leased specs granted and not yet committed
specs_leased 0
# HELP leases_in_flight outstanding leases
leases_in_flight 0
# HELP commit_roundtrip_us microseconds from lease grant to accepted commit, per spec
# TYPE commit_roundtrip_us histogram
commit_roundtrip_us_bucket{le="100"} 0
commit_roundtrip_us_bucket{le="1000"} 0
commit_roundtrip_us_bucket{le="10000"} 0
commit_roundtrip_us_bucket{le="100000"} 0
commit_roundtrip_us_bucket{le="1000000"} 0
commit_roundtrip_us_bucket{le="10000000"} 1
commit_roundtrip_us_bucket{le="60000000"} 1
commit_roundtrip_us_bucket{le="+Inf"} 1
commit_roundtrip_us_sum 2000000
commit_roundtrip_us_count 1
`

// statusGolden is the exact GET /status body of the same scenario.
const statusGolden = `{"progress":{"Total":1,"Done":1,"Queued":0,"Leased":0,"Workers":1,"ExpiredLeases":1,"DuplicateCommits":1,"Failed":false},"workers":[{"id":"w1-w","heartbeat_age_sec":0,"commits":1,"throughput_per_sec":0.07692307692307693,"done":false}]}
`

// TestWriteMetricsCountsFabricEvents pins the introspection views byte for
// byte: event counters advance with fabric activity, gauges reflect
// current state, and /status carries the same progress.
func TestWriteMetricsCountsFabricEvents(t *testing.T) {
	camp := testCampaign()
	camp.Specs = camp.Specs[:1]
	clock := newFakeClock()
	coord, err := NewCoordinator(camp, Options{LeaseTTL: 10 * time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := coord.Register("w", SpecVersion)
	lr, _ := coord.Lease(r1.WorkerID)
	if _, err := coord.Heartbeat(r1.WorkerID); err != nil {
		t.Fatal(err)
	}
	// Expire the lease, re-lease, then commit twice (second is duplicate).
	// The accepted commit lands 2s (2e6 µs) after its re-grant, so it falls
	// in the (1e6, 1e7] bucket; the duplicate observes nothing.
	clock.Advance(11 * time.Second)
	lr2, _ := coord.Lease(r1.WorkerID)
	clock.Advance(2 * time.Second)
	raw := runSpecRaw(t, camp, 0)
	if rep, _ := coord.Commit(CommitRequest{WorkerID: r1.WorkerID, LeaseID: lr2.LeaseID, Index: 0, Result: raw}); rep.Status != CommitOK {
		t.Fatalf("commit = %+v", rep)
	}
	if rep, _ := coord.Commit(CommitRequest{WorkerID: r1.WorkerID, LeaseID: lr.LeaseID, Index: 0, Result: raw}); rep.Status != CommitDuplicate {
		t.Fatalf("second commit = %+v", rep)
	}

	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	if got := httpGet(t, srv.URL+"/metrics", http.StatusOK); got != metricsGolden {
		t.Errorf("/metrics body:\n%s\nwant:\n%s", got, metricsGolden)
	}
	if got := httpGet(t, srv.URL+"/status", http.StatusOK); got != statusGolden {
		t.Errorf("/status body:\n%s\nwant:\n%s", got, statusGolden)
	}
	// /status carries the progress; there is no second progress route.
	httpGet(t, srv.URL+"/v1/status", http.StatusNotFound)
}

// TestHistogramBucketing pins the commit round-trip bucket math:
// upper-inclusive bounds, the overflow slot, and the exact sum.
func TestHistogramBucketing(t *testing.T) {
	var h histogram
	for _, v := range []int64{1, 100, 101, 1_000, 60_000_000, 60_000_001, 90_000_000} {
		h.observe(v)
	}
	// le=100 gets {1,100}; le=1000 gets {101,1000}; le=6e7 gets {6e7};
	// overflow gets {6e7+1, 9e7}.
	want := [len(roundtripBoundsUS) + 1]int64{2, 2, 0, 0, 0, 0, 1, 2}
	if h.counts != want {
		t.Errorf("buckets = %v, want %v", h.counts, want)
	}
	if wantSum := int64(1 + 100 + 101 + 1_000 + 60_000_000 + 60_000_001 + 90_000_000); h.sum != wantSum {
		t.Errorf("sum = %d, want %d", h.sum, wantSum)
	}
}

// httpGet fetches url, requires the status code, and returns the body.
func httpGet(t *testing.T, url string, code int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, code)
	}
	return string(body)
}

// TestHTTPIntrospectionEndpoints serves /status and /metrics over a real
// HTTP handler and checks both views are live.
func TestHTTPIntrospectionEndpoints(t *testing.T) {
	camp := testCampaign()
	camp.Specs = camp.Specs[:1]
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Register("probe", SpecVersion); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workers) != 1 || !strings.Contains(rep.Workers[0].ID, "probe") {
		t.Errorf("/status workers = %+v", rep.Workers)
	}
	if rep.Progress.Total != 1 {
		t.Errorf("/status progress = %+v", rep.Progress)
	}

	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "workers_registered_total 1") {
		t.Errorf("/metrics missing worker counter:\n%s", body)
	}
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
}

// TestHistogramPrometheusExport pins the histogram export: bucket lines
// are cumulative in bound order, the +Inf bucket and _count equal the
// number of observations, and _sum is the raw total.
func TestHistogramPrometheusExport(t *testing.T) {
	camp := testCampaign()
	camp.Specs = nil
	coord, err := NewCoordinator(camp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{50, 500, 2_000_000_000} {
		coord.roundtrip.observe(v)
	}
	var sb strings.Builder
	if err := coord.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE commit_roundtrip_us histogram
commit_roundtrip_us_bucket{le="100"} 1
commit_roundtrip_us_bucket{le="1000"} 2
commit_roundtrip_us_bucket{le="10000"} 2
commit_roundtrip_us_bucket{le="100000"} 2
commit_roundtrip_us_bucket{le="1000000"} 2
commit_roundtrip_us_bucket{le="10000000"} 2
commit_roundtrip_us_bucket{le="60000000"} 2
commit_roundtrip_us_bucket{le="+Inf"} 3
commit_roundtrip_us_sum 2000000550
commit_roundtrip_us_count 3
`
	if out := sb.String(); !strings.HasSuffix(out, want) {
		t.Errorf("histogram export:\n%s\nwant suffix:\n%s", out, want)
	}
}
