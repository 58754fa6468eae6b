package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"phasetune/internal/dist"
	"phasetune/internal/exec"
	"phasetune/internal/sim"
	"phasetune/internal/trace"
)

// span is one timed call into a layer, in nanoseconds since the recorder
// started. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerOf names the layer a span belongs to: the span name up to its first
// dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps a traced rep's spans in memory until the rep ends. A nil
// *recorder records nothing, so the untraced path calls it unguarded.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, r.now(), -1)
}

// add records a span whose bounds the caller measured.
func (r *recorder) add(name string, parent int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(r.spans)
}

// end closes a span and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return float64(s.End-s.Start) / 1e6
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans stores a rep's spans as dir/<workload>.spans.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), blob, 0o644)
}

// durations lists the durations, in milliseconds, of the spans with this
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTimes sums, per layer, the self time in milliseconds of every span in
// root's tree: a span's duration minus the part of it its children cover.
func selfTimes(spans []span, root int) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	var walk func(s span)
	walk = func(s span) {
		type interval struct{ lo, hi int64 }
		var cover []interval
		for _, c := range kids[s.ID] {
			if lo, hi := max(c.Start, s.Start), min(c.End, s.End); hi > lo {
				cover = append(cover, interval{lo, hi})
			}
			walk(c)
		}
		sort.Slice(cover, func(i, j int) bool { return cover[i].lo < cover[j].lo })
		var covered, reach int64
		for _, iv := range cover {
			if iv.lo > reach {
				reach = iv.lo
			}
			if iv.hi > reach {
				covered += iv.hi - reach
				reach = iv.hi
			}
		}
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e6
	}
	walk(spans[root-1])
	return out
}

// selfLayers are the layers whose self-time shares are reported; the rest
// of the campaign tree is the root's own time between calls.
var selfLayers = []string{"workload", "pipeline", "sim", "dist"}

// timedTransport wraps a worker's dist.Transport and records a span per
// call. Between a lease's reply and the commit of each of its cells the
// worker lowers, runs and encodes the cell; that interval becomes the
// cell's sim.cell span.
type timedTransport struct {
	inner  dist.Transport
	rec    *recorder
	parent int

	mu       sync.Mutex
	leasedAt map[int]int64
	cellMs   map[int]float64
	empty    int
}

func newTimedTransport(inner dist.Transport, rec *recorder, parent int) *timedTransport {
	return &timedTransport{inner: inner, rec: rec, parent: parent,
		leasedAt: map[int]int64{}, cellMs: map[int]float64{}}
}

func (t *timedTransport) Register(ctx context.Context, name string) (*dist.RegisterReply, error) {
	id := t.rec.begin("dist.register", t.parent)
	defer t.rec.end(id)
	return t.inner.Register(ctx, name)
}

func (t *timedTransport) Lease(ctx context.Context, workerID string) (*dist.LeaseReply, error) {
	id := t.rec.begin("dist.lease", t.parent)
	r, err := t.inner.Lease(ctx, workerID)
	t.rec.end(id)
	if err == nil {
		now := t.rec.now()
		t.mu.Lock()
		if len(r.Indices) == 0 {
			t.empty++
		}
		for _, idx := range r.Indices {
			t.leasedAt[idx] = now
		}
		t.mu.Unlock()
	}
	return r, err
}

func (t *timedTransport) Commit(ctx context.Context, req dist.CommitRequest) (*dist.CommitReply, error) {
	now := t.rec.now()
	t.mu.Lock()
	if at, ok := t.leasedAt[req.Index]; ok {
		delete(t.leasedAt, req.Index)
		t.cellMs[req.Index] = float64(now-at) / 1e6
		t.rec.add("sim.cell", t.parent, at, now)
	}
	t.mu.Unlock()
	id := t.rec.begin("dist.commit", t.parent)
	defer t.rec.end(id)
	return t.inner.Commit(ctx, req)
}

func (t *timedTransport) Heartbeat(ctx context.Context, workerID string) (*dist.HeartbeatReply, error) {
	id := t.rec.begin("dist.heartbeat", t.parent)
	defer t.rec.end(id)
	return t.inner.Heartbeat(ctx, workerID)
}

// primeImages prepares every distinct image of the grid through the shared
// cache, one span each, so the sweep's cell spans hold simulation only. It
// returns the cache's miss count after priming. cellImages copies sim's
// rules for which images a cell needs; if they drift, the images counted
// here differ from the ones the cache prepares, and the sweep misses.
func primeImages(grids []lowered, cache *sim.ImageCache, rec *recorder, root int) (uint64, error) {
	var all []sim.RunConfig
	for _, g := range grids {
		all = append(all, g.cfgs...)
	}
	jobs, err := distinctImages(all)
	if err != nil {
		return 0, err
	}
	before := cache.Stats().Misses
	for _, j := range jobs {
		id := rec.begin("pipeline.prime", root)
		// A failed preparation is cached; the cell that needs the image
		// fails with the same error and reports it.
		_, _ = cache.Get(j.prog, j.key.spec, j.key.cost)
		rec.end(id)
	}
	misses := cache.Stats().Misses
	if n := misses - before; n != uint64(len(jobs)) {
		return misses, fmt.Errorf("priming counted %d distinct images, the image cache prepared %d", len(jobs), n)
	}
	return misses, nil
}

// checkPrimed fails a traced sweep that prepared images the priming did
// not: their pipeline time would hide inside the sim.cell spans.
func checkPrimed(cache *sim.ImageCache, primed uint64) error {
	if extra := cache.Stats().Misses - primed; extra > 0 {
		return fmt.Errorf("the sweep prepared %d images that priming missed", extra)
	}
	return nil
}

// stagedReplay prepares each image stage by stage under its own root, so
// the pipeline's time splits by stage. It returns the total in ms.
func stagedReplay(jobs []imageJob, rec *recorder) (float64, error) {
	root := rec.begin("harness.stages", 0)
	defer rec.end(root)
	total := 0.0
	for _, j := range jobs {
		img := rec.begin("pipeline.image", root)
		p := &pipeline{prog: j.prog, spec: j.key.spec, cost: j.key.cost}
		for _, si := range stagesFor(j.key.spec) {
			id := rec.begin(stages[si].name, img)
			err := stages[si].run(p)
			rec.end(id)
			if err != nil {
				return 0, fmt.Errorf("%s: %s: %w", j.where, stages[si].name, err)
			}
		}
		total += rec.end(img)
	}
	return total, nil
}

// representative picks the cell the program's own tracer observes: the
// first hybrid cell of the first machine, whose run crosses phase marks,
// monitor windows and the placement engine.
func representative(cfgs []sim.RunConfig) int {
	for i, rc := range cfgs {
		if rc.Mode == sim.Hybrid {
			return i
		}
	}
	return 0
}

// traceCell reruns one cell with a trace.Tracer attached and counts its
// events by "category.name". It checks that the traced result is the
// cell's result: tracing must not perturb a run.
func traceCell(ctx context.Context, rc sim.RunConfig, want string, rec *recorder) (map[string]int, error) {
	id := rec.begin("harness.tracecell", 0)
	defer rec.end(id)
	rc.Trace = trace.New()
	res, err := sim.RunContext(ctx, rc)
	if err != nil {
		return nil, err
	}
	raw, err := dist.EncodeResult(res)
	if err != nil {
		return nil, err
	}
	if got := digest(raw); got != want {
		return nil, fmt.Errorf("traced run of the representative cell differs from its sweep result")
	}
	var buf bytes.Buffer
	if err := rc.Trace.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Cat+"."+e.Name]++
	}
	return counts, nil
}

// commonLayers fills the per-layer metrics every traced rep reports the
// same way: cell counts and times, simulated work, scheduler, placement
// and online statistics, the representative cell's event counts, the Go
// runtime, and self-time shares.
func commonLayers(m map[string]float64, results [][]*sim.Result, cellMs []float64, repMs float64,
	events map[string]int, before, after usage, rec *recorder, root int) {

	var instr, slices uint64
	peak, cells := 0, 0
	var windows uint64
	decisions := 0
	for _, rs := range results {
		for _, r := range rs {
			cells++
			instr += r.TotalInstructions
			slices += r.OvercommitSlices
			peak = max(peak, r.PeakRunnable)
			if r.Online != nil {
				windows += r.Online.Windows
				decisions += r.Online.Decisions
			}
		}
	}
	m["sim.cells"] = float64(cells)
	m["sim.minstr"] = float64(instr) / 1e6
	m["sim.cell_ms_p50"] = median(cellMs)
	m["sim.cell_ms_max"] = maxOf(cellMs)
	m["osched.overcommit_slices"] = float64(slices)
	m["osched.peak_runnable"] = float64(peak)
	m["online.windows"] = float64(windows)
	m["online.decisions"] = float64(decisions)

	bursts := events["sched.burst"]
	m["osched.bursts"] = float64(bursts)
	if bursts > 0 {
		m["osched.ns_per_burst"] = repMs * 1e6 / float64(bursts)
	}
	m["place.decides"] = float64(events["place.decide"])
	m["place.arbitrates"] = float64(events["place.arbitrate"])

	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	spans := rec.snapshot()
	m["workload.suite_ms"] = sum(durations(spans, "workload.suite"))
	m["workload.materialize_ms"] = sum(durations(spans, "workload.materialize"))
	self := selfTimes(spans, root)
	total := 0.0
	for _, v := range self {
		total += v
	}
	for _, l := range selfLayers {
		if total > 0 {
			m["selftime."+l+"_pct"] = 100 * self[l] / total
		}
	}
}

// sweepLayers computes the per-layer metrics of a traced in-process rep.
func sweepLayers(ctx context.Context, grids []lowered, results [][]*sim.Result, cellMs [][]float64, digests []string,
	cache *sim.ImageCache, memo *exec.SegmentMemo, before, after usage, rec *recorder, root int) (map[string]float64, error) {

	m := map[string]float64{}
	var all []sim.RunConfig
	var allMs []float64
	for i, g := range grids {
		all = append(all, g.cfgs...)
		allMs = append(allMs, cellMs[i]...)
	}
	jobs, err := distinctImages(all)
	if err != nil {
		return nil, err
	}
	ms, err := stagedReplay(jobs, rec)
	if err != nil {
		return nil, err
	}
	m["pipeline.images"] = float64(len(jobs))
	m["pipeline.ms"] = ms

	st := memo.Stats()
	m["exec.memo_hit_rate"] = st.HitRate()
	m["exec.memo_fill"] = float64(st.Chunks) / exec.DefaultMemoChunks
	m["exec.memo_replayed_msteps"] = float64(st.ReplayedSteps) / 1e6
	m["exec.memo_recorded_msteps"] = float64(st.RecordedSteps) / 1e6

	k := representative(grids[0].cfgs)
	rc := grids[0].cfgs[k]
	rc.Cache, rc.Memo = cache, memo
	events, err := traceCell(ctx, rc, digests[k], rec)
	if err != nil {
		return nil, err
	}
	commonLayers(m, results, allMs, cellMs[0][k], events, before, after, rec, root)
	return m, nil
}

// fabricLayers computes the per-layer metrics of a traced fabric rep. The
// workers' image caches and segment memos are private to dist.Worker, so
// the pipeline numbers come from replaying each worker's image set after
// the campaign, and the memo metrics stay 0.
func fabricLayers(ctx context.Context, camps []dist.Campaign, results [][]*sim.Result, raws [][]json.RawMessage,
	transports [][]*timedTransport, before, after usage, rec *recorder, root int) (map[string]float64, error) {

	m := map[string]float64{}
	lowerRoot := rec.begin("harness.lower", 0)
	grids, err := lower(camps, rec, lowerRoot)
	rec.end(lowerRoot)
	if err != nil {
		return nil, err
	}
	var jobs []imageJob
	var cellMs []float64
	repMs := 0.0
	empty := 0
	for i, tts := range transports {
		for _, tt := range tts {
			var cells []sim.RunConfig
			for idx, ms := range tt.cellMs {
				cells = append(cells, grids[i].cfgs[idx])
				cellMs = append(cellMs, ms)
			}
			// Each worker prepares its own images in a private cache.
			own, err := distinctImages(cells)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, own...)
			empty += tt.empty
		}
	}
	k := representative(grids[0].cfgs)
	for _, tt := range transports[0] {
		if ms, ok := tt.cellMs[k]; ok {
			repMs = ms
		}
	}
	ms, err := stagedReplay(jobs, rec)
	if err != nil {
		return nil, err
	}
	m["pipeline.images"] = float64(len(jobs))
	m["pipeline.ms"] = ms

	spans := rec.snapshot()
	m["dist.register_ms"] = median(durations(spans, "dist.register"))
	m["dist.lease_ms_p50"] = median(durations(spans, "dist.lease"))
	m["dist.commit_ms_p50"] = median(durations(spans, "dist.commit"))
	m["dist.empty_leases"] = float64(empty)

	var decoded []*sim.Result
	nbytes := 0
	t0 := time.Now()
	for _, rs := range raws {
		for _, raw := range rs {
			nbytes += len(raw)
			res, err := dist.DecodeResult(raw)
			if err != nil {
				return nil, err
			}
			decoded = append(decoded, res)
		}
	}
	m["dist.decode_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	for _, res := range decoded {
		if _, err := dist.EncodeResult(res); err != nil {
			return nil, err
		}
	}
	m["dist.encode_ms"] = float64(time.Since(t0)) / 1e6
	m["dist.result_mb"] = float64(nbytes) / 1e6

	want := ""
	if len(raws[0]) > k {
		want = digest(raws[0][k])
	}
	rc := grids[0].cfgs[k]
	rc.Cache = sim.NewImageCache()
	events, err := traceCell(ctx, rc, want, rec)
	if err != nil {
		return nil, err
	}
	commonLayers(m, results, cellMs, repMs, events, before, after, rec, root)
	return m, nil
}
