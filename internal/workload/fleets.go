package workload

import (
	"reflect"
	"slices"
	"sync"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
)

// The generation table: synthetic fleets generated once per environment.
//
// A fleet member is a pure function of (BenchSpec, cost, machine), yet a
// campaign lowers one spec per cell, and every serving, antagonist or
// alternation cell asks for the same few members. The table generates each
// member once and hands every later request the same *Benchmark, so cells
// of one environment share programs exactly as suite draws share the
// suite's — and an image cache keyed per program sees a handful of
// programs instead of one copy per cell.
//
// The table holds one (cost, machine) environment at a time: a request
// under another environment replaces it, which keeps a process-lived table
// (a fabric worker leasing many campaigns) down to one environment's
// fleets. The suite stays out of it: callers own their suite's lifetime.

// maxGenEntries bounds the table. Campaigns ask for a few dozen members
// per environment at most; a stream of distinct alternation counts (the
// wire accepts any) starts a fresh table instead of growing this one.
const maxGenEntries = 64

// genEntry is one member's singleflight slot.
type genEntry struct {
	once sync.Once
	b    *Benchmark
	err  error
}

// genTable is the generation table of one environment.
type genTable struct {
	cm      exec.CostModel
	machine amp.Machine // private deep copy: callers may reuse theirs
	entries map[BenchSpec]*genEntry
}

var gen struct {
	mu sync.Mutex
	t  *genTable
}

// generated returns the benchmarks for specs under (cm, machine), in spec
// order, generating each member at most once per environment. Concurrent
// requests for one member wait on the same generation.
func generated(specs []BenchSpec, cm exec.CostModel, machine *amp.Machine) ([]*Benchmark, error) {
	entries := make([]*genEntry, len(specs))
	gen.mu.Lock()
	t := gen.t
	if t == nil || t.cm != cm || !reflect.DeepEqual(&t.machine, machine) {
		t = newGenTable(cm, machine)
	}
	for i, s := range specs {
		e := t.entries[s]
		if e == nil {
			if len(t.entries) >= maxGenEntries {
				t = newGenTable(cm, machine)
			}
			e = &genEntry{}
			t.entries[s] = e
		}
		entries[i] = e
	}
	gen.t = t
	gen.mu.Unlock()

	out := make([]*Benchmark, len(specs))
	for i, e := range entries {
		e.once.Do(func() { e.b, e.err = Generate(specs[i], t.cm, &t.machine) })
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.b
	}
	return out, nil
}

func newGenTable(cm exec.CostModel, m *amp.Machine) *genTable {
	c := *m
	c.Types = slices.Clone(m.Types)
	c.Cores = slices.Clone(m.Cores)
	c.L2s = slices.Clone(m.L2s)
	for i := range c.L2s {
		c.L2s[i].Cores = slices.Clone(c.L2s[i].Cores)
	}
	return &genTable{cm: cm, machine: c, entries: map[BenchSpec]*genEntry{}}
}
