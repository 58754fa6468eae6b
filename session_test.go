package phasetune_test

import (
	"testing"

	"phasetune"
	"phasetune/internal/exec"
	"phasetune/internal/perfcnt"
	"phasetune/internal/prog"
)

// TestMeasureIPCPricesEachTypeAtItsL2Group measures a memory-bound program
// whose working set (3 MB) fits the hex machine's 4096 KB groups but not
// the little pair's 2048 KB one: the little type's IPC must equal a run
// alone on a little core at 2048 KB, as the scheduler prices that core.
func TestMeasureIPCPricesEachTypeAtItsL2Group(t *testing.T) {
	b := phasetune.NewProgram("stream")
	pb := b.Proc("main")
	b.SetEntry("main")
	pb.Loop(400, func(pb *prog.ProcBuilder) {
		pb.Straight(prog.BlockMix{Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94})
	})
	pb.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	machine := phasetune.TriTypeAMP()
	sess := phasetune.NewSession(phasetune.WithMachine(machine))
	const seed = 7
	ipcs, err := sess.MeasureIPC(p, seed)
	if err != nil {
		t.Fatal(err)
	}

	art, err := sess.Cache().Get(p, phasetune.ImageSpec{Baseline: true}, phasetune.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	cost := phasetune.DefaultCost()
	pars := exec.ParamsFor(cost, machine)
	little := len(pars) - 1
	alone := func(shareKB float64) float64 {
		proc := exec.NewProcess(1, art.Image, &cost, seed, nil)
		es := perfcnt.Start(&proc.Counters)
		proc.RunIsolated(&pars[little], machine.CoresOfType(pars[little].Type)[0], shareKB, 0)
		return perfcnt.IPC(es.Stop(&proc.Counters))
	}
	if want := alone(2048); ipcs[little] != want {
		t.Errorf("little-core IPC %v, want %v (alone at 2048 KB)", ipcs[little], want)
	}
	if alone(2048) == alone(4096) {
		t.Error("setup: the working set does not tell the 2048 KB and 4096 KB groups apart")
	}
}

// TestRunRejectsUnknownPolicy: a policy outside the policy table fails the
// run with an error instead of indexing past the table.
func TestRunRejectsUnknownPolicy(t *testing.T) {
	spec := phasetune.RunSpec{
		Queues:      &phasetune.WorkloadSpec{Slots: 1, QueueLen: 1, Seed: 1},
		DurationSec: 1, Policy: phasetune.PolicyOverhead + 1, Seed: 1,
	}
	if _, err := phasetune.NewSession().Run(spec); err == nil {
		t.Error("a run with an unknown policy was accepted")
	}
}
