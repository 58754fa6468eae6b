// Counters demonstrates the measurement substrate directly: it executes one
// memory-bound and one compute-bound phase on each core type of the paper's
// machine and shows the IPC signal that drives Algorithm 2 — memory-bound
// code has visibly higher IPC on the slow cores, compute-bound code does
// not, and the Select threshold turns that into a core assignment.
//
// Measurement goes through the staged Session API: images are prepared once
// through the session cache and Session.MeasureIPC runs them isolated on
// each core type, so the example exercises the same pipeline every run and
// sweep uses.
package main

import (
	"fmt"
	"log"

	"phasetune"
)

func main() {
	machine := phasetune.QuadAMP()
	sess := phasetune.NewSession(phasetune.WithMachine(machine))

	build := func(name string, mix phasetune.BlockMix) *phasetune.Program {
		b := phasetune.NewProgram(name)
		b.Proc("main").Loop(3000, func(pb *phasetune.ProcBuilder) {
			pb.Straight(mix)
		}).Ret()
		return mustBuild(b)
	}
	compute := build("compute", phasetune.BlockMix{IntALU: 30, IntMul: 6})
	memory := build("memory", phasetune.BlockMix{
		Load: 16, Store: 8, IntALU: 8, WorkingSetKB: 3072, Locality: 0.94,
	})

	fmt.Printf("%-10s %12s %12s %10s\n", "phase", "IPC fast", "IPC slow", "gap")
	progs := []*phasetune.Program{compute, memory}
	results := make([][]float64, len(progs))
	for i, prog := range progs {
		ipcs, err := sess.MeasureIPC(prog, 42)
		if err != nil {
			log.Fatal(err)
		}
		results[i] = ipcs
		fmt.Printf("%-10s %12.3f %12.3f %10.3f\n", prog.Name, ipcs[0], ipcs[1], ipcs[1]-ipcs[0])
	}

	delta := phasetune.DefaultTuning().Delta
	fmt.Printf("\nAlgorithm 2 with delta = %.2f:\n", delta)
	for i, prog := range progs {
		target := phasetune.Select(machine, results[i], delta)
		fmt.Printf("  %-10s -> %s cores\n", prog.Name, machine.Types[target].Name)
	}
}

func mustBuild(b *phasetune.ProgramBuilder) *phasetune.Program {
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return p
}
