// Onlinevstatic runs the paper's central comparison end to end through the
// public API: the same workload under no tuning, the static phase-mark
// runtime, the online dynamic detector (both reassignment policies), the
// marks+windows hybrid, and the perfect-knowledge oracle — all swept
// concurrently through one session — and prints throughput, switch counts,
// and the runtime detectors' monitoring bills.
package main

import (
	"context"
	"fmt"
	"log"

	"phasetune"
)

func main() {
	sess := phasetune.NewSession()
	const (
		slots    = 18
		duration = 100.0
		seed     = 5
	)
	w := phasetune.WorkloadSpec{Slots: slots, QueueLen: 256, Seed: seed}

	policies := []phasetune.Policy{
		phasetune.PolicyNone, phasetune.PolicyStatic,
		phasetune.PolicyDynamicGreedy, phasetune.PolicyDynamicProbe,
		phasetune.PolicyHybrid, phasetune.PolicyOracle,
	}
	specs := make([]phasetune.RunSpec, len(policies))
	for i, p := range policies {
		specs[i] = phasetune.RunSpec{Workload: w, DurationSec: duration, Seed: seed, Policy: p}
	}

	results, err := sess.Sweep(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d slots, %.0f simulated seconds, quad AMP\n\n", slots, duration)
	fmt.Printf("%-15s %14s %8s %10s %10s %12s\n",
		"policy", "instr/s", "tput%", "switches", "windows", "monitor cyc")
	base := throughput(results[0], duration)
	for i, res := range results {
		tput := throughput(res, duration)
		switches := 0
		for _, t := range res.Tasks {
			switches += t.Migrations
		}
		windows, cycles := uint64(0), uint64(0)
		if res.Online != nil {
			windows, cycles = res.Online.Windows, res.Online.ChargedCycles
		}
		fmt.Printf("%-15s %14.4g %+7.2f%% %10d %10d %12d\n",
			policies[i], tput, 100*(tput-base)/base, switches, windows, cycles)
	}
	fmt.Println("\nThe paper's claim is the ranking: static beats dynamic (no monitoring,")
	fmt.Println("no misprediction), dynamic still beats the asymmetry-unaware baseline.")
}

func throughput(res *phasetune.RunResult, duration float64) float64 {
	if len(res.Samples) < 2 {
		return 0
	}
	// Committed instructions per second over the run window.
	first, last := res.Samples[0], res.Samples[len(res.Samples)-1]
	if last.AtSec <= first.AtSec {
		return 0
	}
	return float64(last.Instructions-first.Instructions) / (last.AtSec - first.AtSec)
}
