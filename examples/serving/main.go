// Serving runs the open-system form of the paper's comparison through the
// public API: jobs arrive by a seeded Poisson process instead of refilling
// a fixed slot count, the overcommit dispatcher time-multiplexes whatever
// is runnable onto the machine, and the metric is the per-job sojourn-time
// tail. One offered load below saturation and one above, under the stock
// scheduler and each phase-aware policy, with p50/p95/p99/p999 columns.
package main

import (
	"context"
	"fmt"
	"log"

	"phasetune"
)

func main() {
	machine := phasetune.QuadAMP()
	sess := phasetune.NewSession(phasetune.WithMachine(machine))

	const (
		horizon  = 45.0 // admissions stop here...
		duration = 60.0 // ...so the backlog has time to drain
		seed     = 7
	)
	loads := []float64{0.75, 1.25}
	policies := []phasetune.Policy{
		phasetune.PolicyNone, phasetune.PolicyStatic,
		phasetune.PolicyDynamicProbe, phasetune.PolicyHybrid,
	}

	var specs []phasetune.RunSpec
	for _, load := range loads {
		for _, policy := range policies {
			arr := phasetune.ServingArrivals(machine, phasetune.ArrivalPoisson, load, horizon)
			specs = append(specs, phasetune.RunSpec{
				Workload:    phasetune.WorkloadSpec{Seed: seed, Arrivals: &arr},
				DurationSec: duration, Policy: policy, Seed: seed,
			})
		}
	}

	results, err := sess.Sweep(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("quad AMP, capacity %.2f fast-core equivalents, Poisson arrivals, seed %d\n\n",
		phasetune.MachineCapacity(machine), seed)
	fmt.Printf("%5s  %-14s %8s %6s %7s %7s %7s %7s %9s\n",
		"load", "policy", "admitted", "done", "p50", "p95", "p99", "p999", "peak-run")
	for i, res := range results {
		st := phasetune.SummarizeServing(res)
		fmt.Printf("%4.2fx  %-14s %8d %6d %7.2f %7.2f %7.2f %7.2f %9d\n",
			loads[i/len(policies)], policies[i%len(policies)],
			st.Admitted, st.Completed, st.P50, st.P95, st.P99, st.P999, st.PeakRunnable)
	}
	fmt.Println("\nBelow saturation the policies bunch; past it they separate — and the")
	fmt.Println("peak-run column shows the overcommit dispatcher multiplexing far more")
	fmt.Println("runnable jobs than the machine has cores.")
}
