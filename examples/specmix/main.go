// Specmix runs the paper's headline comparison on a mixed workload: the
// SPEC-like suite in an 18-slot constant-size workload, stock scheduler
// versus phase-based tuning (Loop[45]), reporting the Table 2 metrics.
//
// The two runs go through one Session.Sweep: they execute concurrently,
// share the session's artifact cache, and come back in input order.
package main

import (
	"context"
	"fmt"
	"log"

	"phasetune"
)

func main() {
	w := phasetune.WorkloadSpec{Slots: 18, QueueLen: 256, Seed: 5}
	const duration = 400

	sess := phasetune.NewSession()
	results, err := sess.Sweep(context.Background(), []phasetune.RunSpec{
		{Workload: w, DurationSec: duration, Policy: phasetune.PolicyNone, Seed: 7},
		{Workload: w, DurationSec: duration, Policy: phasetune.PolicyStatic, Seed: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	base, tuned := results[0], results[1]

	bAvg := phasetune.AvgProcessTime(base.Tasks)
	tAvg := phasetune.AvgProcessTime(tuned.Tasks)
	fmt.Printf("workload: 18 slots, %ds window, shared queues\n\n", duration)
	fmt.Printf("%-22s %12s %12s\n", "metric", "baseline", "tuned")
	fmt.Printf("%-22s %12.2f %12.2f\n", "avg process time (s)", bAvg, tAvg)
	fmt.Printf("%-22s %12.2f %12.2f\n", "max flow (s)",
		phasetune.MaxFlow(base.Tasks), phasetune.MaxFlow(tuned.Tasks))
	fmt.Printf("%-22s %12d %12d\n", "jobs completed",
		completed(base.Tasks), completed(tuned.Tasks))
	fmt.Printf("%-22s %12d %12d\n", "instructions (M)",
		base.TotalInstructions/1e6, tuned.TotalInstructions/1e6)

	switches := 0
	for _, t := range tuned.Tasks {
		switches += t.Migrations
	}
	fmt.Printf("\ntuned run made %d core switches; avg process time improved %.1f%%\n",
		switches, 100*(bAvg-tAvg)/bAvg)
}

func completed(tasks []phasetune.TaskStat) int {
	n := 0
	for _, t := range tasks {
		if t.Completed() {
			n++
		}
	}
	return n
}
