// Command runcmp diffs two runs' cycle ledgers category by category — the
// where-did-the-cycles-go answer to "why is policy A faster than policy B
// here". Each side is either a policy name (the run is executed
// on the selected machine with accounting on) or a path to a result JSON
// file (as committed by the dist fabric or written by `ampsim -ledger`),
// so the same tool compares policy-vs-policy and file-vs-file — two
// commits' saved results, two machines, two seeds.
//
// Usage:
//
//	runcmp [-a static] [-b hybrid] [-machine quad|tri|hex]
//	       [-slots N] [-duration SEC] [-seed N] [-quick] [-width N]
//	runcmp -a old-result.json -b new-result.json
//
// Output: both sides' conservation check (every ledger must verify before
// it is compared), a per-category table in milliseconds of machine time,
// and a waterfall of the deltas (B − A) around a zero axis. Positive bars
// are cycles B spends that A does not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"phasetune"
	"phasetune/internal/amp"
	"phasetune/internal/experiments"
	"phasetune/internal/ledger"
	"phasetune/internal/osched"
	"phasetune/internal/sim"
	"phasetune/internal/textplot"
)

func main() {
	aFlag := flag.String("a", "static", "side A: policy name or result-JSON path")
	bFlag := flag.String("b", "hybrid", "side B: policy name or result-JSON path")
	machineFlag := flag.String("machine", "hex", "machine for policy sides: quad|tri|hex (or a full machine name)")
	slots := flag.Int("slots", 0, "workload slots for policy sides (0 = default 18)")
	duration := flag.Float64("duration", 0, "duration in simulated seconds for policy sides (0 = default 800)")
	seed := flag.Uint64("seed", 5, "workload seed for policy sides")
	quick := flag.Bool("quick", false, "shrink policy-side workloads for a fast pass")
	width := flag.Int("width", 60, "waterfall width in characters")
	flag.Parse()

	la, descA, err := resolveSide(*aFlag, *machineFlag, *slots, *duration, *seed, *quick)
	if err != nil {
		fatal(fmt.Errorf("-a %s: %w", *aFlag, err))
	}
	lb, descB, err := resolveSide(*bFlag, *machineFlag, *slots, *duration, *seed, *quick)
	if err != nil {
		fatal(fmt.Errorf("-b %s: %w", *bFlag, err))
	}

	for _, side := range []struct {
		name string
		l    *ledger.Ledger
	}{{"A", la}, {"B", lb}} {
		if err := side.l.Verify(); err != nil {
			fatal(fmt.Errorf("side %s failed conservation: %w", side.name, err))
		}
	}

	fmt.Printf("A: %s  (%d cores, horizon %.2fs, machine time %.1f ms)\n",
		descA, la.Cores, osched.PsToSec(la.HorizonPs), ms(int64(la.Cores)*la.HorizonPs))
	fmt.Printf("B: %s  (%d cores, horizon %.2fs, machine time %.1f ms)\n",
		descB, lb.Cores, osched.PsToSec(lb.HorizonPs), ms(int64(lb.Cores)*lb.HorizonPs))
	fmt.Println("both ledgers verified: categories sum exactly to cores x horizon")
	fmt.Println()

	cats := ledger.Categories()
	va, vb := la.Total.Values(), lb.Total.Values()
	totalA := float64(int64(la.Cores) * la.HorizonPs)

	t := textplot.NewTable("category", "A (ms)", "B (ms)", "delta (ms)", "delta (% of A time)")
	deltas := make([]float64, len(cats))
	for i, c := range cats {
		d := vb[i] - va[i]
		deltas[i] = ms(d)
		t.AddRow(c,
			fmt.Sprintf("%.1f", ms(va[i])),
			fmt.Sprintf("%.1f", ms(vb[i])),
			fmt.Sprintf("%+.1f", ms(d)),
			fmt.Sprintf("%+.2f", 100*float64(d)/totalA))
	}
	fmt.Print(t.String())

	fmt.Println("\nwaterfall — B − A per category (cycles B spends that A does not)")
	fmt.Print(textplot.Waterfall(cats, deltas, "ms", *width))
}

// ms converts simulated picoseconds to milliseconds.
func ms(ps int64) float64 { return float64(ps) / 1e9 }

// resolveSide materializes one side of the diff: an existing file loads as
// a committed result (its run must have carried a ledger); anything else
// parses as a policy name and runs through a phasetune.Session on the
// selected machine with accounting on, exactly as `ampsim -ledger` runs it.
func resolveSide(arg, machineName string, slots int, duration float64, seed uint64, quick bool) (*ledger.Ledger, string, error) {
	if _, err := os.Stat(arg); err == nil {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, "", err
		}
		var res sim.Result
		if err := json.Unmarshal(data, &res); err != nil {
			// Not a bare Result? Accept a bare Ledger document too (the
			// form `ampsim -ledger` writes).
			var l ledger.Ledger
			if err2 := json.Unmarshal(data, &l); err2 == nil && l.Cores > 0 {
				return &l, arg, nil
			}
			return nil, "", fmt.Errorf("not a result or ledger JSON: %w", err)
		}
		if res.Ledger == nil {
			// A bare Ledger also decodes into sim.Result with a nil Ledger
			// field; retry before giving up.
			var l ledger.Ledger
			if json.Unmarshal(data, &l) == nil && l.Cores > 0 {
				return &l, arg, nil
			}
			return nil, "", fmt.Errorf("result carries no ledger (rerun with accounting enabled)")
		}
		return res.Ledger, arg, nil
	}

	p, err := phasetune.ParsePolicy(arg)
	if err != nil {
		return nil, "", err
	}
	machine, err := amp.ByName(machineName)
	if err != nil {
		return nil, "", err
	}
	// The experiments config supplies the -quick and default workload
	// sizes; the run itself is the one -seed cell, as ampsim runs it.
	cfg, err := experiments.FlagConfig(quick, slots, duration, "")
	if err != nil {
		return nil, "", err
	}
	sess := phasetune.NewSession(phasetune.WithMachine(machine), phasetune.WithLedger())
	res, err := sess.Run(phasetune.RunSpec{
		Workload:    phasetune.WorkloadSpec{Slots: cfg.Slots, QueueLen: cfg.QueueLen, Seed: seed},
		DurationSec: cfg.DurationSec, Policy: p, Seed: seed,
	})
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%s on %s (seed %d, %d slots, %.0fs)",
		p, machine.Name, seed, cfg.Slots, cfg.DurationSec)
	return res.Ledger, desc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runcmp:", err)
	os.Exit(1)
}
