// Package prof implements the -cpuprofile and -memprofile flags of the
// commands that run simulations (cmd/experiments, sweepd -worker): one
// place to start and stop host profiling for a whole invocation.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the profiles the flags name; an empty path skips its
// profile. Both files are created at once, so a bad path fails before any
// work runs. The returned stop ends the CPU profile and writes the heap
// profile after a final GC, so it shows live retention rather than
// transient garbage. A failed heap write is reported on stderr under cmd's
// name, not returned: the work it profiled has already finished.
func Start(cmd, cpuPath, memPath string) (stop func(), err error) {
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
		f.Close()
	}
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", cmd, err)
			}
		}
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
