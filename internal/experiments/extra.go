package experiments

import (
	"context"

	"phasetune/internal/amp"
	"phasetune/internal/cfg"
	"phasetune/internal/exec"
	"phasetune/internal/instrument"
	"phasetune/internal/isa"
	"phasetune/internal/osched"
	"phasetune/internal/perfcnt"
	"phasetune/internal/phase"
	"phasetune/internal/place"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/transition"
	"phasetune/internal/tuning"
	"phasetune/internal/workload"
)

// ---------------------------------------------------------------------------
// §IV-B3 — core-switch cost micro-measurement.

// SwitchCostResult reports the measured per-switch cost.
type SwitchCostResult struct {
	// CyclesPerSwitch is the measured cost under the scaled clock.
	CyclesPerSwitch float64
	// DescaledCycles multiplies by workload.ScaleDivisor for comparison
	// with the paper's ~1000 cycles.
	DescaledCycles float64
	// Switches is the number of migrations the probe performed.
	Switches int
}

// SwitchCost reproduces the paper's micro-methodology: "writing a program
// that alternates between cores and then counting the cycles of execution"
// — run the alternator, run a pinned control, divide the extra time by the
// switch count.
func SwitchCost(cfg Config) (SwitchCostResult, error) {
	alternations := 2000
	p := &prog.Program{
		Name: "switchprobe",
		Procs: []*prog.Procedure{{
			Name: "main",
			Instrs: []isa.Instruction{
				{Op: isa.PhaseMark, MarkID: 0, Bytes: 73},
				{Op: isa.IntALU}, {Op: isa.IntALU},
				{Op: isa.Branch, Target: 0, TripCount: int32(alternations), TakenProb: 0.99},
				{Op: isa.Ret},
			},
		}},
	}
	bin := &instrument.Binary{Prog: p, Marks: []instrument.Mark{{ID: 0, Type: 0}}}

	run := func(hook exec.MarkHook, affinity uint64) (int64, int, error) {
		kernel, err := osched.NewKernel(cfg.Machine, cfg.Cost, cfg.Sched)
		if err != nil {
			return 0, 0, err
		}
		img, err := exec.NewImage(p, bin, cfg.Cost)
		if err != nil {
			return 0, 0, err
		}
		proc := exec.NewProcess(kernel.NextPID(), img, &kernel.Cost, 1, hook)
		task := kernel.Spawn(proc, "probe", 0, affinity)
		if err := kernel.RunUntilDone(1e6); err != nil {
			return 0, 0, err
		}
		return task.CompletionPs - task.ArrivalPs, task.Migrations, nil
	}

	// Alternate between one fast and one slow core on every mark.
	alt := &alternator{masks: []uint64{amp.CoreMask(0), amp.CoreMask(cfg.Machine.NumCores() - 1)}}
	altPs, switches, err := run(alt, 0)
	if err != nil {
		return SwitchCostResult{}, err
	}
	pinPs, _, err := run(nil, amp.CoreMask(0))
	if err != nil {
		return SwitchCostResult{}, err
	}
	if switches == 0 {
		return SwitchCostResult{}, nil
	}
	// Convert the extra wall time to fast-core cycles. The alternator also
	// spends half its bursts on the slow core; the pinned control runs all
	// fast, so subtract the expected clock-ratio inflation first by running
	// the comparison in time and charging cycles at the fast clock. This is
	// the paper's level of precision ("more precise measurement could be
	// done, but this is sufficient").
	extraSec := osched.PsToSec(altPs - pinPs)
	cycles := extraSec * cfg.Machine.Types[0].CyclesPerSec / float64(switches)
	return SwitchCostResult{
		CyclesPerSwitch: cycles,
		DescaledCycles:  cycles * workload.ScaleDivisor,
		Switches:        switches,
	}, nil
}

type alternator struct {
	masks []uint64
	i     int
}

func (a *alternator) OnMark(p *exec.Process, markID, coreID int) exec.MarkAction {
	a.i++
	return exec.MarkAction{Mask: a.masks[a.i%len(a.masks)]}
}
func (a *alternator) OnExit(p *exec.Process) {}

// ---------------------------------------------------------------------------
// §II-A3 — static typing accuracy against observed behavior.

// TypingAccuracyResult reports agreement between the static k-means typing
// and an oracle typing built from observed per-core-type IPC (the paper:
// "this technique miss-classifies only about 15% of loops").
type TypingAccuracyResult struct {
	// Agreement is the fraction of blocks typed identically.
	Agreement float64
	// Blocks is the number of blocks compared.
	Blocks int
}

// TypingAccuracy profiles every large block of every suite benchmark on both
// core types in isolation and compares k-means types with the IPC-derived
// oracle.
func TypingAccuracy(c Config, ipcThreshold float64) (TypingAccuracyResult, error) {
	m := c.Machine
	pars := exec.ParamsFor(c.Cost, m)
	// Each core type runs under the L2 group of the core it stands for
	// (its first), as the scheduler prices it.
	shareKB := make([]float64, len(pars))
	for t := range pars {
		coreID := 0
		if ids := m.CoresOfType(pars[t].Type); len(ids) > 0 {
			coreID = ids[0]
		}
		shareKB[t] = m.L2s[m.Cores[coreID].L2].SizeKB
	}
	totalCommon, totalAgree := 0, 0
	for _, b := range c.Suite {
		graphs, err := cfg.BuildAll(b.Prog)
		if err != nil {
			return TypingAccuracyResult{}, err
		}
		static, err := phase.ClusterBlocks(b.Prog, graphs, c.Typing)
		if err != nil {
			return TypingAccuracyResult{}, err
		}
		// Observed IPC per block per core type, from the block cost model
		// itself (execution in isolation with its group's full L2).
		ipc := map[phase.BlockKey][]float64{}
		for pi, g := range graphs {
			for _, blk := range g.Blocks {
				key := phase.BlockKey{Proc: pi, Block: blk.ID}
				if static.TypeOf(key) == phase.Untyped {
					continue
				}
				var vals []float64
				for t := range pars {
					vals = append(vals, exec.BlockIPC(blk, &pars[t], c.Cost, shareKB[t]))
				}
				ipc[key] = vals
			}
		}
		oracle := phase.OracleTyping(ipc, ipcThreshold)
		for key, st := range static.Types {
			ot, ok := oracle.Types[key]
			if !ok {
				continue
			}
			totalCommon++
			// Compare on the memory-leaning axis: static type>0 means
			// memory-leaning cluster, oracle type 1 means slow-core-favored.
			if (st > 0) == (ot == 1) {
				totalAgree++
			}
		}
	}
	if totalCommon == 0 {
		return TypingAccuracyResult{}, nil
	}
	return TypingAccuracyResult{
		Agreement: float64(totalAgree) / float64(totalCommon),
		Blocks:    totalCommon,
	}, nil
}

// ---------------------------------------------------------------------------
// §VII — the 3-core (2 fast, 1 slow) future-work configuration.

// ThreeCore runs the Table 2 headline comparison on the 3-core machine
// (paper: ~32% speedup).
func ThreeCore(cfg Config) (FairnessRow, error) {
	cfg, err := cfg.on(amp.ThreeCore2Fast1Slow())
	if err != nil {
		return FairnessRow{}, err
	}
	rows, err := Table2Fairness(cfg, []transition.Params{BestParams()})
	if err != nil {
		return FairnessRow{}, err
	}
	return rows[0], nil
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5, "Experiment drivers"). Each comparison is a list
// of Table 2 rows whose Variant names the ablation arm.

// ablateTuning runs the best technique's Table 2 row once per named
// variant of the runtime configuration; edit turns cfg.Tuning into
// variant i.
func ablateTuning(cfg Config, names []string, edit func(t *tuning.Config, i int)) ([]FairnessRow, error) {
	rows := make([]FairnessRow, len(names))
	for i, name := range names {
		c := cfg
		edit(&c.Tuning, i)
		res, err := Table2Fairness(c, []transition.Params{BestParams()})
		if err != nil {
			return nil, err
		}
		rows[i] = res[0]
		rows[i].Variant = name
	}
	return rows, nil
}

// AblationPinMode compares pin-to-core-type (default) against pin-to-single-
// core (the paper's literal Algorithm 2 output) for the best technique.
func AblationPinMode(cfg Config) ([]FairnessRow, error) {
	return ablateTuning(cfg, []string{"pin-type", "pin-core"}, func(t *tuning.Config, i int) {
		t.PinSingleCore = i == 1
	})
}

// AblationMonitorBound compares bounded monitoring windows (the configured
// bound) against the strict paper reading (samples close only at marks).
func AblationMonitorBound(cfg Config) ([]FairnessRow, error) {
	return ablateTuning(cfg, []string{"bounded-monitor", "mark-only-monitor"}, func(t *tuning.Config, i int) {
		if i == 1 {
			t.MaxMonitorCycles = 0
		}
	})
}

// AblationPropagation compares type propagation through untyped sections
// against the naive edge rule: the suite's total static mark count under
// each.
func AblationPropagation(cfg Config) (propagate, naive int, err error) {
	var marks [2]int
	for i, prop := range []bool{true, false} {
		params := BestParams()
		params.PropagateThroughUntyped = prop
		for _, b := range cfg.Suite {
			art, err := cfg.artifact(b, params)
			if err != nil {
				return 0, 0, err
			}
			marks[i] += art.Stats.Marks
		}
	}
	return marks[0], marks[1], nil
}

// ---------------------------------------------------------------------------
// Temporal baseline (§V, Kumar et al.): resample every interval instead of
// positionally at phase marks.

// TemporalTuner is a time-driven adaptation baseline: every ResampleCycles
// it rotates the process across core types measuring IPC, then pins to the
// Algorithm 2 choice, and repeats forever. It ignores phase marks.
type TemporalTuner struct {
	cfg      tuning.Config
	machine  *amp.Machine
	resample uint64

	lastCycles uint64
	probing    int
	samples    []float64
	es         perfcnt.EventSet
	active     bool
}

// NewTemporalTuner builds the baseline hook.
func NewTemporalTuner(cfg tuning.Config, machine *amp.Machine, resampleCycles uint64) *TemporalTuner {
	return &TemporalTuner{cfg: cfg, machine: machine, resample: resampleCycles,
		samples: make([]float64, len(machine.Types))}
}

// OnMark ignores marks (charges only their cost).
func (t *TemporalTuner) OnMark(p *exec.Process, markID, coreID int) exec.MarkAction {
	return exec.MarkAction{}
}

// OnExit implements exec.MarkHook.
func (t *TemporalTuner) OnExit(p *exec.Process) {}

// OnQuantum drives the temporal sampling state machine.
func (t *TemporalTuner) OnQuantum(p *exec.Process, coreID int) exec.MarkAction {
	now := p.Counters.Cycles
	if !t.active {
		if now-t.lastCycles < t.resample {
			return exec.MarkAction{}
		}
		// Begin a sampling round on core type 0.
		t.active = true
		t.probing = 0
		t.es = perfcnt.Start(&p.Counters)
		return exec.MarkAction{Mask: t.machine.TypeMask(0)}
	}
	instrs, cycles := t.es.Stop(&p.Counters)
	if cycles < t.resample/8 {
		return exec.MarkAction{} // keep sampling this type a bit longer
	}
	t.samples[t.probing] = perfcnt.IPC(instrs, cycles)
	t.probing++
	if t.probing < len(t.machine.Types) {
		t.es = perfcnt.Start(&p.Counters)
		return exec.MarkAction{Mask: t.machine.TypeMask(amp.CoreTypeID(t.probing))}
	}
	// Round complete: pin to the Algorithm 2 choice until next resample.
	t.active = false
	t.lastCycles = now
	target := place.Select(t.machine, t.samples, t.cfg.Delta)
	return exec.MarkAction{Mask: t.machine.TypeMask(target)}
}

// AblationTemporal compares positional (phase-mark) adaptation with the
// temporal resampling baseline.
func AblationTemporal(cfg Config, resampleCycles uint64) ([]FairnessRow, error) {
	rows, err := Table2Fairness(cfg, []transition.Params{BestParams()})
	if err != nil {
		return nil, err
	}
	isoSec, err := IsolationTimes(cfg)
	if err != nil {
		return nil, err
	}
	base, err := cfg.baselines(cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	temporal := make(cell, len(cfg.Seeds))
	for i, seed := range cfg.Seeds {
		if temporal[i], err = runTemporal(cfg, seed, resampleCycles); err != nil {
			return nil, err
		}
	}
	row, err := fairness(isoSec, base, temporal)
	if err != nil {
		return nil, err
	}
	rows[0].Variant, row.Variant = "positional(loop45)", "temporal(kumar)"
	return []FairnessRow{rows[0], row}, nil
}

// runTemporal is the baseline cell of one seed with TemporalTuner hooks on
// its uninstrumented images.
func runTemporal(cfg Config, seed uint64, resampleCycles uint64) (*sim.Result, error) {
	sp := cfg.runCfg(sim.PolicyNone, transition.Params{}, tuning.Config{}, 0, seed, cfg.DurationSec)
	rc, err := cfg.Env().RunConfig(sp, cfg.Suite, cfg.cache())
	if err != nil {
		return nil, err
	}
	return sim.RunWithHookContext(context.Background(), rc, func(k *osched.Kernel, img *exec.Image) exec.MarkHook {
		return NewTemporalTuner(cfg.Tuning, cfg.Machine, resampleCycles)
	})
}
