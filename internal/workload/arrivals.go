// Open-system serving: arrival processes and the serving fleet.
//
// Every experiment before the serving family is a closed batch — a fixed
// fleet runs to completion. The serving layer (internal/serve and the
// Serving experiment) instead models an open system: jobs arrive over time
// under a stochastic arrival process, demand can exceed core supply, and
// the metric of interest is the sojourn-time tail (p99), not aggregate
// throughput. This file provides the arrival side: ArrivalSpec describes a
// seeded arrival process (Poisson, Markov-modulated bursty, or diurnal),
// and Spec.MaterializeOpen lowers it to a concrete Stream — a short-job
// serving fleet plus a timestamped arrival list.
//
// Determinism is the load-bearing property: a stream is a pure function of
// (ArrivalSpec, Seed), generated with the repo's own splitmix64 generator
// and pure-Go float math, so any process holding the same spec regenerates
// a byte-identical stream. That is what lets serving campaigns shard across
// the distributed sweep fabric and merge byte-identically with a
// sequential run.
package workload

import (
	"fmt"
	"math"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
	"phasetune/internal/rng"
)

// ArrivalKind selects the arrival-process family.
type ArrivalKind int

const (
	// Poisson is a homogeneous Poisson process: independent exponential
	// inter-arrival times at RatePerSec.
	Poisson ArrivalKind = iota
	// Bursty is a Markov-modulated on/off process: the instantaneous rate
	// switches between a high "on" rate and a low "off" rate, with
	// exponentially distributed state durations. The long-run mean rate is
	// RatePerSec; BurstFactor, OnFraction, and CycleSec shape the bursts.
	Bursty
	// Diurnal is a non-homogeneous Poisson process whose rate follows a
	// sinusoidal trace — the scaled-down analogue of a daily traffic curve —
	// generated by thinning against the peak rate. The time-averaged rate is
	// RatePerSec; DiurnalAmp and DiurnalPeriodSec shape the curve.
	Diurnal
)

// String names the kind.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	}
	return fmt.Sprintf("arrivalkind(%d)", int(k))
}

// ParseArrivalKind resolves an arrival-process name (as accepted by
// cmd/ampsim -arrivals).
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	case "diurnal":
		return Diurnal, nil
	}
	return Poisson, fmt.Errorf("unknown arrival process %q (want poisson|bursty|diurnal)", s)
}

// ArrivalSpec describes a seeded arrival process. Together with a workload
// Spec's Seed it deterministically generates a job stream: each arrival
// carries an admission timestamp and an index into the serving fleet.
type ArrivalSpec struct {
	// Kind selects the process family.
	Kind ArrivalKind `json:"kind"`
	// RatePerSec is the long-run mean arrival rate in jobs per simulated
	// second. Must be positive.
	RatePerSec float64 `json:"rate_per_sec"`
	// HorizonSec bounds arrival generation: arrivals land in [0, HorizonSec).
	// Runs typically use a horizon shorter than the run duration so the tail
	// of admitted jobs can drain. Must be positive.
	HorizonSec float64 `json:"horizon_sec"`
	// BurstFactor (Bursty only) is the on-state rate relative to the
	// off-state rate. Non-positive defaults to 4.
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// OnFraction (Bursty only) is the long-run fraction of time spent in the
	// on state, in (0,1). Out-of-range defaults to 0.35.
	OnFraction float64 `json:"on_fraction,omitempty"`
	// CycleSec (Bursty only) is the mean on+off cycle length in seconds.
	// Non-positive defaults to 20.
	CycleSec float64 `json:"cycle_sec,omitempty"`
	// DiurnalAmp (Diurnal only) is the relative amplitude of the rate curve
	// in (0,1): the rate swings between Rate*(1-Amp) and Rate*(1+Amp).
	// Out-of-range defaults to 0.6.
	DiurnalAmp float64 `json:"diurnal_amp,omitempty"`
	// DiurnalPeriodSec (Diurnal only) is the period of the rate curve.
	// Non-positive defaults to HorizonSec (one full day per run).
	DiurnalPeriodSec float64 `json:"diurnal_period_sec,omitempty"`
	// MaxJobs caps the generated stream length as a runaway guard.
	// Non-positive defaults to 100000; at most MaxQueuedJobs.
	MaxJobs int `json:"max_jobs,omitempty"`
}

// Validate checks the spec can generate a non-degenerate stream in bounded
// time: MaxJobs bounds the arrivals, and a bursty spec's expected state
// switches, about 2·HorizonSec/CycleSec, which admit no job, may not exceed
// MaxQueuedJobs either. A diurnal period so short that the rate curve's
// phase overflows within the horizon is refused too: past the overflow
// the curve is NaN, so thinning rejects every draw until the horizon.
func (a ArrivalSpec) Validate() error {
	if a.Kind < Poisson || a.Kind > Diurnal {
		return fmt.Errorf("workload: arrivals: unknown kind %d", int(a.Kind))
	}
	if a.RatePerSec <= 0 {
		return fmt.Errorf("workload: arrivals: rate must be positive (got %g/s)", a.RatePerSec)
	}
	if a.HorizonSec <= 0 {
		return fmt.Errorf("workload: arrivals: horizon must be positive (got %gs)", a.HorizonSec)
	}
	if math.IsNaN(a.RatePerSec) || math.IsInf(a.RatePerSec, 0) ||
		math.IsNaN(a.HorizonSec) || math.IsInf(a.HorizonSec, 0) {
		return fmt.Errorf("workload: arrivals: rate and horizon must be finite")
	}
	if a.MaxJobs > MaxQueuedJobs {
		return fmt.Errorf("workload: arrivals: max_jobs %d exceeds the %d-job ceiling", a.MaxJobs, MaxQueuedJobs)
	}
	d := a.withDefaults()
	switch a.Kind {
	case Bursty:
		if switches := 2 * a.HorizonSec / d.CycleSec; !(switches <= MaxQueuedJobs) {
			return fmt.Errorf("workload: arrivals: a %gs horizon of %gs bursty cycles switches state about %.3g times, past the %d-switch ceiling",
				a.HorizonSec, d.CycleSec, switches, MaxQueuedJobs)
		}
	case Diurnal:
		if phase := 2 * math.Pi * a.HorizonSec / d.DiurnalPeriodSec; math.IsInf(phase, 0) || math.IsNaN(phase) {
			return fmt.Errorf("workload: arrivals: a %gs diurnal period overflows the rate curve's phase within the %gs horizon",
				d.DiurnalPeriodSec, a.HorizonSec)
		}
	}
	return nil
}

// withDefaults fills the optional knobs.
func (a ArrivalSpec) withDefaults() ArrivalSpec {
	if a.BurstFactor <= 0 {
		a.BurstFactor = 4
	}
	if a.OnFraction <= 0 || a.OnFraction >= 1 {
		a.OnFraction = 0.35
	}
	if a.CycleSec <= 0 {
		a.CycleSec = 20
	}
	if a.DiurnalAmp <= 0 || a.DiurnalAmp >= 1 {
		a.DiurnalAmp = 0.6
	}
	if a.DiurnalPeriodSec <= 0 {
		a.DiurnalPeriodSec = a.HorizonSec
	}
	if a.MaxJobs <= 0 {
		a.MaxJobs = 100000
	}
	return a
}

// Arrival is one admitted job: when it arrives and which fleet member it
// instantiates.
type Arrival struct {
	// AtSec is the admission timestamp in simulated seconds.
	AtSec float64 `json:"at_sec"`
	// Fleet indexes Stream.Fleet.
	Fleet int `json:"fleet"`
}

// Stream is a materialized open-system workload: the serving fleet plus
// the timestamped arrival list, sorted by arrival time.
type Stream struct {
	// Fleet holds the generated serving benchmarks arrivals draw from.
	Fleet []*Benchmark
	// Arrivals is the admission schedule, ascending in AtSec.
	Arrivals []Arrival
}

// arrivalStreamSalt decorrelates the arrival-stream generator from the
// other consumers of the run seed (per-process branch seeds, typing-error
// injection).
const arrivalStreamSalt = 0x0a2217a15e27e5

// expDraw draws an exponential variate with the given rate (mean 1/rate).
func expDraw(r *rng.Source, rate float64) float64 {
	// Float64 is in [0,1), so 1-u is in (0,1] and the log is finite.
	return -math.Log(1-r.Float64()) / rate
}

// generate produces the arrival schedule for seed. Pure function of
// (spec, seed, fleetSize).
func (a ArrivalSpec) generate(seed uint64, fleetSize int) []Arrival {
	a = a.withDefaults()
	r := rng.New(seed ^ arrivalStreamSalt)
	var out []Arrival
	emit := func(t float64) {
		out = append(out, Arrival{AtSec: t, Fleet: r.Intn(fleetSize)})
	}
	switch a.Kind {
	case Poisson:
		t := 0.0
		for len(out) < a.MaxJobs {
			t += expDraw(r, a.RatePerSec)
			if t >= a.HorizonSec {
				break
			}
			emit(t)
		}
	case Bursty:
		// Two-state Markov modulation. Rates are chosen so the long-run mean
		// is RatePerSec: f*on + (1-f)*off = rate with on = BurstFactor*off.
		off := a.RatePerSec / (a.OnFraction*a.BurstFactor + (1 - a.OnFraction))
		on := a.BurstFactor * off
		meanDur := func(isOn bool) float64 {
			if isOn {
				return a.OnFraction * a.CycleSec
			}
			return (1 - a.OnFraction) * a.CycleSec
		}
		t := 0.0
		isOn := r.Float64() < a.OnFraction
		stateEnd := t + expDraw(r, 1/meanDur(isOn))
		for len(out) < a.MaxJobs {
			rate := off
			if isOn {
				rate = on
			}
			next := t + expDraw(r, rate)
			if next >= stateEnd {
				// The modulated Poisson process is memoryless, so jumping to
				// the state boundary and redrawing in the new state is exact.
				t = stateEnd
				isOn = !isOn
				stateEnd = t + expDraw(r, 1/meanDur(isOn))
				if t >= a.HorizonSec {
					break
				}
				continue
			}
			t = next
			if t >= a.HorizonSec {
				break
			}
			emit(t)
		}
	case Diurnal:
		// Lewis–Shedler thinning against the peak rate.
		peak := a.RatePerSec * (1 + a.DiurnalAmp)
		t := 0.0
		for len(out) < a.MaxJobs {
			t += expDraw(r, peak)
			if t >= a.HorizonSec {
				break
			}
			rate := a.RatePerSec * (1 + a.DiurnalAmp*math.Sin(2*math.Pi*t/a.DiurnalPeriodSec))
			if r.Float64()*peak <= rate {
				emit(t)
			}
		}
	}
	return out
}

// ServingSpecs returns the serving fleet personalities: short request-sized
// jobs (0.6–1.8 s isolation time on a fast core) reusing the suite's
// personality table, mixing compute-bound, memory-bound, and alternating
// behavior so placement policies have something to decide per admission.
// The fleet is a pure function of nothing — like Specs, any process
// regenerates it bit-identically against the same (cost, machine).
func ServingSpecs() []BenchSpec {
	mk := func(name, personality string, target float64, alts, static int) BenchSpec {
		return BenchSpec{
			Name:         name,
			Personality:  personality,
			TargetSec:    target,
			Alternations: alts,
			StaticInstrs: static,
		}
	}
	return []BenchSpec{
		mk("srv.gzip", "164.gzip", 1.2, 2, 2000),      // compute-leaning alternator
		mk("srv.equake", "183.equake", 1.5, 12, 3000), // fast cpu/mem alternator
		mk("srv.astar", "473.astar", 0.8, 1, 2500),    // single mixed phase
		mk("srv.mcf", "181.mcf", 1.8, 1, 2500),        // memory-bound
		mk("srv.swim", "171.swim", 1.0, 4, 3000),      // fp/mem alternator
		mk("srv.art", "179.art", 0.6, 1, 2000),        // short memory-bound
	}
}

// ServingMeanServiceSec is the mean designed isolation runtime of the
// serving fleet on a fast core — the service-time side of the offered-load
// calculation (internal/serve).
func ServingMeanServiceSec() float64 {
	specs := ServingSpecs()
	sum := 0.0
	for _, s := range specs {
		sum += s.TargetSec
	}
	return sum / float64(len(specs))
}

// MaterializeOpen builds the open-system stream for a spec carrying an
// arrival process: the serving fleet comes from the environment's
// generation table (generated against (cost, machine) once, then shared by
// every stream of that environment), and the arrival schedule is generated
// from (Arrivals, Seed). Both are pure functions of their inputs, so
// arrival-axis specs rebuild bit-identically across processes — the same
// contract Materialize gives closed workloads.
func (s Spec) MaterializeOpen(cm exec.CostModel, machine *amp.Machine) (*Stream, error) {
	if s.Arrivals == nil {
		return nil, fmt.Errorf("workload: spec carries no arrival process; closed workloads go through Materialize")
	}
	if err := s.Arrivals.Validate(); err != nil {
		return nil, err
	}
	fleet, err := generated(ServingSpecs(), cm, machine)
	if err != nil {
		return nil, err
	}
	arrivals := s.Arrivals.generate(s.Seed, len(fleet))
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("workload: arrival spec produced an empty stream (rate %g/s over %gs); raise the rate or horizon",
			s.Arrivals.RatePerSec, s.Arrivals.HorizonSec)
	}
	return &Stream{Fleet: fleet, Arrivals: arrivals}, nil
}
