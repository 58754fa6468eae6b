package dist

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/prog"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// servingSpec is a serving-form wire spec at the given seed and load.
func servingSpec(seed uint64, rate float64) Spec {
	return Spec{
		Queues: workload.Spec{Seed: seed, Arrivals: &workload.ArrivalSpec{
			Kind: workload.Poisson, RatePerSec: rate, HorizonSec: 7.5,
		}},
		DurationSec: 10,
		Seed:        seed,
	}
}

// TestRunConfigRejectsBadQueues lowers wire specs whose queue lengths are
// negative or past the job ceiling on every closed form: each must come
// back as an error, not a makeslice panic that would crash a worker. Open
// specs whose arrival generation would run past the ceiling must be
// refused too, not stall the worker generating them.
func TestRunConfigRejectsBadQueues(t *testing.T) {
	env := testCampaign().Env
	suite, err := env.Suite()
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string]workload.Spec{
		"suite":       {},
		"antagonist":  {Fleet: workload.FleetAntagonist},
		"alternation": {Alternations: 16},
	}
	lengths := []struct {
		name            string
		slots, queueLen int
		want            string
	}{
		{"negative slots", -1, 4, "negative queues"},
		{"negative queue_len", 4, -1, "negative queues"},
		{"both negative", -3, -2, "negative queues"},
		{"over ceiling", workload.MaxQueuedJobs, 2, "ceiling"},
		{"empty queues", 2, 0, "QueueLen must be at least 1"},
	}
	for form, q := range forms {
		for _, l := range lengths {
			t.Run(form+"/"+l.name, func(t *testing.T) {
				q.Slots, q.QueueLen = l.slots, l.queueLen
				_, err := env.RunConfig(Spec{Queues: q, DurationSec: 1}, suite, nil)
				if err == nil || !strings.Contains(err.Error(), l.want) {
					t.Fatalf("RunConfig(%+v) error = %v, want %q", q, err, l.want)
				}
			})
		}
	}
	for name, a := range map[string]workload.ArrivalSpec{
		"stalling bursty":    {Kind: workload.Bursty, RatePerSec: 1, HorizonSec: 1e6, CycleSec: 1e-6},
		"oversized max_jobs": {Kind: workload.Poisson, RatePerSec: 1, HorizonSec: 10, MaxJobs: 1 << 40},
		"stalling diurnal":   {Kind: workload.Diurnal, RatePerSec: 1, HorizonSec: 1e12, DiurnalPeriodSec: 1e-310},
	} {
		t.Run("arrivals/"+name, func(t *testing.T) {
			sp := Spec{Queues: workload.Spec{Arrivals: &a}, DurationSec: 1}
			if _, err := env.RunConfig(sp, suite, nil); err == nil || !strings.Contains(err.Error(), "workload: arrivals") {
				t.Fatalf("RunConfig(%+v) error = %v, want an arrivals error", a, err)
			}
		})
	}
}

// TestWorkerRefusesEmptyQueues: a closed spec whose slots queue no jobs
// fails on the fabric — the worker reports the refusal and the campaign
// fails — instead of committing an empty Result.
func TestWorkerRefusesEmptyQueues(t *testing.T) {
	camp := Campaign{Env: testCampaign().Env, Specs: []Spec{
		{Queues: workload.Spec{Slots: 2, Seed: 1}, DurationSec: 1, Mode: sim.Baseline, Seed: 1},
	}}
	_, err := RunLocal(context.Background(), camp, LocalOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "QueueLen must be at least 1") {
		t.Fatalf("RunLocal error = %v, want the empty-queue refusal", err)
	}
}

// TestRunConfigSharesFleets pins the generation table's contract: specs of
// one environment share the fleet's benchmarks whatever their seed, load
// or slot count, and another machine gets its own, generated exactly as a
// direct Generate would.
func TestRunConfigSharesFleets(t *testing.T) {
	env := testCampaign().Env
	lower := func(env EnvSpec, sp Spec) []*workload.Benchmark {
		t.Helper()
		cfg, err := env.RunConfig(sp, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Stream != nil {
			return cfg.Stream.Fleet
		}
		var out []*workload.Benchmark
		for _, q := range cfg.Workload.Slots {
			out = append(out, q[0])
		}
		return out
	}
	same := func(label string, a, b []*workload.Benchmark) {
		t.Helper()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: fleet sizes %d and %d", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: member %d (%s) generated twice", label, i, a[i].Name())
			}
		}
	}

	same("serving", lower(env, servingSpec(1, 1.45)), lower(env, servingSpec(23, 3.2)))
	ant := func(seed uint64, slots int) Spec {
		return Spec{Queues: workload.Spec{Slots: slots, QueueLen: 2, Seed: seed, Fleet: workload.FleetAntagonist}, Seed: seed}
	}
	same("antagonist", lower(env, ant(1, 4)), lower(env, ant(9, 6))[:4])
	alt := func(seed uint64, slots int) Spec {
		return Spec{Queues: workload.Spec{Slots: slots, QueueLen: 3, Seed: seed, Alternations: 64}, Seed: seed}
	}
	same("alternation", lower(env, alt(1, 4)), lower(env, alt(5, 8))[:4])

	quad := lower(env, servingSpec(1, 1.45))
	hexEnv := env
	hexEnv.Machine = *amp.Hex2Big2Medium2Little()
	hex := lower(hexEnv, servingSpec(1, 1.45))
	for i, b := range hex {
		if b == quad[i] {
			t.Fatalf("hex member %s shares the quad program", b.Name())
		}
		direct, err := workload.Generate(b.Spec, env.Cost, amp.Hex2Big2Medium2Little())
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := prog.Encode(&got, b.Prog); err != nil {
			t.Fatal(err)
		}
		if err := prog.Encode(&want, direct.Prog); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("hex member %s differs from a direct Generate", b.Name())
		}
	}
}

// TestRunConfigConcurrentGeneratesOnce lowers serving specs from several
// goroutines against a cold table: every goroutine must receive the same
// benchmarks, so each member was generated once.
func TestRunConfigConcurrentGeneratesOnce(t *testing.T) {
	env := testCampaign().Env
	hexEnv := env
	hexEnv.Machine = *amp.Hex2Big2Medium2Little()
	if _, err := hexEnv.RunConfig(servingSpec(1, 1.45), nil, nil); err != nil {
		t.Fatal(err) // evicts the quad fleets
	}
	const goroutines = 8
	fleets := make([][]*workload.Benchmark, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg, err := env.RunConfig(servingSpec(uint64(g), 1+float64(g)), nil, nil)
			if err != nil {
				errs[g] = err
				return
			}
			fleets[g] = cfg.Stream.Fleet
		}()
	}
	wg.Wait()
	for g := range fleets {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, b := range fleets[g] {
			if b != fleets[0][i] {
				t.Fatalf("goroutine %d got its own %s", g, b.Name())
			}
		}
	}
}

// fleetGenAllocs is what generating the six-member serving fleet allocates:
// workload.Generate over ServingSpecs on the quad machine, measured with
// testing.AllocsPerRun when every serving lowering regenerated the fleet
// (one serving RunConfig then allocated 786; a warm one now allocates 12).
const fleetGenAllocs = 779

// TestWarmServingRunConfigAllocs guards the sharing: a warm serving
// lowering allocates its arrival schedule and config, not a fleet.
func TestWarmServingRunConfigAllocs(t *testing.T) {
	env := testCampaign().Env
	sp := servingSpec(1, 1.45)
	if _, err := env.RunConfig(sp, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := env.RunConfig(sp, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= fleetGenAllocs {
		t.Fatalf("warm serving RunConfig allocates %.0f times, at least one fleet generation (%d)", allocs, fleetGenAllocs)
	}
}
