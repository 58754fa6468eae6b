package dist_test

// Native fuzz targets for the fabric wire format. The wire is the trust
// boundary of the distributed sweep: coordinators accept campaign uploads
// and workers accept spec leases from the network, so decoding must never
// panic on arbitrary bytes, and anything that decodes must re-encode
// canonically — Marshal(Unmarshal(x)) must be a fixed point, because the
// byte-identical merge contract keys dedup on encoded bytes. The seed
// corpus covers every campaign family (showdown, technique grid, window,
// breakdown, serving, contention), so structural drift in any spec shape
// immediately joins the fuzz frontier.

import (
	"bytes"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
	"phasetune/internal/experiments"
	"phasetune/internal/osched"
)

// corpusSpecs cuts representative wire specs from every campaign family at
// tiny scale (the fuzz engine mutates them; they never run).
func corpusSpecs(f *testing.F) []dist.Campaign {
	f.Helper()
	cfg, err := experiments.Default()
	if err != nil {
		f.Fatal(err)
	}
	cfg = cfg.Scale(2, 10, []uint64{1})
	hex := amp.Hex2Big2Medium2Little()
	return []dist.Campaign{
		experiments.ShowdownCampaign(cfg, amp.Quad2Fast2Slow()),
		experiments.TechniqueCampaign(cfg, amp.Quad2Fast2Slow()),
		experiments.WindowCampaign(cfg, amp.Quad2Fast2Slow()),
		experiments.BreakdownCampaign(cfg, hex),
		experiments.ServingCampaign(cfg, hex),
		experiments.ContentionCampaign(cfg, hex),
	}
}

// roundTrip checks the fixed-point property for a decodable payload: decode,
// re-encode, decode again, re-encode again — the two encodings must match
// byte for byte (the first decode may legitimately normalize unknown fields
// away; the second round must be stable).
func roundTrip[T any](t *testing.T, data []byte) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return // undecodable input is fine; panicking is not
	}
	enc1, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encode after decode failed: %v", err)
	}
	var v2 T
	if err := json.Unmarshal(enc1, &v2); err != nil {
		t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc1)
	}
	enc2, err := json.Marshal(v2)
	if err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
	}
}

func FuzzSpecDecode(f *testing.F) {
	for _, camp := range corpusSpecs(f) {
		for _, sp := range camp.Specs {
			blob, err := json.Marshal(sp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"queues":{"slots":-1},"seed":18446744073709551615}`))
	f.Add([]byte(`{"placement":{"contention":{"miss_ns":-1e308}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[dist.Spec](t, data)
	})
}

// FuzzSpecLower carries the trust boundary one step further: a decoded
// spec is what a worker lowers and runs, so lowering it onto the quad
// environment (workload materialization included) must return a config or
// an error, never panic.
func FuzzSpecLower(f *testing.F) {
	camps := corpusSpecs(f)
	env := camps[0].Env // the showdown campaign's quad environment
	for _, camp := range camps {
		for _, sp := range camp.Specs {
			blob, err := json.Marshal(sp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	suite, err := env.Suite()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"queues":{"slots":-1,"queue_len":4}}`))
	f.Add([]byte(`{"queues":{"slots":4,"queue_len":-1,"fleet":"antagonist"}}`))
	f.Add([]byte(`{"queues":{"slots":-2,"queue_len":3,"alternations":64}}`))
	f.Add([]byte(`{"queues":{"slots":1048576,"queue_len":1048576}}`))
	f.Add([]byte(`{"queues":{"slots":1048576}}`))
	f.Add([]byte(`{"queues":{"slots":1048577}}`))
	f.Add([]byte(`{"queues":{"slots":1048577,"fleet":"antagonist"}}`))
	f.Add([]byte(`{"queues":{"seed":3,"arrivals":{"kind":1,"rate_per_sec":2,"horizon_sec":9}}}`))
	f.Add([]byte(`{"queues":{"arrivals":{"kind":1,"rate_per_sec":1,"horizon_sec":1e6,"cycle_sec":1e-6}}}`))
	f.Add([]byte(`{"queues":{"arrivals":{"kind":0,"rate_per_sec":1,"horizon_sec":10,"max_jobs":1099511627776}}}`))
	f.Add([]byte(`{"queues":{"arrivals":{"kind":2,"rate_per_sec":1,"horizon_sec":1e12,"diurnal_period_sec":1e-310}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp dist.Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		cfg, err := env.RunConfig(sp, suite, nil)
		if err == nil && cfg.Workload == nil && cfg.Stream == nil {
			t.Fatalf("RunConfig returned neither a workload nor a stream for %s", data)
		}
	})
}

func mustMarshal(f *testing.F, v any) []byte {
	f.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

func FuzzEnvSpecDecode(f *testing.F) {
	camps := corpusSpecs(f)
	for _, camp := range camps {
		f.Add(mustMarshal(f, camp.Env))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":-9,"machine":{"cores":null}}`))
	// A v7 environment still carrying the scheduler periods, switch costs
	// and overcommit switch that v8 made constants: refused on its version.
	v7 := bytes.Replace(mustMarshal(f, camps[0].Env),
		[]byte(`"version":8`), []byte(`"version":7`), 1)
	v7 = bytes.Replace(v7, []byte(`"sched":{"CounterSlots":0}`), []byte(`"sched":{"TimesliceSec":0,`+
		`"BalanceIntervalSec":0.25,"SampleIntervalSec":1e-300,"MonitorIntervalSec":0.1,"CoreSwitchCycles":50,`+
		`"ContextSwitchCycles":40,"CounterSlots":0,"Overcommit":{"Enabled":true,"MinSliceSec":0}}`), 1)
	if !bytes.Contains(v7, []byte(`"TimesliceSec"`)) {
		f.Fatalf("v7 seed lost its scheduler keys:\n%s", v7)
	}
	// A machine whose slowest core type runs 5 cycles/s retires half a cycle
	// per timeslice: the one stall an environment can still carry.
	slow := camps[0].Env
	slow.Machine.Types = append([]amp.CoreType(nil), slow.Machine.Types...)
	slowGHz := slow.Machine.Types[len(slow.Machine.Types)-1].FreqGHz
	for i := range slow.Machine.Types {
		slow.Machine.Types[i].CyclesPerSec = 5 * slow.Machine.Types[i].FreqGHz / slowGHz
	}
	for _, blob := range [][]byte{v7, mustMarshal(f, slow)} {
		var env dist.EnvSpec
		if err := json.Unmarshal(blob, &env); err != nil {
			f.Fatal(err)
		}
		if env.Validate() == nil {
			f.Fatalf("Validate accepted a refused environment:\n%s", blob)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var env dist.EnvSpec
		if err := json.Unmarshal(data, &env); err != nil {
			return
		}
		// Validate must classify, never panic, on any decodable environment,
		// and an environment it accepts must boot a kernel.
		if env.Validate() == nil {
			m := env.Machine
			if _, err := osched.NewKernel(&m, env.Cost, env.Sched); err != nil {
				t.Fatalf("Validate accepted an environment NewKernel refuses: %v\n%s", err, data)
			}
		}
		roundTrip[dist.EnvSpec](t, data)
	})
}
