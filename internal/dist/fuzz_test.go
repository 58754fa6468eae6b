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

func FuzzEnvSpecDecode(f *testing.F) {
	for _, camp := range corpusSpecs(f) {
		blob, err := json.Marshal(camp.Env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":-9,"machine":{"cores":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env dist.EnvSpec
		if err := json.Unmarshal(data, &env); err != nil {
			return
		}
		// Validate must classify, never panic, on any decodable environment.
		_ = env.Validate()
		roundTrip[dist.EnvSpec](t, data)
	})
}
