package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/dist"
)

// campaignPins are sha256 digests of json.Marshal of every *Campaign
// builder at the -quick configuration (8 slots, 200 s, seed 5). They pin
// the wire form of every grid the fabric serves: a change to how a policy
// lowers onto dist.Spec — mode, params, tuning, online or placement
// config — changes a digest. Update them only together with a SpecVersion
// bump.
var campaignPins = map[string]string{
	"showdown/quad-2f2s":    "b5fe6681d73c7659bd167c3cd89ea2544a59e16320e4560b50c359627e7e3a5e",
	"showdown/tri-2f1s":     "38ad6eeb716221fbfe1c2bfb481beb1a51b60ef57c80bc0b4ec212c48cb336fb",
	"showdown/hex-2b2m2l":   "3daa0cf33401e8a8f4033502a22127f0d4e12d443f02c45d778c0aebf8966633",
	"serving/quad-2f2s":     "4cfdb2b621c96eaa5b2c60447d3200d9f96bbd05e7e645f3d847ac4af294e8d9",
	"serving/hex-2b2m2l":    "2fe760149a1f29f9032db2216884fa96434f5b7d0e2b6475d9406c4c5391f7a4",
	"contention/hex-2b2m2l": "8a7f63ed40ff0d379cf06a357605fbbb2f2e7da16223300d8ecaa3723ef246b4",
	"contention/quad-2f2s":  "2ea93fb652269d71655e1717a4ca77bdf08beb5b659eee9635fc2aa7e087190f",
	"breakdown/quad-2f2s":   "874fb57c195a7e52706aa966c5a1475c75506b9c6b484be61912d73e1f21a806",
	"breakdown/hex-2b2m2l":  "8873b7eb0b0a4e45c0480fbf3ace1ad79facdf142945ef6b0e99e636c5972d84",
	"window":                "6d0e745bfeaa73e76958371fe80d6a1d8169da24e224f3113d7f97f4871c4536",
	"grid":                  "72bdf3f38717d55b30c1a6027dc71ef6488d921edc441d72dfd7853f66add350",
}

func quickCampaigns(t *testing.T) map[string]dist.Campaign {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(8, 200, []uint64{5})
	out := map[string]dist.Campaign{
		"window": WindowCampaign(cfg, nil, nil),
		"grid":   TechniqueCampaign(cfg),
	}
	for _, m := range []*amp.Machine{amp.Quad2Fast2Slow(), amp.ThreeCore2Fast1Slow(), amp.Hex2Big2Medium2Little()} {
		out["showdown/"+m.Name] = ShowdownCampaign(cfg, m)
	}
	for _, m := range ServingMachines() {
		out["serving/"+m.Name] = ServingCampaign(cfg, m)
	}
	for _, m := range ContentionMachines() {
		out["contention/"+m.Name] = ContentionCampaign(cfg, m)
	}
	for _, m := range BreakdownMachines() {
		out["breakdown/"+m.Name] = BreakdownCampaign(cfg, m, nil, nil)
	}
	return out
}

func TestCampaignWirePinned(t *testing.T) {
	camps := quickCampaigns(t)
	if len(camps) != len(campaignPins) {
		t.Fatalf("%d campaigns built, %d pinned", len(camps), len(campaignPins))
	}
	for name, camp := range camps {
		if camp.Env.Version != 6 {
			t.Errorf("%s: SpecVersion %d, pinned at 6", name, camp.Env.Version)
		}
		blob, err := json.Marshal(camp)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != campaignPins[name] {
			t.Errorf("%s: wire digest %s, pinned %s (%d specs)", name, got, campaignPins[name], len(camp.Specs))
		}
	}
}
