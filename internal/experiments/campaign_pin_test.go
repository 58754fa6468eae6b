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
	"showdown/quad-2f2s":    "1dac2de69da31de4911aa818bf5065349e05dec04c0e4f024fa1b397ed342f65",
	"showdown/tri-2f1s":     "773348c8101d46387555d5f52dd4a94a288fe553a261fb22b3a206a996955611",
	"showdown/hex-2b2m2l":   "d7739fc46d5953db7b1e4e7f3cee3338cc7db8224215c0cc18877718c280ef84",
	"serving/quad-2f2s":     "0d1a8b82e663344facc99926917fcdf6ce34d2ca81b3a095a95a8f540ba76681",
	"serving/hex-2b2m2l":    "52a4dd6f5646b7581121eb2199eafd96ff87891a6017a85068959341182ac2fe",
	"contention/hex-2b2m2l": "6d9766f2d2018904a67683fda4cb5a356b48a07da7058f4f651891e628b70a38",
	"contention/quad-2f2s":  "53adb18c43e5193c88c54d20aef494b1d6832338a1aadcc654648fa82d11c081",
	"breakdown/quad-2f2s":   "ba65e8a7d0a0375d78cf6efc1902298c0885a2f3d3c949fcd299dec5a205658c",
	"breakdown/hex-2b2m2l":  "6cc24bb0ba27a96663a6d30b962a22337f60bba4090d6e6c31cb87d8c642aa3d",
	"window":                "93034bbac644fe067102edf681d969e3dc9c7395c4688c21636bc2daf9ca5ab3",
	"grid":                  "e15c0289bc1ef9f317245c63368d2147877eb53b99111e03c3e5f35e469117bf",
}

func quickCampaigns(t *testing.T) map[string]dist.Campaign {
	t.Helper()
	cfg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(8, 200, []uint64{5})
	out := map[string]dist.Campaign{
		"window": WindowCampaign(cfg, amp.Quad2Fast2Slow()),
		"grid":   TechniqueCampaign(cfg, amp.Quad2Fast2Slow()),
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
		out["breakdown/"+m.Name] = BreakdownCampaign(cfg, m)
	}
	return out
}

func TestCampaignWirePinned(t *testing.T) {
	camps := quickCampaigns(t)
	if len(camps) != len(campaignPins) {
		t.Fatalf("%d campaigns built, %d pinned", len(camps), len(campaignPins))
	}
	for name, camp := range camps {
		if camp.Env.Version != 9 {
			t.Errorf("%s: SpecVersion %d, pinned at 9", name, camp.Env.Version)
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
