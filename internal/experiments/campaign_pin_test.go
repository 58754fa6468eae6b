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
	"showdown/quad-2f2s":    "08d7a264a6643476c787f9285ed9f13b1667bd9ca2974e3879b24ec0b9c56eee",
	"showdown/tri-2f1s":     "b6911996fcb48a18d9cef07d5ec853a714e24628c7242fc47fdd8e535cb64ff0",
	"showdown/hex-2b2m2l":   "afe1c5e8f4bd1c01346df975bc0de321dd4b00341fefac19f44eab58a5698b8a",
	"serving/quad-2f2s":     "6384aa2048893d729c48cd1467d47eaa3975b8f848326c23902bf8ce8f114852",
	"serving/hex-2b2m2l":    "dd102a14aa5869453e2da7a52aae65c08cb5b36c8b5b02ffeb0063471dd843ee",
	"contention/hex-2b2m2l": "2bf68db22b8a97a63f5c470699b80acc747a3826bbd0be169bb9cc6a9a8ec9fc",
	"contention/quad-2f2s":  "07ceef9b7ca9eb20157f9ff8739784ced88d7aeffa2b80c4fa05f1d310e0f401",
	"breakdown/quad-2f2s":   "6864966e4a2b164cccbc794bbb03a059b6fb5d390580662027c6f6681c5278e3",
	"breakdown/hex-2b2m2l":  "70d3c866b99f3dd70bde50eeeb101e666f178dcd83acc1f63cdf2a861a920d7e",
	"window":                "0030cf86b71bafa5599a603d7f255841fb602f72e507d54e39a45e4d2e9494b3",
	"grid":                  "1c6daf7f196d86f4f645fa69ba0d7bcc3cceea3eb50cf222d61dac12de64c070",
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
		if camp.Env.Version != 8 {
			t.Errorf("%s: SpecVersion %d, pinned at 8", name, camp.Env.Version)
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
