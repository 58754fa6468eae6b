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
	"showdown/quad-2f2s":    "cc343c4e571810d1949c07d2ef277f3f399fceaa29a34a2f3e08c4d95152ffa2",
	"showdown/tri-2f1s":     "f02bdb25b1a83c5c4e056df8577dbd07b614795996d9770af087d496c85749d8",
	"showdown/hex-2b2m2l":   "a1d37a83d389ef72d893a7614afc98e89cc89717202b2e96a51f83928b4f2bc8",
	"serving/quad-2f2s":     "07c8dd67d951c26a20b81131d1af83a9113cd8fa27663446260a332eda0164a8",
	"serving/hex-2b2m2l":    "40ee0990819506e35053d0e83345e8d0d59a3a15d39d221e8bec6f4f653fc5ff",
	"contention/hex-2b2m2l": "580bd66764b5de92d20267708a26b42923eb27d54c1f7d274aaf8e5f866b42f3",
	"contention/quad-2f2s":  "a4faf92635d2ba081845e4e20257b6a3eebdb5d545c6474c351431862f73c943",
	"breakdown/quad-2f2s":   "9d5a81c94c13ca8cffcd85cc279261000c7ce1fba46c2bf574aef75fbeef4ac0",
	"breakdown/hex-2b2m2l":  "5dd06b9825e17edfc37ba84100d39231246925d7c158e1a1c58bfa02d8d7dcca",
	"window":                "25261240f90f993f52af297a448ecc416d5cb0d9bc45ae70cb7a0eba09da490c",
	"grid":                  "942b6b4cfb97b52e8a28d37ca1e8244a4d944cb30a0f25c496979b9e6a379450",
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
		if camp.Env.Version != 7 {
			t.Errorf("%s: SpecVersion %d, pinned at 7", name, camp.Env.Version)
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
