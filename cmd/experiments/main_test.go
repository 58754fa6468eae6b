package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasetune/internal/benchhist"
	"phasetune/internal/experiments"
)

// tiny is the smallest configuration every campaign still runs at.
var tiny = []string{"-quick", "-slots", "4", "-duration", "24", "-workers", "2"}

// breakdownAxes is the smallest breakdown map: one rate and one window on
// each side of the frontier.
var breakdownAxes = []string{"-alts", "8,512", "-windows", "4000,16000"}

// stdoutPins are sha256 digests of the printed tables of every -run target
// at the tiny configuration: each campaign, and each paper figure or check
// printed outside the registry. They pin the bytes a reader sees: a change
// to a column, a format verb, a caption or a chart changes a digest.
var stdoutPins = []struct {
	name string
	args []string
	sum  string
}{
	{"showdown", []string{"-run", "showdown"}, "1facbec09d79c218e3c4e2eec2acd9c8edee932185481f7cca6a95412936b163"},
	{"grid", []string{"-run", "table2"}, "560785e982933ffc45820ac9daf2c155a2e53374a528038666f40e21ebd1cb90"},
	{"window", []string{"-run", "window"}, "90d320429429b4c1ea36f3f48679965cdffab5dd8cb48774c4a6a9de7398f880"},
	{"breakdown", append([]string{"-run", "breakdown"}, breakdownAxes...), "bcea381259bccf3d5a112d45b3177326201c426fd5f15e3881617f1a8b2172b4"},
	{"serving", []string{"-run", "serving"}, "4ec7ffcc4769e5aee464d86a5e3ce60d41f5f02cfd8ed6027bf1caebe2e3cb30"},
	{"contention", []string{"-run", "contention"}, "3e114b0670e715a54b9e25c5587e57608a7b8c4bf9d482bf87e8a9a82797d90c"},
	{"showdown-ledger", []string{"-run", "showdown", "-ledger"}, "cdba6b13931d65a17137fea3de1c30079f1d6b492f2031bc8fc765f7ee624409"},
	{"serving-ledger", []string{"-run", "serving", "-ledger"}, "45275ab04827e7d478a9d1d928f30f045d16f6993e9f5dcd570911bb4d675c9f"},
	{"breakdown-ledger", append([]string{"-run", "breakdown", "-ledger"}, breakdownAxes...), "040ff177061a50c84f9b568f714e3e552bebad0e0bcb76cd3100b84b19ecbee2"},
	{"fig3", []string{"-run", "fig3"}, "807d70c8c09adbd83582a4277729509289d20a6db4a4bd9e439eed4af01578ff"},
	{"fig4", []string{"-run", "fig4"}, "cb9935f17e40af48b27ae5c6caacc88167141dc9f7d881c1b2309b353c7e1e1a"},
	{"table1", []string{"-run", "table1"}, "eba79c90829b59a001c6b8c88ca27a61ae9025dc6cce7791c6c9478784636c3a"},
	{"fig5", []string{"-run", "fig5"}, "8a4f48278351aae7f82c00aa3d304bf8820eaa40aec68e5a1822ee7c1f780d03"},
	{"fig6", []string{"-run", "fig6"}, "bcdb3e278b1a81dc6daf635dcb3c93baa39ba3b0ce42d4701fcca629e20d6eff"},
	{"fig7", []string{"-run", "fig7"}, "68ef0e7010bf37683575c70403c661a39d7800319f51fbee3d456d8c2ebd2e7b"},
	{"fig8", []string{"-run", "fig8"}, "c69a2a91acf5cf116bda36dbddffb42617f50e390e644a17e80e9804e5a03fb9"},
	{"switchcost", []string{"-run", "switchcost"}, "8bc9c27bb296cb5b0c21660679200522c07f41b810f5ff7c8237607c84515b1c"},
	{"typing", []string{"-run", "typing"}, "65799f0d27b8ed6369c75a63fbb67406e274b15194bb35e9e82287babcb5fad3"},
	{"threecore", []string{"-run", "threecore"}, "db2b96b32a075705caf6d855694edab5d919046fe5825174f07b0bf7e2fb87df"},
	{"ablations", []string{"-run", "ablations"}, "7f21a50f5bb8844b02b3148428c17048f07f8101e71cc5083abf5ffd764ced5a"},
}

func TestPrintedTablesPinned(t *testing.T) {
	for _, pin := range stdoutPins {
		var out bytes.Buffer
		if err := run(append(append([]string{}, tiny...), pin.args...), &out); err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin.sum {
			t.Errorf("%s: stdout digest %s, pinned %s\n%s", pin.name, got, pin.sum, out.String())
		}
	}
}

// TestBenchoutAppendsOneTableEntry runs every registry campaign with
// -benchout and checks the history holds exactly one `table` entry for it,
// free of NaN, whose tables redraw to the bytes the run printed.
func TestBenchoutAppendsOneTableEntry(t *testing.T) {
	for _, name := range experiments.CampaignNames() {
		c, err := experiments.LookupCampaign(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "hist.json")
		args := append(append([]string{}, tiny...), "-run", c.Name, "-benchout", path)
		if c.Name == "breakdown" {
			args = append(args, breakdownAxes...)
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte("NaN")) {
			t.Errorf("%s: history holds NaN", c.Name)
		}
		h, err := benchhist.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Entries) != 1 {
			t.Fatalf("%s: %d history entries, want 1", c.Name, len(h.Entries))
		}
		e := h.Entries[0]
		if e.Kind != benchhist.KindTable || e.Campaign != c.Name || e.Title != c.Title || e.Timestamp == "" {
			t.Errorf("%s: entry kind %q campaign %q title %q stamped %q", c.Name, e.Kind, e.Campaign, e.Title, e.Timestamp)
		}
		var redrawn bytes.Buffer
		if err := benchhist.Render(&redrawn, e.Tables); err != nil {
			t.Fatal(err)
		}
		printed := strings.TrimPrefix(out.String(), "\n=== "+c.Title+" ===\n\n")
		printed = printed[:strings.LastIndex(printed, "\nappended ")]
		if redrawn.String() != printed {
			t.Errorf("%s: recorded tables redraw differently\nprinted:\n%s\nredrawn:\n%s", c.Name, printed, redrawn.String())
		}
	}
}

// TestFlagMisuseRejected checks that flags a run would silently ignore are
// rejected before anything runs.
func TestFlagMisuseRejected(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "showdown", "-alts", "8,512"}, "-alts"},
		{[]string{"-run", "window", "-windows", "4000"}, "-windows"},
		{[]string{"-run", "fig3", "-benchout", hist}, "not a campaign"},
		{[]string{"-run", "table1", "-benchout", hist}, "not a campaign"},
		{[]string{"-run", "contention", "-trace", hist}, "-trace"},
		{[]string{"-run", "breakdown", "-alts", "0"}, "bad alternation count"},
		{[]string{"-run", "nope"}, "unknown experiment"},
		{[]string{"-run", "showdown", "-shards", "2"}, "flag provided but not defined"},
	} {
		var out bytes.Buffer
		err := run(append(append([]string{}, tiny...), tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before failing", tc.args, out.String())
		}
	}
	if _, err := os.Stat(hist); !os.IsNotExist(err) {
		t.Errorf("a rejected run touched %s", hist)
	}
}

// brokenStdout fails every write, like a closed pipe.
type brokenStdout struct{}

func (brokenStdout) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestStdoutWriteErrorFails pins that a run whose tables cannot be written
// fails, whichever printer hit the error: fig3 and typing ignore what
// fmt.Fprint returns, fig4 returns Render's error.
func TestStdoutWriteErrorFails(t *testing.T) {
	for _, name := range []string{"fig3", "typing", "fig4"} {
		err := run(append(append([]string{}, tiny...), "-run", name), brokenStdout{})
		if err == nil || !strings.Contains(err.Error(), "broken pipe") {
			t.Errorf("-run %s into a broken stdout: error %v, want the write error", name, err)
		}
	}
}
