package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	base := options{policy: "static", slots: 18, duration: 400, load: 1}
	cases := []struct {
		name    string
		edit    func(*options)
		wantErr string // "" means valid
	}{
		{"default", func(*options) {}, ""},
		{"every canonical policy parses", func(o *options) { o.policy = "hybrid/damped" }, ""},
		{"overhead closed run", func(o *options) { o.policy = "overhead" }, ""},
		{"unknown policy", func(o *options) { o.policy = "bogus" }, "-policy"},
		{"removed alias baseline", func(o *options) { o.policy = "baseline" }, "-policy"},
		{"removed alias online", func(o *options) { o.policy = "online" }, "-policy"},
		{"bare dynamic", func(o *options) { o.policy = "dynamic" }, "dynamic/probe"},
		{"overhead with trace", func(o *options) { o.policy, o.trace = "overhead", "t.json" }, "-trace"},
		{"overhead with ledger", func(o *options) { o.policy, o.ledger = "overhead", "l.json" }, "-ledger"},
		{"overhead with arrivals", func(o *options) { o.policy, o.arrivals = "overhead", "poisson" }, "-arrivals"},
		{"trace with a real policy", func(o *options) { o.policy, o.trace = "hybrid", "t.json" }, ""},
		{"zero duration", func(o *options) { o.duration = 0 }, "-duration"},
		{"load without arrivals", func(o *options) { o.loadSet = true }, "-load"},
		{"arrivals and alt", func(o *options) { o.arrivals, o.alt = "poisson", 8 }, "mutually exclusive"},
		{"bad arrival kind", func(o *options) { o.arrivals = "tidal" }, "-arrivals"},
	}
	for _, tc := range cases {
		o := base
		tc.edit(&o)
		_, err := o.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error mentioning %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
