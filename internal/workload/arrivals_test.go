package workload

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"

	"phasetune/internal/amp"
	"phasetune/internal/exec"
)

func openSpec(kind ArrivalKind) Spec {
	return Spec{Seed: 7, Arrivals: &ArrivalSpec{
		Kind: kind, RatePerSec: 3.0, HorizonSec: 40,
	}}
}

// arrivalsHash canonically encodes a stream's arrival schedule and fleet
// names and hashes the bytes — the identity the golden test pins.
func arrivalsHash(t *testing.T, s *Stream) uint64 {
	t.Helper()
	var names []string
	for _, b := range s.Fleet {
		names = append(names, b.Name())
	}
	blob, err := json.Marshal(struct {
		Fleet    []string
		Arrivals []Arrival
	}{names, s.Arrivals})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

func TestMaterializeOpenDeterministic(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	for _, kind := range []ArrivalKind{Poisson, Bursty, Diurnal} {
		a, err := openSpec(kind).MaterializeOpen(cm, m)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := openSpec(kind).MaterializeOpen(cm, m)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ha, hb := arrivalsHash(t, a), arrivalsHash(t, b); ha != hb {
			t.Errorf("%s: same (spec, seed) produced different streams: %x vs %x", kind, ha, hb)
		}
		// Fleet programs must regenerate bit-identically too (the fabric's
		// cross-process contract).
		for i := range a.Fleet {
			if a.Fleet[i].Prog.NumInstrs() != b.Fleet[i].Prog.NumInstrs() {
				t.Errorf("%s: fleet member %d differs across materializations", kind, i)
			}
		}
	}
}

func TestMaterializeOpenSeedSensitive(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	a, err := openSpec(Poisson).MaterializeOpen(cm, m)
	if err != nil {
		t.Fatal(err)
	}
	other := openSpec(Poisson)
	other.Seed = 8
	b, err := other.MaterializeOpen(cm, m)
	if err != nil {
		t.Fatal(err)
	}
	if arrivalsHash(t, a) == arrivalsHash(t, b) {
		t.Error("different seeds produced identical arrival schedules")
	}
}

// TestArrivalStreamGolden pins the exact bytes of one stream. If this
// breaks, the arrival generator changed semantics: recorded campaigns no
// longer reproduce, and dist.SpecVersion must be bumped alongside fixing
// this constant.
func TestArrivalStreamGolden(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	s, err := openSpec(Poisson).MaterializeOpen(cm, m)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x2648e9699bc8b14a // pinned from the first green run
	if got := arrivalsHash(t, s); got != want {
		t.Errorf("arrival stream hash = %#x, want %#x", got, want)
	}
}

func TestArrivalScheduleShape(t *testing.T) {
	cm := exec.DefaultCostModel()
	m := amp.Quad2Fast2Slow()
	for _, kind := range []ArrivalKind{Poisson, Bursty, Diurnal} {
		s, err := openSpec(kind).MaterializeOpen(cm, m)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(s.Fleet) != len(ServingSpecs()) {
			t.Fatalf("%s: fleet size %d", kind, len(s.Fleet))
		}
		prev := 0.0
		for i, a := range s.Arrivals {
			if a.AtSec < prev {
				t.Fatalf("%s: arrival %d at %gs before predecessor at %gs", kind, i, a.AtSec, prev)
			}
			prev = a.AtSec
			if a.AtSec > 40 {
				t.Fatalf("%s: arrival %d at %gs past the 40s horizon", kind, i, a.AtSec)
			}
			if a.Fleet < 0 || a.Fleet >= len(s.Fleet) {
				t.Fatalf("%s: arrival %d fleet index %d", kind, i, a.Fleet)
			}
		}
		// Long-run rate within 4 sigma of 3 jobs/s over 40s (mean 120).
		mean := 3.0 * 40
		if n := float64(len(s.Arrivals)); math.Abs(n-mean) > 4*math.Sqrt(mean)+0.1*mean {
			t.Errorf("%s: %0.f arrivals, want about %.0f", kind, n, mean)
		}
	}
}

func TestArrivalSpecValidate(t *testing.T) {
	for _, good := range []ArrivalSpec{
		{Kind: Poisson, RatePerSec: 1, HorizonSec: 10},
		{Kind: Bursty, RatePerSec: 1, HorizonSec: 1e3, MaxJobs: MaxQueuedJobs},
		{Kind: Bursty, RatePerSec: 1, HorizonSec: MaxQueuedJobs / 2, CycleSec: 1},
		{Kind: Diurnal, RatePerSec: 1, HorizonSec: 1e3, DiurnalPeriodSec: 1e-300},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", good, err)
		}
	}
	for name, bad := range map[string]ArrivalSpec{
		"zero rate":     {Kind: Poisson, RatePerSec: 0, HorizonSec: 10},
		"negative rate": {Kind: Poisson, RatePerSec: -1, HorizonSec: 10},
		"zero horizon":  {Kind: Poisson, RatePerSec: 1, HorizonSec: 0},
		"bad kind":      {Kind: ArrivalKind(99), RatePerSec: 1, HorizonSec: 10},
		"inf rate":      {Kind: Poisson, RatePerSec: math.Inf(1), HorizonSec: 10},
		"max_jobs":      {Kind: Poisson, RatePerSec: 1, HorizonSec: 10, MaxJobs: MaxQueuedJobs + 1},
		"switches":      {Kind: Bursty, RatePerSec: 1, HorizonSec: 1e6, CycleSec: 1e-6},
		"nan cycle":     {Kind: Bursty, RatePerSec: 1, HorizonSec: 10, CycleSec: math.NaN()},
		"phase":         {Kind: Diurnal, RatePerSec: 1, HorizonSec: 1e12, DiurnalPeriodSec: 1e-310},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseArrivalKind(t *testing.T) {
	for name, want := range map[string]ArrivalKind{
		"poisson": Poisson, "bursty": Bursty, "diurnal": Diurnal,
	} {
		got, err := ParseArrivalKind(name)
		if err != nil || got != want {
			t.Errorf("ParseArrivalKind(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseArrivalKind("weird"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestServingFleetMeanServiceTime(t *testing.T) {
	specs := ServingSpecs()
	sum := 0.0
	for _, sp := range specs {
		sum += sp.TargetSec
	}
	if got, want := ServingMeanServiceSec(), sum/float64(len(specs)); math.Abs(got-want) > 1e-12 {
		t.Errorf("ServingMeanServiceSec = %g, want %g", got, want)
	}
}
