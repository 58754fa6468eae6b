package ledger

import (
	"reflect"
	"strings"
	"testing"
)

// twoBurstCollector books one burst per core of a two-core machine (fast
// core 1 at 400 ps/cycle, slow core 0 at 600 ps/cycle) covering every
// category, and returns the collector before finalization.
func twoBurstCollector() *Collector {
	c := NewCollector(2, 400)
	c.AddTask(1, "fast")
	c.AddTask(2, "slow")

	w1 := c.Work()
	w1.SetPhase(0)
	w1.Add(4000, 4000)
	w1.AddMark(400)
	c.Charge(Burst{Core: 1, PID: 1, PsPerCycle: 400, StartPs: 0, EndPs: 5200,
		CtxCycles: 2, Segs: w1.Drain()})

	w2 := c.Work()
	w2.SetPhase(1)
	w2.Add(6000, 4000)
	w2.SetSpilled(true)
	w2.Add(3000, 2000)
	c.Charge(Burst{Core: 0, PID: 2, PsPerCycle: 600, StartPs: 1000, EndPs: 12400,
		QueuePs: 1000, MigrateCycles: 1, MonitorCycles: 2, CtxCycles: 1, Sliced: true,
		Segs: w2.Drain()})
	return c
}

func TestVerifyAcceptsBalancedLedger(t *testing.T) {
	l, err := twoBurstCollector().Finalize(12000)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.HorizonPs != 12400 {
		t.Errorf("horizon %d ps, want the last burst end 12400", l.HorizonPs)
	}
	want := Breakdown{UsefulPs: 10000, AsymmetryPs: 2000, SpillPs: 1000, MarksPs: 400,
		MonitorPs: 1200, MigrationPs: 600, CtxSwitchPs: 800, SlicingPs: 600, IdlePs: 8200}
	if l.Total != want {
		t.Errorf("total %+v, want %+v", l.Total, want)
	}
	if got := l.Total.Total(); got != int64(l.Cores)*l.HorizonPs {
		t.Errorf("categories sum to %d ps, want cores x horizon %d", got, int64(l.Cores)*l.HorizonPs)
	}
	if l.PerTask[1].QueuePs != 1000 {
		t.Errorf("slow task queue %d ps, want 1000", l.PerTask[1].QueuePs)
	}
}

// TestVerifyRejectsOnePicosecondImbalance moves one picosecond in each
// scope the conservation identities cover; every move must fail Verify.
func TestVerifyRejectsOnePicosecondImbalance(t *testing.T) {
	for name, perturb := range map[string]func(*Ledger){
		"core idle":       func(l *Ledger) { l.PerCore[0].IdlePs++ },
		"core useful":     func(l *Ledger) { l.PerCore[1].UsefulPs-- },
		"total":           func(l *Ledger) { l.Total.UsefulPs++ },
		"horizon":         func(l *Ledger) { l.HorizonPs++ },
		"task busy":       func(l *Ledger) { l.PerTask[0].MarksPs++ },
		"task idle":       func(l *Ledger) { l.PerTask[1].IdlePs++ },
		"phase step time": func(l *Ledger) { l.PerPhase[0].UsefulPs-- },
		"core count":      func(l *Ledger) { l.Cores++ },
	} {
		l, err := twoBurstCollector().Finalize(12000)
		if err != nil {
			t.Fatal(err)
		}
		perturb(l)
		if err := l.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a one-picosecond imbalance", name)
		}
	}
}

// TestFinalizeRejectsUntiledBurst books a burst whose categories fall one
// picosecond short of its span, and one that overruns it: with no
// remainder category to absorb the difference, Finalize must refuse both.
func TestFinalizeRejectsUntiledBurst(t *testing.T) {
	for name, endPs := range map[string]int64{"short": 5201, "overrun": 5199} {
		c := NewCollector(1, 400)
		c.AddTask(1, "task")
		w := c.Work()
		w.Add(4000, 4000)
		w.AddMark(400)
		c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 400, StartPs: 0, EndPs: 5200, CtxCycles: 2, Segs: w.Drain()})
		c.Charge(Burst{Core: 0, PID: 1, PsPerCycle: 400, StartPs: 5200, EndPs: 5200 + endPs, CtxCycles: 2,
			Segs: []Segment{{Phase: PhaseUntyped, ActualPs: 4000, IdealPs: 4000, MarkPs: 400}}})
		if l, err := c.Finalize(20000); err == nil || !strings.Contains(err.Error(), "span") {
			t.Errorf("%s burst: Finalize = %+v, %v; want a span error", name, l, err)
		}
	}
}

// TestBreakdownValuesMatchCategories pins Values to Categories order: the
// i-th value is the field whose JSON name is the i-th category.
func TestBreakdownValuesMatchCategories(t *testing.T) {
	var b Breakdown
	rv := reflect.ValueOf(&b).Elem()
	byName := map[string]int64{}
	for i := 0; i < rv.NumField(); i++ {
		v := int64(i + 1)
		rv.Field(i).SetInt(v)
		tag := strings.TrimSuffix(rv.Type().Field(i).Tag.Get("json"), "_ps")
		byName[strings.ReplaceAll(tag, "_", "-")] = v
	}
	cats, vals := Categories(), b.Values()
	if len(cats) != rv.NumField() || len(vals) != len(cats) {
		t.Fatalf("%d categories, %d values, %d fields", len(cats), len(vals), rv.NumField())
	}
	var sum int64
	for i, c := range cats {
		want, ok := byName[c]
		if !ok {
			t.Errorf("category %q names no Breakdown field", c)
		}
		if vals[i] != want {
			t.Errorf("Values()[%d] = %d, want field %q = %d", i, vals[i], c, want)
		}
		sum += vals[i]
	}
	if sum != b.Total() {
		t.Errorf("values sum to %d, Total() = %d", sum, b.Total())
	}
}
