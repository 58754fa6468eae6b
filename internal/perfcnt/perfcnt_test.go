package perfcnt

import (
	"math"
	"testing"
)

func TestCountersAdd(t *testing.T) {
	var c Counters
	c.Add(100, 250)
	c.Add(50, 50)
	if c.Instructions != 150 || c.Cycles != 300 {
		t.Errorf("counters = %+v, want 150/300", c)
	}
}

func TestIPC(t *testing.T) {
	if got := IPC(300, 200); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("IPC = %g, want 1.5", got)
	}
	if got := IPC(10, 0); got != 0 {
		t.Errorf("IPC with zero cycles = %g, want 0", got)
	}
}

func TestEventSetDeltas(t *testing.T) {
	var c Counters
	c.Add(100, 200)
	es := Start(&c)
	c.Add(40, 160)
	i, cy := es.Stop(&c)
	if i != 40 || cy != 160 {
		t.Errorf("deltas = %d/%d, want 40/160", i, cy)
	}
}

func TestEventSetFullDeltas(t *testing.T) {
	var c Counters
	c.Add(100, 200)
	c.AddMem(30)
	es := Start(&c)
	c.Add(40, 160)
	c.AddMem(12)
	i, cy, m := es.StopFull(&c)
	if i != 40 || cy != 160 || m != 12 {
		t.Errorf("full deltas = %d/%d/%d, want 40/160/12", i, cy, m)
	}
	// Stop on the same event set must agree with StopFull.
	i2, cy2 := es.Stop(&c)
	if i2 != i || cy2 != cy {
		t.Errorf("Stop disagrees with StopFull: %d/%d vs %d/%d", i2, cy2, i, cy)
	}
}

func TestHardwareBoundedSlots(t *testing.T) {
	h := NewHardware(2)
	if !h.TryAcquire() || !h.TryAcquire() {
		t.Fatal("could not acquire 2 slots")
	}
	if h.TryAcquire() {
		t.Fatal("third acquire succeeded with 2 slots")
	}
	if h.Defers() != 1 {
		t.Errorf("defers = %d, want 1", h.Defers())
	}
	h.Release()
	if !h.TryAcquire() {
		t.Error("acquire after release failed")
	}
}

func TestHardwareUnlimited(t *testing.T) {
	h := NewHardware(0)
	for i := 0; i < 100; i++ {
		if !h.TryAcquire() {
			t.Fatal("unlimited hardware refused acquire")
		}
	}
	if h.InUse() != 100 {
		t.Errorf("in use = %d, want 100", h.InUse())
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	NewHardware(1).Release()
}
