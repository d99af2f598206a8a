package power

import (
	"math"
	"testing"
	"time"
)

func TestNewMeterValidation(t *testing.T) {
	src := func() float64 { return 100 }
	if _, err := NewMeter(nil, time.Second, 0.01, 1); err == nil {
		t.Error("expected error for nil source")
	}
	if _, err := NewMeter(src, 0, 0.01, 1); err == nil {
		t.Error("expected error for zero period")
	}
	if _, err := NewMeter(src, time.Second, -0.1, 1); err == nil {
		t.Error("expected error for negative noise")
	}
	if _, err := NewMeter(src, time.Second, 0.9, 1); err == nil {
		t.Error("expected error for absurd noise")
	}
	if _, err := NewMeter(src, 100*time.Millisecond, 0.01, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMeterSamplingRate(t *testing.T) {
	calls := 0
	src := func() float64 { calls++; return 100 }
	m, err := NewMeter(src, 100*time.Millisecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	r1 := m.Sample(start)
	// Within the period, the cached reading is returned and the source is
	// not re-read.
	r2 := m.Sample(start.Add(50 * time.Millisecond))
	if calls != 1 {
		t.Errorf("source read %d times, want 1", calls)
	}
	if r1 != r2 {
		t.Error("sub-period sample should return the cached reading")
	}
	r3 := m.Sample(start.Add(150 * time.Millisecond))
	if calls != 2 {
		t.Errorf("source read %d times, want 2", calls)
	}
	if r3.Time != start.Add(150*time.Millisecond) {
		t.Errorf("reading time = %v", r3.Time)
	}
}

func TestMeterNoiseIsUnbiasedAndBounded(t *testing.T) {
	src := func() float64 { return 150 }
	m, err := NewMeter(src, time.Millisecond, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	sum := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		now = now.Add(time.Millisecond)
		r := m.Sample(now)
		if r.Watts < 0 {
			t.Fatal("negative power reading")
		}
		sum += r.Watts
	}
	mean := sum / float64(n)
	if math.Abs(mean-150) > 1 {
		t.Errorf("noisy mean = %v, want ≈150", mean)
	}
}

func TestMeterZeroNoiseIsExact(t *testing.T) {
	src := func() float64 { return 123.4 }
	m, _ := NewMeter(src, time.Millisecond, 0, 7)
	if got := m.Sample(time.Unix(1, 0)).Watts; got != 123.4 {
		t.Errorf("Sample = %v, want exact 123.4", got)
	}
}

func TestEnergyCounter(t *testing.T) {
	var e EnergyCounter
	start := time.Unix(0, 0)
	e.Observe(start, 100)
	if e.Joules() != 0 {
		t.Error("first observation should not accrue energy")
	}
	e.Observe(start.Add(10*time.Second), 100) // 100 W held for 10 s
	if got := e.Joules(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("Joules = %v, want 1000", got)
	}
	e.Observe(start.Add(20*time.Second), 50) // 50 W held for 10 s
	if got := e.Joules(); math.Abs(got-1500) > 1e-9 {
		t.Errorf("Joules = %v, want 1500", got)
	}
	// 3.6 MJ = 1 kWh.
	e2 := EnergyCounter{}
	e2.Observe(start, 1000)
	e2.Observe(start.Add(time.Hour), 1000)
	if got := e2.KWh(); math.Abs(got-1) > 1e-9 {
		t.Errorf("KWh = %v, want 1", got)
	}
	// Time going backwards is ignored rather than producing negative
	// energy.
	e.Observe(start.Add(15*time.Second), 100)
	if e.Joules() < 1500 {
		t.Error("backwards time should not reduce energy")
	}
}

func TestCapTrackerValidation(t *testing.T) {
	if _, err := NewCapTracker(0); err == nil {
		t.Error("expected error for zero cap")
	}
	if _, err := NewCapTracker(-10); err == nil {
		t.Error("expected error for negative cap")
	}
	if _, err := NewCapTracker(150); err != nil {
		t.Fatal(err)
	}
}

func TestCapTrackerStats(t *testing.T) {
	c, err := NewCapTracker(100)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	// 10 s under the cap, 10 s over (one excursion), 10 s under, 10 s over
	// (second excursion).
	series := []struct {
		at    time.Duration
		watts float64
	}{
		{0, 90},
		{10 * time.Second, 120},
		{20 * time.Second, 80},
		{30 * time.Second, 110},
		{40 * time.Second, 95},
	}
	for _, p := range series {
		c.Observe(start.Add(p.at), p.watts)
	}
	s := c.Stats()
	if s.Events != 2 {
		t.Errorf("Events = %d, want 2", s.Events)
	}
	if math.Abs(s.OverFrac-0.5) > 1e-9 {
		t.Errorf("OverFrac = %v, want 0.5", s.OverFrac)
	}
	if math.Abs(s.MeanW-99) > 1e-9 {
		t.Errorf("MeanW = %v, want 99", s.MeanW)
	}
	if s.PeakW != 120 {
		t.Errorf("PeakW = %v, want 120", s.PeakW)
	}
	if math.Abs(s.Utilization-0.99) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.99", s.Utilization)
	}
}

func TestCapTrackerContinuousExcursionIsOneEvent(t *testing.T) {
	c, _ := NewCapTracker(100)
	start := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		c.Observe(start.Add(time.Duration(i)*time.Second), 150)
	}
	if got := c.Stats().Events; got != 1 {
		t.Errorf("Events = %d, want 1 (continuous excursion)", got)
	}
	if got := c.Stats().OverFrac; math.Abs(got-1) > 1e-9 {
		t.Errorf("OverFrac = %v, want 1", got)
	}
}

func TestCapTrackerEmpty(t *testing.T) {
	c, _ := NewCapTracker(100)
	s := c.Stats()
	if s.MeanW != 0 || s.OverFrac != 0 || s.Events != 0 || s.PeakW != 0 {
		t.Errorf("empty tracker stats = %+v", s)
	}
}
