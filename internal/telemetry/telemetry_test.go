package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries()
	start := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		if err := s.Append(start.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	pts := s.Points()
	if len(pts) != 5 || pts[4].Value != 4 {
		t.Errorf("Points = %v", pts)
	}
	vals := s.Values()
	if len(vals) != 5 || vals[2] != 2 {
		t.Errorf("Values = %v", vals)
	}
}

func TestSeriesOutOfOrderRejected(t *testing.T) {
	s := NewSeries()
	start := time.Unix(100, 0)
	if err := s.Append(start, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(start.Add(-time.Second), 2); err == nil {
		t.Error("expected out-of-order error")
	}
	if s.Len() != 1 {
		t.Error("out-of-order point must be dropped")
	}
	// Equal timestamps are allowed.
	if err := s.Append(start, 3); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	s := NewSeries()
	if s.TimeWeightedMean() != 0 {
		t.Error("empty series mean should be 0")
	}
	start := time.Unix(0, 0)
	if err := s.Append(start, 100); err != nil {
		t.Fatal(err)
	}
	if got := s.TimeWeightedMean(); got != 100 {
		t.Errorf("single point mean = %v", got)
	}
	// 100 for 10s, then 0 for 30s => (1000+0)/40 = 25.
	if err := s.Append(start.Add(10*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(start.Add(40*time.Second), 7); err != nil {
		t.Fatal(err)
	}
	if got := s.TimeWeightedMean(); math.Abs(got-25) > 1e-9 {
		t.Errorf("TimeWeightedMean = %v, want 25", got)
	}
}

func TestTimeWeightedMeanDegenerateTimestamps(t *testing.T) {
	s := NewSeries()
	at := time.Unix(5, 0)
	for _, v := range []float64{1, 2, 3} {
		if err := s.Append(at, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TimeWeightedMean(); math.Abs(got-2) > 1e-9 {
		t.Errorf("degenerate mean = %v, want plain mean 2", got)
	}
}

func TestBoundedSeriesEvictsOldest(t *testing.T) {
	s := NewBoundedSeries(3)
	start := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		if err := s.Append(start.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
		wantLen := i + 1
		if wantLen > 3 {
			wantLen = 3
		}
		if s.Len() != wantLen {
			t.Fatalf("after %d appends Len = %d, want %d", i+1, s.Len(), wantLen)
		}
	}
	vals := s.Values()
	if len(vals) != 3 || vals[0] != 7 || vals[1] != 8 || vals[2] != 9 {
		t.Errorf("Values = %v, want [7 8 9]", vals)
	}
	pts := s.Points()
	if len(pts) != 3 || !pts[0].Time.Equal(start.Add(7*time.Second)) {
		t.Errorf("Points = %v", pts)
	}
}

func TestBoundedSeriesOutOfOrderAndAggregates(t *testing.T) {
	s := NewBoundedSeries(2)
	start := time.Unix(0, 0)
	if err := s.Append(start.Add(10*time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(start, 2); err == nil {
		t.Error("expected out-of-order error after wrap reference point")
	}
	if err := s.Append(start.Add(20*time.Second), 3); err != nil {
		t.Fatal(err)
	}
	// Ring is full; evict and keep aggregating over the retained window:
	// value 3 holds for 10 s before 5 arrives.
	if err := s.Append(start.Add(30*time.Second), 5); err != nil {
		t.Fatal(err)
	}
	if got := s.TimeWeightedMean(); math.Abs(got-3) > 1e-9 {
		t.Errorf("TimeWeightedMean = %v, want 3", got)
	}
}

func TestBoundedSeriesInvalidCapacityFallsBack(t *testing.T) {
	s := NewBoundedSeries(0)
	start := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		if err := s.Append(start.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100 (unbounded)", s.Len())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(2.5)
	c.Add(-10) // ignored
	if got := c.Total(); got != 7.5 {
		t.Errorf("Total = %v, want 7.5", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewSeries()
	var c Counter
	var wg sync.WaitGroup
	start := time.Unix(0, 0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// Concurrent appends may race on ordering; errors are fine,
				// crashes are not.
				_ = s.Append(start.Add(time.Duration(i)*time.Millisecond), float64(i))
				c.Add(1)
				_ = s.Values()
			}
		}()
	}
	wg.Wait()
	if c.Total() != 2000 {
		t.Errorf("counter total = %v, want 2000", c.Total())
	}
	if s.Len() == 0 {
		t.Error("series should have points")
	}
}
