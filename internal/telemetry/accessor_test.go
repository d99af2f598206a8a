package telemetry

import (
	"testing"
	"time"
)

// TestAtWraparound exercises the bounded-ring head/n bookkeeping through
// a full eviction cycle: before wrap, exactly at capacity, and well past
// it, At(i) must always return the i-th oldest retained point.
func TestAtWraparound(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	s := NewBoundedSeries(4)
	appendN := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := s.Append(base.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}
	check := func(oldest int) {
		t.Helper()
		n := s.Len()
		for i := 0; i < n; i++ {
			p, ok := s.At(i)
			if !ok {
				t.Fatalf("At(%d) not ok with %d retained", i, n)
			}
			if want := float64(oldest + i); p.Value != want {
				t.Fatalf("At(%d) = %g, want %g", i, p.Value, want)
			}
			if want := base.Add(time.Duration(oldest+i) * time.Second); !p.Time.Equal(want) {
				t.Fatalf("At(%d).Time = %v, want %v", i, p.Time, want)
			}
		}
		if _, ok := s.At(n); ok {
			t.Fatalf("At(%d) ok past the end", n)
		}
		if _, ok := s.At(-1); ok {
			t.Fatal("At(-1) ok")
		}
	}

	check(0) // empty
	appendN(1, 3)
	check(1) // partially filled, no wrap
	appendN(4, 4)
	check(1) // exactly full, head still 0
	appendN(5, 5)
	check(2) // first eviction
	appendN(6, 11)
	check(8) // head has lapped the ring
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}
