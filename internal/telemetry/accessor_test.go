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

func TestIterate(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	s := NewBoundedSeries(3)
	for i := 1; i <= 5; i++ {
		if err := s.Append(base.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	s.Iterate(func(p Point) bool {
		got = append(got, p.Value)
		return true
	})
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("Iterate saw %v, want [3 4 5]", got)
	}
	// Early stop.
	var count int
	s.Iterate(func(Point) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop Iterate ran %d times", count)
	}
	// Unbounded series iterates in append order; empty series never
	// calls fn.
	u := NewSeries()
	u.Iterate(func(Point) bool {
		t.Fatal("fn called on empty series")
		return true
	})
	for i := 1; i <= 3; i++ {
		_ = u.Append(base.Add(time.Duration(i)*time.Second), float64(i))
	}
	var sum float64
	u.Iterate(func(p Point) bool {
		sum += p.Value
		return true
	})
	if sum != 6 {
		t.Fatalf("unbounded Iterate sum = %g", sum)
	}
	// At agrees with Last on the newest point.
	lastAt, ok1 := u.At(u.Len() - 1)
	last, ok2 := u.Last()
	if !ok1 || !ok2 || lastAt != last {
		t.Fatalf("At(n-1) = %v,%v but Last = %v,%v", lastAt, ok1, last, ok2)
	}
}
