package latency

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct{ min, max, prec float64 }{
		{0, 100, 0.01},
		{-1, 100, 0.01},
		{10, 5, 0.01},
		{1, 100, 0},
		{1, 100, 1.5},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.min, c.max, c.prec); err == nil {
			t.Errorf("NewHistogram(%v, %v, %v): expected error", c.min, c.max, c.prec)
		}
	}
	if _, err := NewHistogram(0.01, 10000, 0.01); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNewHistogram(0, 0, 0)
}

func TestHistogramBasics(t *testing.T) {
	h := MustNewHistogram(0.01, 10000, 0.005)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		if err := h.Record(v); err != nil {
			t.Fatal(err)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-3) > 1e-9 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramRejectsBadValues(t *testing.T) {
	h := MustNewHistogram(0.01, 100, 0.01)
	if err := h.Record(-1); err == nil {
		t.Error("expected error for negative value")
	}
	if err := h.Record(math.NaN()); err == nil {
		t.Error("expected error for NaN")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := MustNewHistogram(0.01, 100, 0.01)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Percentile(99) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Record a known distribution and check percentile relative error is
	// bounded by the configured precision (plus bucket midpoint effects).
	h := MustNewHistogram(0.01, 100000, 0.005)
	rng := rand.New(rand.NewSource(3))
	var values []float64
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()*1.0 + 2) // lognormal, ms
		values = append(values, v)
		if err := h.Record(v); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(values)
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		idx := int(math.Ceil(p/100*float64(len(values)))) - 1
		exact := values[idx]
		got := h.Percentile(p)
		relErr := math.Abs(got-exact) / exact
		if relErr > 0.02 {
			t.Errorf("p%v: got %v, exact %v, relErr %.4f", p, got, exact, relErr)
		}
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	h := MustNewHistogram(0.01, 1000, 0.01)
	for i := 1; i <= 100; i++ {
		if err := h.Record(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1 (min)", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want 100 (max)", got)
	}
	if got := h.Percentile(150); got != 100 {
		t.Errorf("p150 = %v, want clamped to max", got)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := MustNewHistogram(1, 100, 0.01)
	if err := h.Record(0.5); err != nil { // below min
		t.Fatal(err)
	}
	if err := h.Record(500); err != nil { // above max
		t.Fatal(err)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	// Exact min/max still visible via the tracked extremes.
	if h.Min() != 0.5 || h.Max() != 500 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := MustNewHistogram(0.01, 1000, 0.01)
	for i := 0; i < 100; i++ {
		for _, ms := range []float64{1, 100} {
			if err := h.Record(ms); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.Count() != 200 || math.Abs(h.Mean()-50.5) > 1e-9 || h.Max() != 100 || h.Min() != 1 {
		t.Errorf("before reset: count %d, mean %v, extremes %v/%v", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("reset should clear the histogram")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := MustNewHistogram(0.01, 1000, 0.01)
	for i := 1; i <= 1000; i++ {
		if err := h.Record(float64(i) / 10); err != nil {
			t.Fatal(err)
		}
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Errorf("snapshot count = %d", s.Count)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Errorf("snapshot percentiles out of order: %+v", s)
	}
}
