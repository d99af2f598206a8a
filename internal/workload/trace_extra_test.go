package workload

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTwoPeakTrace(t *testing.T) {
	tp, err := NewTwoPeakTrace(0.1, 0.5, 0.9, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Duration() != 24*time.Hour {
		t.Errorf("Duration = %v", tp.Duration())
	}
	// Trough at cycle start, peaks at 40% and 80%, sag at 60%.
	day := 24 * time.Hour
	at := func(frac float64) float64 {
		return tp.LoadFraction(time.Duration(float64(day) * frac))
	}
	if got := at(0.05); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("trough = %v, want 0.1", got)
	}
	if got := at(0.40); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("first peak = %v, want 0.9", got)
	}
	if got := at(0.60); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("sag = %v, want 0.5", got)
	}
	if got := at(0.80); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("second peak = %v, want 0.9", got)
	}
	// Bounded and periodic.
	for frac := 0.0; frac < 2; frac += 0.01 {
		v := at(frac)
		if v < 0.1-1e-9 || v > 0.9+1e-9 {
			t.Fatalf("frac %v: load %v out of band", frac, v)
		}
	}
	if math.Abs(at(0.25)-at(1.25)) > 1e-9 {
		t.Error("trace not periodic")
	}
	if tp.String() == "" {
		t.Error("String should render")
	}
}

func TestTwoPeakValidation(t *testing.T) {
	cases := []struct{ lo, mid, hi float64 }{
		{-0.1, 0.5, 0.9},
		{0.1, 0.05, 0.9},
		{0.1, 0.95, 0.9},
		{0.1, 0.5, 1.1},
	}
	for _, c := range cases {
		if _, err := NewTwoPeakTrace(c.lo, c.mid, c.hi, time.Hour); err == nil {
			t.Errorf("NewTwoPeakTrace(%v, %v, %v): expected error", c.lo, c.mid, c.hi)
		}
	}
	if _, err := NewTwoPeakTrace(0.1, 0.5, 0.9, 0); err == nil {
		t.Error("expected error for zero period")
	}
}

func TestFlashCrowdTrace(t *testing.T) {
	f, err := NewFlashCrowdTrace(0.2, 0.9, 30*time.Second, 20*time.Second, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.LoadFraction(10 * time.Second); got != 0.2 {
		t.Errorf("before spike: %v", got)
	}
	// Mid-ramp: between base and spike.
	if got := f.LoadFraction(31 * time.Second); got <= 0.2 || got >= 0.9 {
		t.Errorf("on ramp: %v", got)
	}
	if got := f.LoadFraction(40 * time.Second); got != 0.9 {
		t.Errorf("during spike: %v", got)
	}
	if got := f.LoadFraction(55 * time.Second); got != 0.2 {
		t.Errorf("after spike: %v", got)
	}
	if f.Duration() != 2*time.Minute {
		t.Errorf("Duration = %v", f.Duration())
	}
	if f.String() == "" {
		t.Error("String should render")
	}
}

func TestFlashCrowdValidation(t *testing.T) {
	if _, err := NewFlashCrowdTrace(0.9, 0.2, time.Second, time.Second, time.Minute); err == nil {
		t.Error("expected error when spike below base")
	}
	if _, err := NewFlashCrowdTrace(-0.1, 0.9, time.Second, time.Second, time.Minute); err == nil {
		t.Error("expected error for negative base")
	}
	if _, err := NewFlashCrowdTrace(0.2, 0.9, time.Minute, time.Minute, time.Minute); err == nil {
		t.Error("expected error when spike exceeds span")
	}
}

func TestNoisyTrace(t *testing.T) {
	inner, err := NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNoisyTrace(inner, 0.1, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic per slot.
	a := n.LoadFraction(1500 * time.Millisecond)
	b := n.LoadFraction(1700 * time.Millisecond)
	if a != b {
		t.Error("same slot should give same jitter")
	}
	// Different slots differ (with overwhelming probability).
	c := n.LoadFraction(2500 * time.Millisecond)
	if a == c {
		t.Error("different slots should jitter differently")
	}
	// Bounded and centered.
	sum := 0.0
	count := 0
	for s := 0; s < 2000; s++ {
		v := n.LoadFraction(time.Duration(s) * time.Second)
		if v < 0 || v > 1 {
			t.Fatalf("slot %d: load %v out of [0,1]", s, v)
		}
		sum += v
		count++
	}
	if mean := sum / float64(count); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("noisy mean %v drifted from 0.5", mean)
	}
	if n.Duration() != inner.Duration() {
		t.Error("Duration should defer to inner")
	}
	if n.String() == "" {
		t.Error("String should render")
	}
	// Zero noise passes through exactly.
	zero, err := NewNoisyTrace(inner, 0, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if zero.LoadFraction(time.Second) != 0.5 {
		t.Error("zero noise should pass through")
	}
}

func TestNoisyTraceValidation(t *testing.T) {
	inner, _ := NewConstantTrace(0.5)
	if _, err := NewNoisyTrace(nil, 0.1, time.Second, 1); err == nil {
		t.Error("expected error for nil inner")
	}
	if _, err := NewNoisyTrace(inner, 0.9, time.Second, 1); err == nil {
		t.Error("expected error for absurd noise")
	}
	if _, err := NewNoisyTrace(inner, 0.1, 0, 1); err == nil {
		t.Error("expected error for zero interval")
	}
}

func TestReplayTrace(t *testing.T) {
	rt, err := NewReplayTrace("prod", []time.Duration{0, 10 * time.Second, 20 * time.Second}, []float64{0.2, 0.8, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.LoadFraction(0); got != 0.2 {
		t.Errorf("t=0: %v", got)
	}
	if got := rt.LoadFraction(5 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("t=5s: %v, want interpolated 0.5", got)
	}
	if got := rt.LoadFraction(10 * time.Second); got != 0.8 {
		t.Errorf("t=10s: %v", got)
	}
	if got := rt.LoadFraction(15 * time.Second); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("t=15s: %v, want 0.6", got)
	}
	// Wraps after the span.
	if got := rt.LoadFraction(25 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("t=25s (wrapped to 5s): %v", got)
	}
	if rt.Duration() != 20*time.Second {
		t.Errorf("Duration = %v", rt.Duration())
	}
	if !strings.Contains(rt.String(), "prod") {
		t.Errorf("String = %q", rt.String())
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplayTrace("x", []time.Duration{0}, []float64{0.5}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := NewReplayTrace("x", []time.Duration{0, time.Second}, []float64{0.5}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := NewReplayTrace("x", []time.Duration{time.Second, time.Second}, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for non-increasing offsets")
	}
	if _, err := NewReplayTrace("x", []time.Duration{0, time.Second}, []float64{0.5, 1.5}); err == nil {
		t.Error("expected error for out-of-range load")
	}
	if _, err := NewReplayTrace("x", []time.Duration{-time.Second, time.Second}, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for negative start")
	}
}

func TestParseCSVTrace(t *testing.T) {
	csvData := "seconds,load\n0,0.1\n30,0.5\n60,0.9\n"
	rt, err := ParseCSVTrace("csv", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Duration() != time.Minute {
		t.Errorf("Duration = %v", rt.Duration())
	}
	if got := rt.LoadFraction(45 * time.Second); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("t=45s: %v, want 0.7", got)
	}
	// Headerless CSV also parses.
	rt2, err := ParseCSVTrace("csv", strings.NewReader("0,0.2\n10,0.4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.LoadFraction(0) != 0.2 {
		t.Error("headerless parse broken")
	}
	// Garbage rows rejected.
	if _, err := ParseCSVTrace("csv", strings.NewReader("0,0.2\nbad,row\n")); err == nil {
		t.Error("expected error for non-numeric data row")
	}
	if _, err := ParseCSVTrace("csv", strings.NewReader("only-header,row\n")); err == nil {
		t.Error("expected error when no data rows remain")
	}
	if _, err := ParseCSVTrace("csv", strings.NewReader("0,0.2,extra\n")); err == nil {
		t.Error("expected error for wrong column count")
	}
}

func TestParseCSVTraceErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"non-numeric seconds", "0,0.2\nten,0.4\n"},
		{"non-numeric load", "0,0.2\n10,high\n"},
		{"non-numeric row past header", "seconds,load\n0,0.2\nbad,row\n"},
		{"wrong column count", "0,0.2\n10,0.4,0.6\n"},
		{"missing load column", "0\n10\n"},
		{"empty input", ""},
		{"header only", "seconds,load\n"},
		{"single data point", "0,0.2\n"},
		{"decreasing seconds", "0,0.2\n20,0.4\n10,0.6\n"},
		{"repeated seconds", "0,0.2\n10,0.4\n10,0.6\n"},
		{"negative start", "-5,0.2\n10,0.4\n"},
		{"load above one", "0,0.2\n10,1.4\n"},
		{"negative load", "0,-0.2\n10,0.4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseCSVTrace("csv", strings.NewReader(tc.csv)); err == nil {
				t.Errorf("ParseCSVTrace accepted %q", tc.csv)
			}
		})
	}
}

func TestTracesSatisfyInterface(t *testing.T) {
	inner, _ := NewConstantTrace(0.5)
	noisy, _ := NewNoisyTrace(inner, 0.05, time.Second, 1)
	twoPeak, _ := NewTwoPeakTrace(0.1, 0.5, 0.9, time.Hour)
	flash, _ := NewFlashCrowdTrace(0.2, 0.9, time.Second, time.Second, time.Minute)
	replay, _ := NewReplayTrace("r", []time.Duration{0, time.Second}, []float64{0.1, 0.2})
	for _, tr := range []Trace{noisy, twoPeak, flash, replay} {
		if tr.LoadFraction(0) < 0 || tr.LoadFraction(0) > 1 {
			t.Errorf("%v: load out of range", tr)
		}
		if tr.Duration() <= 0 {
			t.Errorf("%v: non-positive duration", tr)
		}
	}
}

// TestNamedTrace builds every named trace kind, rejects unknown kinds and
// missing CSV files, and replays a real CSV file.
func TestNamedTrace(t *testing.T) {
	for _, kind := range []string{"constant", "diurnal", "two-peak", "sweep", "step", "flash"} {
		tr, err := NamedTrace(kind, 0.5, 4*time.Minute)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if v := tr.LoadFraction(time.Minute); v < 0 || v > 1 {
			t.Errorf("%s: load %v out of range", kind, v)
		}
	}
	if _, err := NamedTrace("nope", 0.5, time.Minute); err == nil {
		t.Error("expected error for unknown trace")
	}
	if _, err := NamedTrace("csv:/does/not/exist.csv", 0.5, time.Minute); err == nil {
		t.Error("expected error for missing CSV file")
	}
	// A real CSV file round-trips.
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte("0,0.2\n60,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := NamedTrace("csv:"+path, 0.5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.LoadFraction(30 * time.Second); got < 0.45 || got > 0.55 {
		t.Errorf("CSV midpoint = %v, want ≈0.5", got)
	}
}
