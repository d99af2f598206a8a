package workload

import (
	"math"
	"testing"

	"pocolo/internal/machine"
)

func fullAlloc() machine.Alloc { return machine.XeonE52650().Full() }

func TestDefaultsBuilds(t *testing.T) {
	cat, err := Defaults(machine.XeonE52650())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cat.LC()); got != 4 {
		t.Errorf("LC count = %d, want 4", got)
	}
	if got := len(cat.BE()); got != 4 {
		t.Errorf("BE count = %d, want 4", got)
	}
	if got := len(cat.Names()); got != 8 {
		t.Errorf("Names count = %d, want 8", got)
	}
	if _, err := cat.ByName("xapian"); err != nil {
		t.Errorf("ByName(xapian): %v", err)
	}
	if _, err := cat.ByName("nope"); err == nil {
		t.Error("ByName(nope): expected error")
	}
	if _, err := Defaults(machine.Config{}); err == nil {
		t.Error("Defaults with invalid config: expected error")
	}
}

func TestLCCalibrationMatchesTableII(t *testing.T) {
	cat := MustDefaults()
	want := map[string]struct {
		peak  float64
		p95   float64
		p99   float64
		power float64
	}{
		"img-dnn": {3500, 10, 20, 133},
		"sphinx":  {10, 1800, 3030, 182},
		"xapian":  {4000, 2.588, 4.020, 154},
		"tpcc":    {8000, 51, 707, 133},
	}
	full := fullAlloc()
	for name, w := range want {
		s, err := cat.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MaxLoadSLO(full); math.Abs(got-w.peak)/w.peak > 1e-9 {
			t.Errorf("%s: MaxLoadSLO(full) = %v, want %v", name, got, w.peak)
		}
		if s.SLO.P95Ms != w.p95 || s.SLO.P99Ms != w.p99 {
			t.Errorf("%s: SLO = %+v", name, s.SLO)
		}
		// Power at peak load on the full machine must hit the Table II
		// provisioned power (minus the 50 W idle floor).
		dyn := s.Power(full, w.peak)
		if math.Abs(dyn-(w.power-50)) > 0.5 {
			t.Errorf("%s: peak dynamic power = %v, want %v", name, dyn, w.power-50)
		}
		if s.ProvisionedPowerW != w.power {
			t.Errorf("%s: provisioned power = %v, want %v", name, s.ProvisionedPowerW, w.power)
		}
	}
}

func TestBECalibration(t *testing.T) {
	cat := MustDefaults()
	full := fullAlloc()
	for _, s := range cat.BE() {
		if got := s.Throughput(full); math.Abs(got-s.PeakLoad)/s.PeakLoad > 1e-9 {
			t.Errorf("%s: Throughput(full) = %v, want %v", s.Name, got, s.PeakLoad)
		}
		if s.ProvisionedPowerW != 0 {
			t.Errorf("%s: BE app has provisioned power %v", s.Name, s.ProvisionedPowerW)
		}
	}
}

func TestPreferenceTruthMatchesPaper(t *testing.T) {
	cat := MustDefaults()
	// Section V-C published indirect preference vectors (cores share).
	want := map[string]float64{
		"sphinx":  0.20,
		"lstm":    0.13,
		"graph":   0.80,
		"img-dnn": 0.70,
		"xapian":  0.33,
		"tpcc":    0.40,
		"rnn":     0.55,
		"pbzip":   0.60,
	}
	for name, w := range want {
		s, err := cat.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, ways := s.PreferenceTruth()
		if math.Abs(c-w) > 1e-6 {
			t.Errorf("%s: cores preference = %.3f, want %.3f", name, c, w)
		}
		if math.Abs(c+ways-1) > 1e-9 {
			t.Errorf("%s: preferences do not sum to 1", name)
		}
	}
	// Direct (power-unaware) preference for sphinx is 0.6:0.4 per Fig. 9a.
	sphinx, _ := cat.ByName("sphinx")
	dc, dw := sphinx.DirectPreferenceTruth()
	if math.Abs(dc-0.6) > 1e-9 || math.Abs(dw-0.4) > 1e-9 {
		t.Errorf("sphinx direct preference = %.2f:%.2f, want 0.6:0.4", dc, dw)
	}
}

func TestCapacityMonotonicity(t *testing.T) {
	cat := MustDefaults()
	cfg := machine.XeonE52650()
	for _, s := range append(cat.LC(), cat.BE()...) {
		for c := 1; c < cfg.Cores; c++ {
			a := machine.Alloc{Cores: c, Ways: 10, FreqGHz: 2.2, Duty: 1}
			b := a
			b.Cores++
			if s.Capacity(b) <= s.Capacity(a) {
				t.Errorf("%s: capacity not increasing in cores at %d", s.Name, c)
			}
		}
		for w := 1; w < cfg.LLCWays; w++ {
			a := machine.Alloc{Cores: 6, Ways: w, FreqGHz: 2.2, Duty: 1}
			b := a
			b.Ways++
			if s.Capacity(b) <= s.Capacity(a) {
				t.Errorf("%s: capacity not increasing in ways at %d", s.Name, w)
			}
		}
		for f := 1.2; f < 2.15; f += 0.1 {
			a := machine.Alloc{Cores: 6, Ways: 10, FreqGHz: f, Duty: 1}
			b := a
			b.FreqGHz += 0.1
			if s.Capacity(b) <= s.Capacity(a) {
				t.Errorf("%s: capacity not increasing in freq at %.1f", s.Name, f)
			}
		}
	}
}

func TestCapacityEdgeCases(t *testing.T) {
	cat := MustDefaults()
	s, _ := cat.ByName("xapian")
	if got := s.Capacity(machine.Alloc{Cores: 0, Ways: 10, FreqGHz: 2.2, Duty: 1}); got != 0 {
		t.Errorf("capacity with 0 cores = %v", got)
	}
	if got := s.Capacity(machine.Alloc{Cores: 4, Ways: 0, FreqGHz: 2.2, Duty: 1}); got != 0 {
		t.Errorf("capacity with 0 ways = %v", got)
	}
	if got := s.Capacity(machine.Alloc{Cores: 4, Ways: 4, FreqGHz: 0, Duty: 1}); got != 0 {
		t.Errorf("capacity with 0 freq = %v", got)
	}
	// Duty scales capacity linearly.
	a := machine.Alloc{Cores: 4, Ways: 4, FreqGHz: 2.2, Duty: 1}
	half := a
	half.Duty = 0.5
	if math.Abs(s.Capacity(half)-0.5*s.Capacity(a)) > 1e-9 {
		t.Error("duty should scale capacity linearly")
	}
	// Out-of-range duty treated as 1.
	weird := a
	weird.Duty = 0
	if s.Capacity(weird) != s.Capacity(a) {
		t.Error("duty 0 should be treated as unset (1)")
	}
}

func TestLatencyModel(t *testing.T) {
	cat := MustDefaults()
	s, _ := cat.ByName("img-dnn")
	full := fullAlloc()
	// At exactly the SLO max load, p99 equals the SLO.
	peak := s.MaxLoadSLO(full)
	if got := s.P99(full, peak); math.Abs(got-s.SLO.P99Ms) > 1e-6 {
		t.Errorf("p99 at SLO load = %v, want %v", got, s.SLO.P99Ms)
	}
	if got := s.P95(full, peak); math.Abs(got-s.SLO.P95Ms) > 1e-6 {
		t.Errorf("p95 at SLO load = %v, want %v", got, s.SLO.P95Ms)
	}
	// Latency is increasing in load.
	prev := 0.0
	for frac := 0.1; frac <= 0.9; frac += 0.1 {
		got := s.P99(full, frac*peak)
		if got <= prev {
			t.Errorf("p99 not increasing at load %.0f%%", frac*100)
		}
		prev = got
	}
	// At or beyond capacity, latency is infinite.
	if !math.IsInf(s.P99(full, s.Capacity(full)*1.01), 1) {
		t.Error("p99 beyond capacity should be +Inf")
	}
	if !math.IsInf(s.P99(machine.Alloc{}, 100), 1) {
		t.Error("p99 with empty allocation should be +Inf")
	}
}

func TestXapianLowLoadSmallAllocation(t *testing.T) {
	// Paper Section II-C: at 10% load xapian needs only ~1 core and ~2
	// cache ways. Our calibrated model must sustain 10% load with a small
	// allocation.
	cat := MustDefaults()
	s, _ := cat.ByName("xapian")
	small := machine.Alloc{Cores: 1, Ways: 2, FreqGHz: 2.2, Duty: 1}
	load := 0.10 * s.PeakLoad
	if got := s.MaxLoadSLO(small); got < load*0.95 {
		t.Errorf("1c/2w sustains only %.0f req/s, want ≈%.0f", got, load)
	}
	// And the power draw there should be far below the provisioned 154 W.
	dyn := s.Power(small, load)
	if dyn > 30 {
		t.Errorf("small-allocation dynamic power = %v W, too high", dyn)
	}
}

func TestPowerModel(t *testing.T) {
	cat := MustDefaults()
	s, _ := cat.ByName("sphinx")
	full := fullAlloc()
	peak := s.MaxLoadSLO(full)
	// Power monotonic in load up to peak, then flat.
	prev := -1.0
	for frac := 0.0; frac <= 1.0; frac += 0.1 {
		got := s.Power(full, frac*peak)
		if got < prev-1e-9 {
			t.Errorf("power decreasing at load %.0f%%", frac*100)
		}
		prev = got
	}
	if got := s.Power(full, peak*2); math.Abs(got-s.Power(full, peak)) > 1e-9 {
		t.Error("power above peak load should saturate")
	}
	// Power decreases with frequency.
	lowf := full
	lowf.FreqGHz = 1.2
	if s.Power(lowf, peak) >= s.Power(full, peak) {
		t.Error("power should drop at lower frequency")
	}
	// Duty scales power.
	half := full
	half.Duty = 0.5
	if math.Abs(s.Power(half, peak)-0.5*s.Power(full, peak)) > 1e-9 {
		t.Error("duty should scale power linearly")
	}
	// Empty allocation draws nothing.
	if s.Power(machine.Alloc{}, peak) != 0 {
		t.Error("empty allocation should draw 0 W")
	}
	// BE apps ignore the load argument.
	be, _ := cat.ByName("graph")
	if be.Power(full, 0) != be.Power(full, 1e9) {
		t.Error("BE power should not depend on load")
	}
}

func TestBEPowerOvershootsXapianHeadroom(t *testing.T) {
	// The Fig. 2 motivation: with xapian at 10% load on its minimal
	// allocation, every BE app running uncapped on the spare 11 cores and
	// 18 ways pushes the server beyond the provisioned capacity, and graph
	// is the worst offender.
	cat := MustDefaults()
	xapian, _ := cat.ByName("xapian")
	cfg := machine.XeonE52650()
	lcAlloc := machine.Alloc{Cores: 1, Ways: 2, FreqGHz: 2.2, Duty: 1}
	spare := machine.Alloc{Cores: 11, Ways: 18, FreqGHz: 2.2, Duty: 1}
	load := 0.10 * xapian.PeakLoad
	base := cfg.IdlePowerW + xapian.Power(lcAlloc, load)
	var graphTotal, lstmTotal float64
	for _, be := range cat.BE() {
		total := base + be.Power(spare, 0)
		if total <= xapian.ProvisionedPowerW {
			t.Errorf("%s: colocated power %.1f W does not overshoot %v W cap", be.Name, total, xapian.ProvisionedPowerW)
		}
		switch be.Name {
		case "graph":
			graphTotal = total
		case "lstm":
			lstmTotal = total
		}
	}
	if graphTotal <= lstmTotal {
		t.Errorf("graph (%.1f W) should draw more than lstm (%.1f W)", graphTotal, lstmTotal)
	}
}

func TestClassString(t *testing.T) {
	if LatencyCritical.String() != "latency-critical" || BestEffort.String() != "best-effort" {
		t.Error("unexpected Class strings")
	}
	if Class(42).String() == "" {
		t.Error("unknown class should still render")
	}
	cat := MustDefaults()
	s, _ := cat.ByName("lstm")
	if s.String() == "" {
		t.Error("Spec.String should render")
	}
}

func TestCalibrateErrors(t *testing.T) {
	cfg := machine.XeonE52650()
	bad := Spec{Name: "bad", Class: LatencyCritical, AlphaCores: 0.5, AlphaWays: 0.5, PeakLoad: 0}
	if err := bad.calibrate(cfg); err == nil {
		t.Error("expected error for zero peak load")
	}
	bad = Spec{Name: "bad", Class: LatencyCritical, AlphaCores: 0, AlphaWays: 0.5, PeakLoad: 10}
	if err := bad.calibrate(cfg); err == nil {
		t.Error("expected error for zero exponent")
	}
	bad = Spec{Name: "bad", Class: Class(9), AlphaCores: 0.5, AlphaWays: 0.5, PeakLoad: 10}
	if err := bad.calibrate(cfg); err == nil {
		t.Error("expected error for unknown class")
	}
	bad = Spec{Name: "bad", Class: LatencyCritical, AlphaCores: 0.5, AlphaWays: 0.5, PeakLoad: 10}
	if err := bad.calibrate(machine.Config{}); err == nil {
		t.Error("expected error for invalid machine config")
	}
}

func TestMaxLoadWithSlackInvertsLatency(t *testing.T) {
	// Property: loading any allocation to exactly MaxLoadWithSlack(s)
	// produces a p99 of exactly (1−s)·SLO.
	cat := MustDefaults()
	for _, name := range []string{"img-dnn", "sphinx", "xapian", "tpcc"} {
		s, err := cat.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, alloc := range []machine.Alloc{
			{Cores: 2, Ways: 3, FreqGHz: 2.2, Duty: 1},
			{Cores: 6, Ways: 10, FreqGHz: 1.8, Duty: 1},
			{Cores: 12, Ways: 20, FreqGHz: 2.2, Duty: 1},
		} {
			for _, slack := range []float64{0, 0.10, 0.25} {
				load := s.MaxLoadWithSlack(alloc, slack)
				if load <= 0 {
					t.Fatalf("%s: no load sustainable at %v", name, alloc)
				}
				want := (1 - slack) * s.SLO.P99Ms
				if got := s.P99(alloc, load); math.Abs(got-want)/want > 1e-9 {
					t.Errorf("%s %v slack %v: p99 %v, want %v", name, alloc, slack, got, want)
				}
			}
		}
		// Degenerate slack values.
		if got := s.MaxLoadWithSlack(machine.Alloc{Cores: 2, Ways: 2, FreqGHz: 2.2, Duty: 1}, 0.9); got != 0 {
			t.Errorf("%s: slack beyond the latency floor should be unreachable, got %v", name, got)
		}
		neg := s.MaxLoadWithSlack(machine.Alloc{Cores: 2, Ways: 2, FreqGHz: 2.2, Duty: 1}, -1)
		zero := s.MaxLoadWithSlack(machine.Alloc{Cores: 2, Ways: 2, FreqGHz: 2.2, Duty: 1}, 0)
		if math.Abs(neg-zero) > 1e-9 {
			t.Errorf("%s: negative slack should clamp to zero", name)
		}
	}
}

func TestDefaultsCalibrateOnCustomPlatform(t *testing.T) {
	// The catalog calibrates to whatever platform it is given; a larger
	// machine must still hit the Table II peaks at ITS full allocation.
	big := machine.Config{
		Name:         "big-box",
		Cores:        24,
		LLCWays:      32,
		LLCMB:        60,
		MemoryGB:     512,
		StorageGB:    960,
		MinFreqGHz:   1.0,
		MaxFreqGHz:   3.0,
		FreqStepGHz:  0.1,
		IdlePowerW:   70,
		ActivePowerW: 250,
	}
	cat, err := Defaults(big)
	if err != nil {
		t.Fatal(err)
	}
	full := big.Full()
	for _, s := range cat.LC() {
		if got := s.MaxLoadSLO(full); math.Abs(got-s.PeakLoad)/s.PeakLoad > 1e-9 {
			t.Errorf("%s: peak %v on the big box, want %v", s.Name, got, s.PeakLoad)
		}
		// Peak power still matches the Table II target (dynamic part is
		// provisioned − the platform's own idle floor).
		dyn := s.Power(full, s.PeakLoad)
		if want := s.ProvisionedPowerW - big.IdlePowerW; math.Abs(dyn-want) > 0.5 {
			t.Errorf("%s: peak dynamic %v, want %v", s.Name, dyn, want)
		}
	}
	for _, s := range cat.BE() {
		if got := s.Throughput(full); math.Abs(got-s.PeakLoad)/s.PeakLoad > 1e-9 {
			t.Errorf("%s: throughput %v on the big box, want %v", s.Name, got, s.PeakLoad)
		}
	}
	// Preferences are platform-independent by construction.
	xapian, err := cat.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := xapian.PreferenceTruth(); math.Abs(c-0.33) > 1e-6 {
		t.Errorf("xapian preference %v on the big box, want 0.33", c)
	}
}
