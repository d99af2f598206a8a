package online

import (
	"math"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector("", []string{"c"}, 10); err == nil {
		t.Error("expected error for empty app")
	}
	if _, err := NewCollector("x", nil, 10); err == nil {
		t.Error("expected error for no resources")
	}
	if _, err := NewCollector("x", []string{"c", "w"}, 2); err == nil {
		t.Error("expected error for tiny window")
	}
}

func TestCollectorObserveAndRing(t *testing.T) {
	c, err := NewCollector("x", []string{"c", "w"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Rejections.
	if err := c.Observe([]float64{1}, 10, 5); err == nil {
		t.Error("expected dimension error")
	}
	if err := c.Observe([]float64{1, 2}, 0, 5); err == nil {
		t.Error("expected error for zero perf")
	}
	if err := c.Observe([]float64{0, 2}, 10, 5); err == nil {
		t.Error("expected error for zero alloc")
	}
	if err := c.Observe([]float64{1, 2}, 10, -1); err == nil {
		t.Error("expected error for negative power")
	}
	if err := c.Observe([]float64{1, 2}, math.NaN(), 5); err == nil {
		t.Error("expected error for NaN perf")
	}
	// Ring keeps the last `window` observations.
	for i := 0; i < 20; i++ {
		if err := c.Observe([]float64{float64(i%4 + 1), 2}, float64(i+1), 5); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 8 {
		t.Errorf("Len = %d, want 8", c.Len())
	}
	if c.DistinctAllocs() != 4 {
		t.Errorf("DistinctAllocs = %d, want 4", c.DistinctAllocs())
	}
}

func TestCollectorRefitRecoversModel(t *testing.T) {
	c, err := NewCollector("synth", []string{"c", "w"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Not enough diversity yet.
	for i := 0; i < 10; i++ {
		if err := c.Observe([]float64{2, 4}, 100, 20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refit(); err == nil {
		t.Error("expected diversity error")
	}
	// Feed a clean Cobb-Douglas surface.
	for cc := 1.0; cc <= 8; cc++ {
		for w := 2.0; w <= 16; w += 2 {
			perf := 50 * math.Pow(cc, 0.6) * math.Pow(w, 0.4)
			pw := 5 + 3*cc + 1.5*w
			if err := c.Observe([]float64{cc, w}, perf, pw); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := c.Refit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha[0]-0.6) > 0.05 || math.Abs(m.Alpha[1]-0.4) > 0.05 {
		t.Errorf("refit α = %v", m.Alpha)
	}
	if math.Abs(m.P[0]-3) > 0.3 || math.Abs(m.P[1]-1.5) > 0.3 {
		t.Errorf("refit p = %v", m.P)
	}
}

func TestEstimateLCPerfInvertsLatencyLaw(t *testing.T) {
	// Property: for any allocation and moderate load, feeding the model's
	// own p99 back through the inversion recovers MaxLoadWithSlack.
	cat := workload.MustDefaults()
	spec, err := cat.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range []machine.Alloc{
		{Cores: 2, Ways: 4, FreqGHz: 2.2, Duty: 1},
		{Cores: 6, Ways: 10, FreqGHz: 2.2, Duty: 1},
		{Cores: 12, Ways: 20, FreqGHz: 2.2, Duty: 1},
	} {
		for _, frac := range []float64{0.3, 0.6, 0.8} {
			load := frac * spec.MaxLoadSLO(alloc)
			p99 := spec.P99(alloc, load)
			got, ok := EstimateLCPerf(load, p99, spec.SLO.P99Ms, 0.10)
			if !ok {
				t.Fatalf("alloc %v frac %v: estimate rejected", alloc, frac)
			}
			want := spec.MaxLoadWithSlack(alloc, 0.10)
			if math.Abs(got-want)/want > 0.01 {
				t.Errorf("alloc %v frac %v: estimated %v, want %v", alloc, frac, got, want)
			}
		}
	}
}

func TestEstimateLCPerfRejectsUselessSignals(t *testing.T) {
	cases := []struct {
		name           string
		load, p99, slo float64
	}{
		{"zero load", 0, 5, 10},
		{"zero p99", 100, 0, 10},
		{"latency floor", 100, 3.0, 10}, // p99 ≈ 0.3·SLO carries no queueing signal
		{"saturated", 100, 100, 10},     // 10× SLO sentinel
	}
	for _, c := range cases {
		if _, ok := EstimateLCPerf(c.load, c.p99, c.slo, 0.1); ok {
			t.Errorf("%s: expected rejection", c.name)
		}
	}
}

// rigAdapter builds a xapian host deliberately managed with an img-dnn
// model (badly wrong), optionally with the online adapter attached.
func rigAdapter(t *testing.T, adapt bool) (*sim.Host, *servermgr.Manager, *Adapter, *sim.Engine) {
	t.Helper()
	cfg := machine.XeonE52650()
	cat := workload.MustDefaults()
	lc, err := cat.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	host, err := sim.NewHost(sim.HostConfig{
		Name:    "adaptive",
		Machine: cfg,
		LC:      lc,
		Trace:   workload.UniformSweep(5 * time.Second),
		Seed:    13,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := profiler.ProfileAndFit(profiler.Config{
		Spec: mustBy(t, cat, "img-dnn"), Machine: cfg, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrong.App = "xapian" // borrowed parameters, as a cold-started manager would have
	mgr, err := servermgr.New(servermgr.Config{Host: host, Model: wrong, Policy: servermgr.PowerOptimized})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddHost(host); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Attach(engine); err != nil {
		t.Fatal(err)
	}
	var adapter *Adapter
	if adapt {
		adapter, err = NewAdapter(host, mgr)
		if err != nil {
			t.Fatal(err)
		}
		if err := adapter.Attach(engine); err != nil {
			t.Fatal(err)
		}
	}
	return host, mgr, adapter, engine
}

func mustBy(t *testing.T, cat *workload.Catalog, name string) *workload.Spec {
	t.Helper()
	s, err := cat.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdapterValidation(t *testing.T) {
	host, mgr, _, _ := rigAdapter(t, false)
	if _, err := NewAdapter(nil, mgr); err == nil {
		t.Error("expected error for nil host")
	}
	if _, err := NewAdapter(host, nil); err == nil {
		t.Error("expected error for nil manager")
	}
	a, err := NewAdapter(host, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Attach(nil); err == nil {
		t.Error("expected error attaching to nil engine")
	}
}

func TestAdapterConvergesToTruth(t *testing.T) {
	// Run two sweeps of the load range; the adapter should have refit the
	// manager's model toward xapian's true parameters.
	host, mgr, adapter, engine := rigAdapter(t, true)
	if err := engine.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	obs, _, refits, _ := adapter.Stats()
	if obs < 30 {
		t.Fatalf("only %d observations ingested", obs)
	}
	if refits == 0 {
		t.Fatal("adapter never refit the model")
	}
	cat := workload.MustDefaults()
	spec := mustBy(t, cat, "xapian")
	truthC, _ := spec.PreferenceTruth()
	gotC := mgr.Model().Preference()[0]
	// Observations gathered by a power-optimizing controller are
	// correlated (they lie near the expansion path), so the online power
	// fit cannot fully separate the per-resource coefficients — the
	// preference only needs to move TOWARD the truth from the borrowed
	// img-dnn value (0.7).
	borrowedC := 0.70
	if math.Abs(gotC-truthC) >= math.Abs(borrowedC-truthC) {
		t.Errorf("refit preference %v did not improve on borrowed %v (truth %v)", gotC, borrowedC, truthC)
	}
	// The refit model predicts capacity far better than the borrowed one:
	// compare predicted max load on the full machine (the conservative
	// margin biases the prediction slightly low on purpose).
	full := machine.XeonE52650().Full()
	want := spec.MaxLoadWithSlack(full, 0.10)
	got := mgr.Model().Perf([]float64{12, 20})
	if rel := math.Abs(got-want) / want; rel > 0.25 {
		t.Errorf("refit full-machine prediction off by %.0f%% (got %v, want %v)", rel*100, got, want)
	}
	_ = host
}

func TestAdapterImprovesOnWrongModel(t *testing.T) {
	// Same wrong-model start, with and without adaptation. The borrowed
	// img-dnn model is conservatively wrong: it under-predicts xapian's
	// capacity everywhere, so the unadapted manager over-allocates and
	// burns power. Adaptation recovers that power at the cost of a few
	// transient violations around the sweep's load discontinuities (the
	// refit model sizes allocations tightly). Assert the trade: real power
	// savings, bounded violations.
	hostOff, _, _, engOff := rigAdapter(t, false)
	if err := engOff.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	hostOn, _, _, engOn := rigAdapter(t, true)
	if err := engOn.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	off := hostOff.Metrics()
	on := hostOn.Metrics()
	if on.MeanPowerW >= off.MeanPowerW {
		t.Errorf("adaptation should save power: %.1f W vs %.1f W unadapted", on.MeanPowerW, off.MeanPowerW)
	}
	if on.SLOViolFrac > 0.08 {
		t.Errorf("adaptation violations %.2f%% exceed the acceptable transient budget", on.SLOViolFrac*100)
	}
	// The time-weighted mean slack includes the deep negative sentinels of
	// the wrap transients, so it sits below the 10% guard; it must at
	// least stay positive (healthy in steady state).
	if on.MeanSlack < 0 {
		t.Errorf("adapted mean slack %.2f negative", on.MeanSlack)
	}
}
