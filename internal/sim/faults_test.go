package sim

import (
	"math"
	"testing"
	"time"

	"pocolo/internal/machine"
)

// pathologicalTrace returns out-of-contract load fractions to probe the
// host's robustness against a buggy load source.
type pathologicalTrace struct{ mode int }

func (p pathologicalTrace) LoadFraction(t time.Duration) float64 {
	switch p.mode {
	case 0:
		return -0.5 // negative offered load
	case 1:
		return 3.0 // load far beyond peak
	default:
		return math.NaN()
	}
}
func (p pathologicalTrace) Duration() time.Duration { return time.Minute }
func (p pathologicalTrace) String() string          { return "pathological" }

func TestHostSurvivesPathologicalTraces(t *testing.T) {
	cat, cfg := testCatalog(t)
	lc := mustSpec(t, cat, "xapian")
	for mode := 0; mode <= 2; mode++ {
		h, err := NewHost(HostConfig{
			Name: "fault", Machine: cfg, LC: lc,
			Trace: pathologicalTrace{mode: mode}, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddHost(h); err != nil {
			t.Fatal(err)
		}
		// Must not panic; accounting must stay sane.
		if err := e.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		m := h.Metrics()
		if m.LCOps < 0 {
			t.Errorf("mode %d: negative goodput %v", mode, m.LCOps)
		}
		if m.BEOps < 0 {
			t.Errorf("mode %d: negative BE ops %v", mode, m.BEOps)
		}
		if m.MeanPowerW < 0 || math.IsNaN(m.MeanPowerW) {
			t.Errorf("mode %d: broken power accounting %v", mode, m.MeanPowerW)
		}
		if m.EnergyKWh < 0 || math.IsNaN(m.EnergyKWh) {
			t.Errorf("mode %d: broken energy accounting %v", mode, m.EnergyKWh)
		}
	}
}

func TestAppPowerMeter(t *testing.T) {
	cat, cfg := testCatalog(t)
	lc := mustSpec(t, cat, "xapian")
	be := mustSpec(t, cat, "graph")
	h, err := NewHost(HostConfig{
		Name: "appmeter", Machine: cfg, LC: lc, BE: be,
		Trace: constTrace(t, 0.5), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Server().SetAlloc(lc.Name, machine.Alloc{Cores: 6, Ways: 10, FreqGHz: 2.2, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Server().SetAlloc(be.Name, machine.Alloc{Cores: 6, Ways: 10, FreqGHz: 2.2, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddHost(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	lcW, err := h.AppPowerW(lc.Name)
	if err != nil {
		t.Fatal(err)
	}
	beW, err := h.AppPowerW(be.Name)
	if err != nil {
		t.Fatal(err)
	}
	if lcW <= 0 || beW <= 0 {
		t.Errorf("app powers: lc=%v be=%v", lcW, beW)
	}
	// The apportioned parts plus the idle floor approximate the server
	// draw (within meter noise).
	total := cfg.IdlePowerW + lcW + beW
	server := h.MeterReading().Watts
	if math.Abs(total-server)/server > 0.10 {
		t.Errorf("apportioned %v vs server %v diverge", total, server)
	}
	if _, err := h.AppPowerW("ghost"); err == nil {
		t.Error("expected error for unknown tenant")
	}
}

func TestP95Telemetry(t *testing.T) {
	cat, cfg := testCatalog(t)
	lc := mustSpec(t, cat, "img-dnn")
	h, err := NewHost(HostConfig{Name: "p95", Machine: cfg, LC: lc, Trace: constTrace(t, 0.6), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddHost(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p95, p99 := h.ObservedP95(), h.ObservedP99()
	if p95 <= 0 || p99 <= 0 {
		t.Fatalf("latency observations: p95=%v p99=%v", p95, p99)
	}
	// Tails are ordered on average; with observation noise allow headroom
	// on the instantaneous pair.
	if p95 > p99*1.2 {
		t.Errorf("p95 %v far above p99 %v", p95, p99)
	}
	if h.P95Series().Len() != h.P99Series().Len() {
		t.Error("p95 series should track p99 series")
	}
}
