package des

import (
	"math"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/workload"
)

func TestRunValidation(t *testing.T) {
	valid := Config{ArrivalRate: 10, Servers: 1, ServiceRate: 20, Duration: time.Second}
	mutations := []func(*Config){
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.ServiceRate = 0 },
		func(c *Config) { c.Duration = 0 },
	}
	for i, m := range mutations {
		c := valid
		m(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := Run(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMM1MeanSojourn(t *testing.T) {
	// M/M/1 with λ=50/s, μ=100/s: mean sojourn = 1/(μ−λ) = 20 ms.
	res, err := Run(Config{
		ArrivalRate: 50,
		Servers:     1,
		ServiceRate: 100,
		Duration:    20 * time.Minute,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 50000 {
		t.Fatalf("only %d completions", res.Completed)
	}
	mean := res.Hist.Mean()
	if math.Abs(mean-20)/20 > 0.1 {
		t.Errorf("mean sojourn = %.2f ms, want ≈20 ms", mean)
	}
	// M/M/1 sojourn is exponential: p99 = ln(100)·mean ≈ 92.1 ms.
	p99 := res.Hist.Percentile(99)
	want := math.Log(100) * 20
	if math.Abs(p99-want)/want > 0.15 {
		t.Errorf("p99 = %.2f ms, want ≈%.1f ms", p99, want)
	}
	if res.Utilization != 0.5 {
		t.Errorf("Utilization = %v", res.Utilization)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	// Tail latency must increase monotonically in offered load and explode
	// near saturation — the property the fluid model's latency law encodes.
	rhos := []float64{0.3, 0.6, 0.85, 0.95}
	p99s := make([]float64, len(rhos))
	for i, rho := range rhos {
		res, err := Run(Config{
			ArrivalRate: rho * 200,
			Servers:     4,
			ServiceRate: 200,
			Duration:    10 * time.Minute,
			Seed:        42,
		})
		if err != nil {
			t.Fatal(err)
		}
		p99s[i] = res.Hist.Percentile(99)
		if i > 0 && p99s[i] <= p99s[i-1] {
			t.Errorf("ρ=%.2f: p99 %.2f not greater than %.2f at the previous load", rho, p99s[i], p99s[i-1])
		}
	}
	// Near saturation the tail must blow up: at least 2× from ρ=0.85 to
	// ρ=0.95.
	if p99s[3] < 2*p99s[2] {
		t.Errorf("ρ=0.95: p99 %.2f did not explode (ρ=0.85 gave %.2f)", p99s[3], p99s[2])
	}
}

func TestMultiServerBeatsSingleServerAtTail(t *testing.T) {
	// At equal aggregate capacity and load, k servers give lower waiting
	// than 1 fast server ONLY in utilization of queueing; actually M/M/1
	// with a fast server has lower sojourn. Verify the simulator reproduces
	// that classic result (service time dominates at k>1).
	one, err := Run(Config{ArrivalRate: 80, Servers: 1, ServiceRate: 100, Duration: 10 * time.Minute, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{ArrivalRate: 80, Servers: 4, ServiceRate: 100, Duration: 10 * time.Minute, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if one.Hist.Mean() >= four.Hist.Mean() {
		t.Errorf("M/M/1 mean %.2f should beat M/M/4 mean %.2f at equal aggregate rate", one.Hist.Mean(), four.Hist.Mean())
	}
}

func TestFromAlloc(t *testing.T) {
	cat := workload.MustDefaults()
	spec, err := cat.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	a := machine.Alloc{Cores: 4, Ways: 8, FreqGHz: 2.2, Duty: 1}
	cfg := FromAlloc(spec, a, 1000, time.Minute, 9)
	if cfg.Servers != 4 {
		t.Errorf("Servers = %d", cfg.Servers)
	}
	if math.Abs(cfg.ServiceRate-spec.Capacity(a)) > 1e-9 {
		t.Errorf("ServiceRate = %v", cfg.ServiceRate)
	}
	if cfg.ArrivalRate != 1000 {
		t.Errorf("ArrivalRate = %v", cfg.ArrivalRate)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Error("no completions")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{ArrivalRate: 100, Servers: 2, ServiceRate: 150, Duration: time.Minute, Seed: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Hist.Percentile(99) != b.Hist.Percentile(99) {
		t.Error("same seed produced different results")
	}
}
