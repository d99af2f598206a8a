package machine

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestXeonE52650Config(t *testing.T) {
	cfg := XeonE52650()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table I config invalid: %v", err)
	}
	if cfg.Cores != 12 || cfg.LLCWays != 20 || cfg.LLCMB != 30 {
		t.Errorf("unexpected core/LLC config: %+v", cfg)
	}
	if cfg.MinFreqGHz != 1.2 || cfg.MaxFreqGHz != 2.2 {
		t.Errorf("unexpected DVFS range: %+v", cfg)
	}
	if cfg.IdlePowerW != 50 || cfg.ActivePowerW != 135 {
		t.Errorf("unexpected power envelope: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	base := XeonE52650()
	mutate := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LLCWays = 0 },
		func(c *Config) { c.MinFreqGHz = 0 },
		func(c *Config) { c.MaxFreqGHz = 0.5 },
		func(c *Config) { c.FreqStepGHz = 0 },
		func(c *Config) { c.IdlePowerW = -5 },
		func(c *Config) { c.ActivePowerW = c.IdlePowerW },
	}
	for i, m := range mutate {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestClampFreq(t *testing.T) {
	cfg := XeonE52650()
	cases := []struct{ in, want float64 }{
		{0.5, 1.2},
		{3.0, 2.2},
		{1.75, 1.8}, // snaps to nearest 0.1 step from 1.2
		{1.74, 1.7},
		{2.2, 2.2},
		{1.2, 1.2},
	}
	for _, c := range cases {
		if got := cfg.ClampFreq(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ClampFreq(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClampFreqAlwaysInRange(t *testing.T) {
	cfg := XeonE52650()
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		got := cfg.ClampFreq(x)
		return got >= cfg.MinFreqGHz-1e-9 && got <= cfg.MaxFreqGHz+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAllocHelpers(t *testing.T) {
	cfg := XeonE52650()
	full := cfg.Full()
	if full.Cores != 12 || full.Ways != 20 || full.FreqGHz != 2.2 || full.Duty != 1 {
		t.Errorf("Full = %+v", full)
	}
	if !(Alloc{}).IsZero() {
		t.Error("zero alloc should be zero")
	}
	if full.IsZero() {
		t.Error("full alloc should not be zero")
	}
	if full.String() == "" {
		t.Error("String should render something")
	}
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(XeonE52650())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerRejectsBadConfig(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("expected error for invalid config")
	}
}

func TestTenantLifecycle(t *testing.T) {
	s := newTestServer(t)
	if err := s.AddTenant(""); err == nil {
		t.Error("expected error for empty tenant name")
	}
	if err := s.AddTenant("lc"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant("lc"); err == nil {
		t.Error("expected error for duplicate tenant")
	}
	if err := s.AddTenant("be"); err != nil {
		t.Fatal(err)
	}
	got := s.Tenants()
	if len(got) != 2 || got[0] != "be" || got[1] != "lc" {
		t.Errorf("Tenants = %v", got)
	}
	if err := s.SetCores("lc", 4); err != nil {
		t.Fatal(err)
	}
	cores, ways := s.Free()
	if cores != 8 || ways != 20 {
		t.Errorf("free = %d cores, %d ways, want 8 and 20", cores, ways)
	}
}

func TestUnknownTenantOperations(t *testing.T) {
	s := newTestServer(t)
	if err := s.SetCores("ghost", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("SetCores: %v", err)
	}
	if err := s.SetWays("ghost", 1); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("SetWays: %v", err)
	}
	if err := s.SetAlloc("ghost", Alloc{Duty: 1}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("SetAlloc: %v", err)
	}
	if _, err := s.Alloc("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Alloc: %v", err)
	}
}

func TestCoreAndWayAccounting(t *testing.T) {
	s := newTestServer(t)
	for _, name := range []string{"lc", "be"} {
		if err := s.AddTenant(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetCores("lc", 8); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWays("lc", 15); err != nil {
		t.Fatal(err)
	}
	cores, ways := s.Free()
	if cores != 4 || ways != 5 {
		t.Errorf("free = %d/%d, want 4/5", cores, ways)
	}
	// Overcommit must fail without changing state.
	if err := s.SetCores("be", 5); !errors.Is(err, ErrOvercommit) {
		t.Errorf("expected overcommit, got %v", err)
	}
	if err := s.SetWays("be", 6); !errors.Is(err, ErrOvercommit) {
		t.Errorf("expected overcommit, got %v", err)
	}
	if err := s.SetCores("be", 4); err != nil {
		t.Fatal(err)
	}
	// Shrinking lc frees cores for be.
	if err := s.SetCores("lc", 2); err != nil {
		t.Fatal(err)
	}
	cores, _ = s.Free()
	if cores != 6 {
		t.Errorf("free cores = %d, want 6", cores)
	}
	a, err := s.Alloc("lc")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cores != 2 || a.Ways != 15 {
		t.Errorf("lc alloc = %+v", a)
	}
	if err := s.SetCores("lc", -1); err == nil {
		t.Error("expected error for negative count")
	}
}

// TestSetFreqAndDuty: SetAlloc clamps a tenant's frequency into the
// platform's range and snaps it to the grid, and refuses a duty cycle
// outside (0, 1].
func TestSetFreqAndDuty(t *testing.T) {
	s := newTestServer(t)
	if err := s.AddTenant("be"); err != nil {
		t.Fatal(err)
	}
	freq := func(ghz float64) float64 {
		t.Helper()
		if err := s.SetAlloc("be", Alloc{FreqGHz: ghz, Duty: 1}); err != nil {
			t.Fatal(err)
		}
		a, err := s.Alloc("be")
		if err != nil {
			t.Fatal(err)
		}
		return a.FreqGHz
	}
	if got := freq(9.9); got != 2.2 {
		t.Errorf("frequency clamp = %v, want 2.2", got)
	}
	if got := freq(1.53); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("frequency snap = %v, want 1.5", got)
	}
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := s.SetAlloc("be", Alloc{FreqGHz: 1.5, Duty: bad}); err == nil {
			t.Errorf("duty %v: expected error", bad)
		}
	}
	if err := s.SetAlloc("be", Alloc{FreqGHz: 1.5, Duty: 0.25}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc("be")
	if err != nil {
		t.Fatal(err)
	}
	if a.Duty != 0.25 || math.Abs(a.FreqGHz-1.5) > 1e-9 {
		t.Errorf("alloc = %+v", a)
	}
}

func TestSetAllocAtomicity(t *testing.T) {
	s := newTestServer(t)
	for _, name := range []string{"lc", "be"} {
		if err := s.AddTenant(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetAlloc("lc", Alloc{Cores: 10, Ways: 10, FreqGHz: 2.2, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	// be asks for feasible ways but infeasible cores: nothing may change.
	before, _ := s.Alloc("be")
	err := s.SetAlloc("be", Alloc{Cores: 5, Ways: 5, FreqGHz: 2.0, Duty: 1})
	if !errors.Is(err, ErrOvercommit) {
		t.Fatalf("expected overcommit, got %v", err)
	}
	after, _ := s.Alloc("be")
	if after != before {
		t.Errorf("failed SetAlloc mutated state: %+v -> %+v", before, after)
	}
	// Infeasible ways with feasible cores: also atomic.
	err = s.SetAlloc("be", Alloc{Cores: 2, Ways: 11, FreqGHz: 2.0, Duty: 1})
	if !errors.Is(err, ErrOvercommit) {
		t.Fatalf("expected overcommit, got %v", err)
	}
	after, _ = s.Alloc("be")
	if after != before {
		t.Errorf("failed SetAlloc mutated state: %+v -> %+v", before, after)
	}
	// Bad duty rejected.
	if err := s.SetAlloc("be", Alloc{Cores: 1, Ways: 1, FreqGHz: 2.0, Duty: 0}); err == nil {
		t.Error("expected duty error")
	}
	// Valid alloc applies fully.
	if err := s.SetAlloc("be", Alloc{Cores: 2, Ways: 10, FreqGHz: 1.8, Duty: 0.8}); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Alloc("be")
	if a.Cores != 2 || a.Ways != 10 || math.Abs(a.FreqGHz-1.8) > 1e-9 || a.Duty != 0.8 {
		t.Errorf("alloc = %+v", a)
	}
}

func TestAllocationsSnapshot(t *testing.T) {
	s := newTestServer(t)
	if err := s.AddTenant("lc"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAlloc("lc", Alloc{Cores: 3, Ways: 7, FreqGHz: 2.2, Duty: 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.Allocations()
	if len(snap) != 1 || snap["lc"].Cores != 3 || snap["lc"].Ways != 7 {
		t.Errorf("Allocations = %+v", snap)
	}
}

func TestServerInvariantNoDoubleOwnership(t *testing.T) {
	// Property: after any sequence of count changes, total owned + free
	// equals capacity for both resources.
	s := newTestServer(t)
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if err := s.AddTenant(n); err != nil {
			t.Fatal(err)
		}
	}
	f := func(ops []struct {
		Who   uint8
		Cores uint8
		Ways  uint8
	}) bool {
		for _, op := range ops {
			name := names[int(op.Who)%len(names)]
			_ = s.SetCores(name, int(op.Cores)%16)
			_ = s.SetWays(name, int(op.Ways)%24)
			total := 0
			for _, n := range names {
				a, err := s.Alloc(n)
				if err != nil {
					return false
				}
				total += a.Cores
			}
			free, _ := s.Free()
			if total+free != s.Config().Cores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestServerConcurrentSafety(t *testing.T) {
	s := newTestServer(t)
	for _, n := range []string{"a", "b"} {
		if err := s.AddTenant(n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		name := []string{"a", "b"}[g%2]
		go func(name string, seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.SetCores(name, (seed+i)%7)
				_ = s.SetWays(name, (seed+i)%11)
				_ = s.SetAlloc(name, Alloc{Cores: (seed + i) % 7, Ways: (seed + i) % 11, FreqGHz: 1.2 + float64(i%10)*0.1, Duty: 1})
				_, _ = s.Alloc(name)
				s.Free()
			}
		}(name, g)
	}
	wg.Wait()
	// Invariant: accounting is still consistent.
	total := 0
	for _, n := range s.Tenants() {
		a, err := s.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		total += a.Cores
	}
	free, _ := s.Free()
	if total+free != s.Config().Cores {
		t.Errorf("core accounting broken: owned %d + free %d != %d", total, free, s.Config().Cores)
	}
}
