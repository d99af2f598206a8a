package machine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common allocation errors.
var (
	ErrUnknownTenant = errors.New("machine: unknown tenant")
	ErrOvercommit    = errors.New("machine: allocation exceeds free capacity")
)

// Server models one physical machine. Tenants (applications) are granted
// disjoint sets of cores and LLC ways; each tenant's cores share one DVFS
// setting (the prototype sets per-core frequency uniformly for an app's
// cores) and one duty cycle. All methods are safe for concurrent use.
type Server struct {
	cfg Config

	mu        sync.Mutex
	coreOwner []string // per-core tenant name, "" = free
	wayOwner  []string // per-LLC-way tenant name, "" = free
	tenants   map[string]*tenantState
}

type tenantState struct {
	freqGHz float64
	duty    float64
}

// NewServer creates a server for the given platform configuration.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:       cfg,
		coreOwner: make([]string, cfg.Cores),
		wayOwner:  make([]string, cfg.LLCWays),
		tenants:   make(map[string]*tenantState),
	}, nil
}

// Config returns the platform configuration.
func (s *Server) Config() Config { return s.cfg }

// AddTenant registers an application on the server with no resources, max
// frequency and full duty cycle.
func (s *Server) AddTenant(name string) error {
	if name == "" {
		return errors.New("machine: tenant name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("machine: tenant %q already exists", name)
	}
	s.tenants[name] = &tenantState{freqGHz: s.cfg.MaxFreqGHz, duty: 1}
	return nil
}

// Tenants returns the registered tenant names in sorted order.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setCount adjusts the number of units (cores or ways) owned by name in the
// owner slice to want, grabbing free units or releasing owned ones.
func setCount(owner []string, name string, want int) error {
	if want < 0 {
		return fmt.Errorf("machine: negative allocation %d", want)
	}
	have := 0
	free := 0
	for _, o := range owner {
		switch o {
		case name:
			have++
		case "":
			free++
		}
	}
	switch {
	case want > have:
		need := want - have
		if need > free {
			return fmt.Errorf("%w: want %d, have %d, free %d", ErrOvercommit, want, have, free)
		}
		for i := range owner {
			if need == 0 {
				break
			}
			if owner[i] == "" {
				owner[i] = name
				need--
			}
		}
	case want < have:
		drop := have - want
		for i := len(owner) - 1; i >= 0 && drop > 0; i-- {
			if owner[i] == name {
				owner[i] = ""
				drop--
			}
		}
	}
	return nil
}

// SetCores grants the tenant exactly n cores (taskset analog).
func (s *Server) SetCores(name string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return setCount(s.coreOwner, name, n)
}

// SetWays grants the tenant exactly n LLC ways (Intel CAT analog).
func (s *Server) SetWays(name string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return setCount(s.wayOwner, name, n)
}

// SetAlloc applies a full allocation (cores, ways, frequency, duty) in one
// call. On resource errors nothing is partially applied.
func (s *Server) SetAlloc(name string, a Alloc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if a.Duty <= 0 || a.Duty > 1 {
		return fmt.Errorf("machine: duty cycle %v outside (0, 1]", a.Duty)
	}
	// Validate both count changes before mutating (setCount mutates as it
	// goes, so check feasibility up front).
	if err := s.feasible(s.coreOwner, name, a.Cores); err != nil {
		return fmt.Errorf("cores: %w", err)
	}
	if err := s.feasible(s.wayOwner, name, a.Ways); err != nil {
		return fmt.Errorf("ways: %w", err)
	}
	if err := setCount(s.coreOwner, name, a.Cores); err != nil {
		return err
	}
	if err := setCount(s.wayOwner, name, a.Ways); err != nil {
		return err
	}
	ts.freqGHz = s.cfg.ClampFreq(a.FreqGHz)
	ts.duty = a.Duty
	return nil
}

func (s *Server) feasible(owner []string, name string, want int) error {
	if want < 0 {
		return fmt.Errorf("machine: negative allocation %d", want)
	}
	have, free := 0, 0
	for _, o := range owner {
		switch o {
		case name:
			have++
		case "":
			free++
		}
	}
	if want > have+free {
		return fmt.Errorf("%w: want %d, have %d, free %d", ErrOvercommit, want, have, free)
	}
	return nil
}

// Alloc returns the tenant's current allocation.
func (s *Server) Alloc(name string) (Alloc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		return Alloc{}, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	a := Alloc{FreqGHz: ts.freqGHz, Duty: ts.duty}
	for _, o := range s.coreOwner {
		if o == name {
			a.Cores++
		}
	}
	for _, o := range s.wayOwner {
		if o == name {
			a.Ways++
		}
	}
	return a, nil
}

// Free returns the number of unallocated cores and LLC ways.
func (s *Server) Free() (cores, ways int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.coreOwner {
		if o == "" {
			cores++
		}
	}
	for _, o := range s.wayOwner {
		if o == "" {
			ways++
		}
	}
	return cores, ways
}

// Audit performs a deep consistency check of the server's internal state:
// owner slices sized to the platform, every owned unit belonging to a
// registered tenant, and every tenant's DVFS and duty settings inside the
// platform envelope. A healthy server always passes; the invariant harness
// calls it every tick to catch allocation-path regressions (double
// ownership would surface as an orphaned owner entry or a conservation
// mismatch in the per-tenant counts).
func (s *Server) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.coreOwner) != s.cfg.Cores {
		return fmt.Errorf("machine: audit: %d core slots for a %d-core platform", len(s.coreOwner), s.cfg.Cores)
	}
	if len(s.wayOwner) != s.cfg.LLCWays {
		return fmt.Errorf("machine: audit: %d way slots for a %d-way platform", len(s.wayOwner), s.cfg.LLCWays)
	}
	for i, o := range s.coreOwner {
		if o == "" {
			continue
		}
		if _, ok := s.tenants[o]; !ok {
			return fmt.Errorf("machine: audit: core %d owned by unregistered tenant %q", i, o)
		}
	}
	for i, o := range s.wayOwner {
		if o == "" {
			continue
		}
		if _, ok := s.tenants[o]; !ok {
			return fmt.Errorf("machine: audit: way %d owned by unregistered tenant %q", i, o)
		}
	}
	const eps = 1e-9
	for name, ts := range s.tenants {
		if ts.duty <= 0 || ts.duty > 1 {
			return fmt.Errorf("machine: audit: tenant %q duty %v outside (0, 1]", name, ts.duty)
		}
		if ts.freqGHz < s.cfg.MinFreqGHz-eps || ts.freqGHz > s.cfg.MaxFreqGHz+eps {
			return fmt.Errorf("machine: audit: tenant %q frequency %v outside [%v, %v]",
				name, ts.freqGHz, s.cfg.MinFreqGHz, s.cfg.MaxFreqGHz)
		}
	}
	return nil
}

// Allocations returns a snapshot of every tenant's allocation.
func (s *Server) Allocations() map[string]Alloc {
	out := make(map[string]Alloc)
	for _, name := range s.Tenants() {
		a, err := s.Alloc(name)
		if err == nil {
			out[name] = a
		}
	}
	return out
}
