package tree

import (
	"errors"
	"fmt"
	"sync"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
)

// Config assembles a Reallocator.
type Config struct {
	// Tree is the validated budget hierarchy; required (Flat builds the
	// one-level tree of a flat cluster budget). The reallocator owns it
	// after construction — budget mutations go through
	// Reallocator.SetBudget.
	Tree *Tree
	// Hosts and Managers are the servers under the tree; required, one
	// per tree host leaf, matched by host name (any order).
	Hosts    []*sim.Host
	Managers []*servermgr.Manager
	// Policy selects the division rule (default budget.EqualSplit).
	Policy pbudget.Policy
	// Period is the reallocation interval (default 5 s; Dynamo-class
	// controllers act on seconds-scale windows).
	Period time.Duration
	// Tracer, when non-nil, receives BudgetShift events for every host
	// share change and BudgetCut events for every runtime mutation.
	Tracer *trace.Tracer
}

// Reallocator is the simulator's adapter over a Divider: every period it
// reads the hosts' power meters, divides, and installs the shares through
// each server manager. It implements the invariant.BudgetAuthority
// interface so the tree-conservation checker can read the live budgets.
type Reallocator struct {
	hosts    []*sim.Host
	managers []*servermgr.Manager
	period   time.Duration

	mu     sync.Mutex
	div    *Divider
	leaves []Leaf
}

// New validates the configuration and builds a reallocator. Hosts are
// matched to tree leaves by name and stored in tree Hosts() order.
func New(cfg Config) (*Reallocator, error) {
	if cfg.Tree == nil {
		return nil, errors.New("tree: nil tree")
	}
	names := cfg.Tree.Hosts()
	if len(cfg.Hosts) != len(names) {
		return nil, fmt.Errorf("tree: %d hosts for %d tree leaves", len(cfg.Hosts), len(names))
	}
	if len(cfg.Hosts) != len(cfg.Managers) {
		return nil, errors.New("tree: hosts and managers must be parallel")
	}
	byName := make(map[string]int, len(cfg.Hosts))
	for i, h := range cfg.Hosts {
		if h == nil || cfg.Managers[i] == nil {
			return nil, fmt.Errorf("tree: nil host or manager at %d", i)
		}
		byName[h.Name()] = i
	}
	hosts := make([]*sim.Host, len(names))
	managers := make([]*servermgr.Manager, len(names))
	floors := make([]float64, len(names))
	for i, name := range names {
		j, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("tree: no host supplied for leaf %q", name)
		}
		hosts[i] = cfg.Hosts[j]
		managers[i] = cfg.Managers[j]
		floors[i] = cfg.Hosts[j].Machine().IdlePowerW + 1
	}
	if err := cfg.Tree.ValidateFloors(floors); err != nil {
		return nil, err
	}
	period := cfg.Period
	if period == 0 {
		period = 5 * time.Second
	}
	if period <= 0 {
		return nil, errors.New("tree: period must be positive")
	}
	div, err := NewDivider(cfg.Tree, cfg.Policy, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	return &Reallocator{
		hosts:    hosts,
		managers: managers,
		period:   period,
		div:      div,
		leaves:   make([]Leaf, len(names)),
	}, nil
}

// Attach registers the reallocation loop on the engine and installs an
// initial division.
func (r *Reallocator) Attach(e *sim.Engine) error {
	if e == nil {
		return errors.New("tree: nil engine")
	}
	r.Rebalance(e.Now())
	return e.Every(r.period, r.Rebalance)
}

// Rebalance reads the power meters, divides the tree, and installs the
// fresh per-server caps.
func (r *Reallocator) Rebalance(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, h := range r.hosts {
		r.leaves[i] = Leaf{DrawW: h.MeterReading().Watts, IdleW: h.Machine().IdlePowerW, ProvisionedW: h.CapW()}
	}
	// A node short of its floors holds its hosts at their floors; the
	// tree-conservation invariant reports the breach.
	shares, _ := r.div.Divide(now, r.leaves)
	for i, mgr := range r.managers {
		_ = mgr.SetCapW(shares[i])
	}
}

// SetBudget mutates a tree node's budget at the given time and traces the
// change; the new bound takes effect at the next rebalance. reason labels
// the trace event ("brownout", "restore", ...).
func (r *Reallocator) SetBudget(now time.Time, node string, watts float64, reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.SetBudget(now, node, watts, reason)
}

// Shares returns the most recently installed per-server budgets, in tree
// Hosts() order.
func (r *Reallocator) Shares() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.div.Shares()...)
}

// Rebalances returns the number of divisions installed so far.
func (r *Reallocator) Rebalances() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.Rebalances()
}

// Cuts returns the number of runtime budget reductions applied.
func (r *Reallocator) Cuts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.Cuts()
}

// Period returns the reallocation interval.
func (r *Reallocator) Period() time.Duration { return r.period }

// Tree returns the underlying hierarchy.
func (r *Reallocator) Tree() *Tree { return r.div.Tree() }

// NodeBudgets implements invariant.BudgetAuthority.
func (r *Reallocator) NodeBudgets() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.Tree().NodeBudgets()
}

// NodeBudget implements invariant.BudgetAuthority.
func (r *Reallocator) NodeBudget(node string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.Tree().NodeBudget(node)
}

// NodeHosts implements invariant.BudgetAuthority.
func (r *Reallocator) NodeHosts(node string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.Tree().HostsUnder(node)
}

// InGrace implements invariant.BudgetAuthority (see Divider.InGrace).
func (r *Reallocator) InGrace() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div.InGrace()
}
