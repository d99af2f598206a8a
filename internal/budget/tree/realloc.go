package tree

import (
	"errors"
	"fmt"
	"sync"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/obs"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
)

// ConvergencePeriods is how many reallocation periods the installed caps
// are allowed to take to settle inside a freshly-cut budget. The first
// rebalance after a cut already divides the new bound; the second absorbs
// the shifted demand estimates. The tree-conservation invariant holds its
// fire for this many periods after every SetBudget.
const ConvergencePeriods = 2

// Config assembles a Reallocator.
type Config struct {
	// Tree is the validated budget hierarchy; required. The reallocator
	// owns it after construction — budget mutations go through
	// Reallocator.SetBudget.
	Tree *Tree
	// Hosts and Managers are the servers under the tree; required, one
	// per tree host leaf, matched by host name (any order).
	Hosts    []*sim.Host
	Managers []*servermgr.Manager
	// Period is the reallocation interval (default 5 s, like the flat
	// Budgeter).
	Period time.Duration
	// Smoothing and MarginW tune the shared demand estimator exactly as
	// on budget.Config (nil selects the defaults; use budget.Float).
	Smoothing *float64
	MarginW   *float64
	// Tracer, when non-nil, receives BudgetShift events for every host
	// share change and BudgetCut events for every runtime mutation.
	Tracer *trace.Tracer
	// Obs, when non-nil, receives the rebalance-latency histogram and a
	// per-host headroom gauge (installed share minus estimated demand).
	Obs *obs.Registry
}

// Reallocator periodically re-divides a budget tree across its hosts and
// installs the shares through each server manager. It implements the
// invariant.BudgetAuthority interface so the tree-conservation checker
// can read the live budgets.
type Reallocator struct {
	tree     *Tree
	hosts    []*sim.Host
	managers []*servermgr.Manager
	period   time.Duration
	tracer   *trace.Tracer

	// obsLatency times each Rebalance; obsHeadroom[i] is host i's
	// share-minus-demand watts (nil = disabled).
	obsLatency  *obs.Histogram
	obsHeadroom []*obs.Gauge

	mu           sync.Mutex
	est          *pbudget.DemandEstimator
	lastShares   []float64
	rebalances   int
	cuts         int
	lastCutAtReb int
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
	smoothing, err := pbudget.ResolveSmoothing(cfg.Smoothing)
	if err != nil {
		return nil, err
	}
	marginW, err := pbudget.ResolveMarginW(cfg.MarginW)
	if err != nil {
		return nil, err
	}
	r := &Reallocator{
		tree:       cfg.Tree,
		hosts:      hosts,
		managers:   managers,
		period:     period,
		tracer:     cfg.Tracer,
		est:        pbudget.NewDemandEstimator(len(names), smoothing, marginW),
		lastShares: make([]float64, len(names)),
	}
	if cfg.Obs != nil {
		r.obsLatency = cfg.Obs.Histogram("pocolo_obs_budget_rebalance_seconds",
			"Wall-clock duration of budget-tree rebalances.")
		r.obsHeadroom = make([]*obs.Gauge, len(names))
		for i, name := range names {
			r.obsHeadroom[i] = cfg.Obs.Gauge("pocolo_obs_budget_headroom_watts",
				"Installed budget share minus estimated demand per host.",
				obs.Label{Key: "host", Value: name})
		}
	}
	return r, nil
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

// Rebalance reads the power meters, updates the demand estimates, and
// re-divides the tree, installing fresh per-server caps and tracing every
// share that moved.
func (r *Reallocator) Rebalance(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.obsLatency != nil {
		start := time.Now()
		defer func() { r.obsLatency.ObserveDuration(time.Since(start)) }()
	}
	n := len(r.hosts)
	demand := make([]float64, n)
	caps := make([]float64, n)
	floors := make([]float64, n)
	for i, h := range r.hosts {
		r.est.Observe(i, h.MeterReading().Watts, h.Machine().IdlePowerW)
		demand[i] = r.est.Demand(i)
		caps[i] = h.CapW()
		floors[i] = h.Machine().IdlePowerW + 1
	}
	shares, err := r.tree.Alloc(demand, caps, floors)
	if err != nil {
		// Shape mismatches are construction-time bugs; leave the installed
		// caps alone rather than guessing.
		return
	}
	for i, mgr := range r.managers {
		_ = mgr.SetCapW(shares[i])
		if r.obsHeadroom != nil {
			r.obsHeadroom[i].Set(shares[i] - demand[i])
		}
		if prev := r.lastShares[i]; abs(shares[i]-prev) > 1e-9 {
			r.tracer.BudgetShift(now, trace.BudgetChange{
				Node:   r.hosts[i].Name(),
				FromW:  prev,
				ToW:    shares[i],
				Reason: "rebalance",
			})
		}
	}
	copy(r.lastShares, shares)
	r.rebalances++
}

// SetBudget mutates a tree node's budget at the given time and traces the
// change; the new bound takes effect at the next rebalance. reason labels
// the trace event ("brownout", "restore", ...).
func (r *Reallocator) SetBudget(now time.Time, node string, watts float64, reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.tree.Lookup(node)
	if n == nil {
		return fmt.Errorf("tree: unknown node %q", node)
	}
	from := n.BudgetW
	if err := r.tree.SetBudget(node, watts); err != nil {
		return err
	}
	r.cuts++
	r.lastCutAtReb = r.rebalances
	r.tracer.BudgetCut(now, trace.BudgetChange{
		Node: node, FromW: from, ToW: watts, Reason: reason,
	})
	return nil
}

// Shares returns the most recently installed per-server budgets, in tree
// Hosts() order.
func (r *Reallocator) Shares() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.lastShares...)
}

// Rebalances returns the number of divisions installed so far.
func (r *Reallocator) Rebalances() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rebalances
}

// Cuts returns the number of runtime budget mutations applied.
func (r *Reallocator) Cuts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cuts
}

// Period returns the reallocation interval.
func (r *Reallocator) Period() time.Duration { return r.period }

// Tree returns the underlying hierarchy.
func (r *Reallocator) Tree() *Tree { return r.tree }

// NodeBudgets snapshots every node's current budget by name — the
// invariant.BudgetAuthority view.
func (r *Reallocator) NodeBudgets() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.NodeBudgets()
}

// NodeBudget returns one node's current budget (0 when unbudgeted) —
// the invariant.BudgetAuthority per-node view.
func (r *Reallocator) NodeBudget(node string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.NodeBudget(node)
}

// NodeHosts returns the hosts at or beneath the named node.
func (r *Reallocator) NodeHosts(node string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.HostsUnder(node)
}

// InGrace reports whether the reallocator is still converging: fewer than
// ConvergencePeriods rebalances have run since the latest budget
// mutation (or since construction). The tree-conservation invariant
// skips its budget-sum assertion during grace — simulated and controller
// clocks share no epoch, so grace is counted in rebalances, not time.
func (r *Reallocator) InGrace() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rebalances < r.lastCutAtReb+ConvergencePeriods
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
