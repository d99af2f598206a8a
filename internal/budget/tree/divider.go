package tree

import (
	"errors"
	"fmt"
	"math"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/trace"
)

// ConvergencePeriods is how many divisions the installed caps are allowed
// to take to settle inside a freshly-cut budget. The first division after
// a cut already divides the new bound; the second absorbs the shifted
// demand estimates. The tree-conservation invariant holds its fire for
// this many divisions after every SetBudget.
const ConvergencePeriods = 2

// shareTolerance is the smallest watt change a division traces as a
// BudgetShift.
const shareTolerance = 1e-9

// Leaf is one host's input to a division.
type Leaf struct {
	// DrawW is the host's metered (or reported) power draw; a reading at
	// or below zero counts as idle.
	DrawW float64
	// IdleW is the host's idle power. Its floor is IdleW + 1: a share
	// must clear idle for the capper to accept it.
	IdleW float64
	// ProvisionedW is the host's provisioned capacity, the ceiling of its
	// share.
	ProvisionedW float64
}

// Divider is the one budget-division engine. It owns a budget tree, the
// demand estimator, the last shares, the rebalance and cut counters and
// the convergence grace, and traces every share that moves and every
// budget mutation. The simulator (Reallocator) and the live controller
// are adapters over it: each reads its hosts into Leaves, calls Divide,
// and installs the shares its own way. A flat budget is a one-level tree
// (Flat). A Divider is not safe for concurrent use; adapters lock.
type Divider struct {
	tree   *Tree
	policy pbudget.Policy
	est    *pbudget.DemandEstimator
	tracer *trace.Tracer
	hosts  []string // tree.Hosts()
	// demand, caps and floors are the division's input buffers, and bufs
	// its working storage.
	demand, caps, floors []float64
	bufs                 *allocBufs
	// shares is the last division (nil before the first). Divisions
	// alternate between the two buffers of sharesBuf, so each one fills
	// the buffer the previous one does not hold and can compare against
	// it.
	shares    []float64
	sharesBuf [2][]float64
	// lastCutAtReb is the rebalance count at the latest SetBudget, so
	// grace is counted in divisions: simulated and controller clocks
	// share no epoch.
	rebalances, cuts, lastCutAtReb int
}

// NewDivider builds a division engine over t with the given policy; its
// demand estimator smooths by budget.DefaultSmoothing and adds
// budget.DefaultMarginW. tr, when non-nil, receives the BudgetShift and
// BudgetCut events. The Divider owns t from here on: budget mutations go
// through SetBudget.
func NewDivider(t *Tree, p pbudget.Policy, tr *trace.Tracer) (*Divider, error) {
	if t == nil {
		return nil, errors.New("tree: nil tree")
	}
	n := len(t.hosts)
	return &Divider{
		tree:      t,
		policy:    p,
		est:       pbudget.NewDemandEstimator(n, pbudget.DefaultSmoothing, pbudget.DefaultMarginW),
		tracer:    tr,
		hosts:     t.Hosts(),
		demand:    make([]float64, n),
		caps:      make([]float64, n),
		floors:    make([]float64, n),
		bufs:      t.newAllocBufs(),
		sharesBuf: [2][]float64{make([]float64, n), make([]float64, n)},
	}, nil
}

// Divide folds each leaf's draw into its demand estimate and divides the
// tree: DemandProportional splits every node by its children's demand,
// EqualSplit by their host counts (unit weights per host). leaves is in
// Hosts() order; the returned shares are too. They are the Divider's own
// buffer, valid until the next Divide: callers install or copy them at
// once and must not modify them. A division allocates nothing. It traces
// one BudgetShift per share that moved.
//
// Divide always divides. When a node's budget cannot cover the idle
// floors beneath it, those hosts sit at their floors, the shares beneath
// it sum past its budget, and short names the first such node; the
// tree-conservation invariant reports the breach once grace ends.
func (d *Divider) Divide(now time.Time, leaves []Leaf) (shares []float64, short error) {
	if len(leaves) != len(d.hosts) {
		panic(fmt.Sprintf("tree: %d leaves for %d hosts", len(leaves), len(d.hosts)))
	}
	for i, l := range leaves {
		d.est.Observe(i, l.DrawW, l.IdleW)
		d.demand[i] = 1
		if d.policy == pbudget.DemandProportional {
			d.demand[i] = d.est.Demand(i)
		}
		d.caps[i] = l.ProvisionedW
		d.floors[i] = l.IdleW + 1
	}
	short = d.tree.ValidateFloors(d.floors)
	shares = d.sharesBuf[d.rebalances%2]
	d.tree.alloc(d.bufs, d.demand, d.caps, d.floors, shares)
	for i, name := range d.hosts {
		var prev float64
		if d.shares != nil {
			prev = d.shares[i]
		}
		if d.shares == nil || math.Abs(shares[i]-prev) > shareTolerance {
			d.tracer.BudgetShift(now, trace.BudgetChange{Node: name, FromW: prev, ToW: shares[i], Reason: "rebalance"})
		}
	}
	d.shares = shares
	d.rebalances++
	return shares, short
}

// SetBudget mutates a tree node's budget at the given time and traces the
// change; the next Divide applies it. A reduction counts as a cut; either
// direction restarts the convergence grace. reason labels the trace event
// ("brownout", "restore", ...).
func (d *Divider) SetBudget(now time.Time, node string, watts float64, reason string) error {
	n := d.tree.Lookup(node)
	if n == nil {
		return fmt.Errorf("tree: unknown node %q", node)
	}
	from := n.BudgetW
	if err := d.tree.SetBudget(node, watts); err != nil {
		return err
	}
	if watts < from {
		d.cuts++
	}
	d.lastCutAtReb = d.rebalances
	d.tracer.BudgetCut(now, trace.BudgetChange{Node: node, FromW: from, ToW: watts, Reason: reason})
	return nil
}

// Tree returns the divided hierarchy.
func (d *Divider) Tree() *Tree { return d.tree }

// Shares returns the last division in Hosts() order (nil before the
// first). Like Divide's result it is valid until the next Divide, and
// callers must not modify it.
func (d *Divider) Shares() []float64 { return d.shares }

// Rebalances returns the number of divisions so far.
func (d *Divider) Rebalances() int { return d.rebalances }

// Cuts returns the number of budget reductions applied.
func (d *Divider) Cuts() int { return d.cuts }

// InGrace reports whether the caps are still converging: fewer than
// ConvergencePeriods divisions have run since the latest budget mutation
// (or since construction).
func (d *Divider) InGrace() bool {
	return d.rebalances < d.lastCutAtReb+ConvergencePeriods
}
