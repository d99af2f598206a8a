package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/trace"
)

// This file is the controller half of the hierarchical power-budget
// subsystem (internal/budget/tree): the controller owns a budget tree
// whose leaves name its agents, re-divides every node's budget over the
// fleet's reported power draw each heartbeat round, and pushes the
// per-agent shares over POST /v1/cap. Runtime SetBudget mutations — the
// brownout campaign's cut-and-restore hook — shrink or regrow a node
// mid-flight, and the tree-conservation invariant rides the campaign
// harness through the BudgetAuthority interface the Controller
// implements.

// shareTolerance is the smallest watt change worth a push or a
// BudgetShift trace event.
const shareTolerance = 1e-9

// budgetState is the controller's budget bookkeeping, guarded by
// Controller.mu. Everything per-leaf is a slice in tree.Hosts() order,
// kept across rounds: the tree's shape is fixed at parse time.
type budgetState struct {
	tree   *tree.Tree
	est    *budget.DemandEstimator
	leaves []string // tree.Hosts(): the agent names the tree budgets
	// bound is each leaf's agent. It is rebuilt only when a leaf's agent
	// is undiscovered or has been renamed since it was bound.
	bound []*agentState
	// demand, caps and floors are the division's input buffers.
	demand, caps, floors []float64
	// shares is each leaf's desired cap from the last division (nil
	// before the first one).
	shares []float64
	// rebalances counts installed divisions; lastCutAtReb records the
	// rebalance count at the latest SetBudget mutation, so convergence
	// grace is measured in rebalances, not wall time (the agents'
	// simulated clocks and the controller clock share no epoch).
	rebalances   int
	brownouts    int
	lastCutAtReb int
	floorsWarned bool
}

// newBudgetState parses the tree spec and builds the demand estimator.
func newBudgetState(spec string) (*budgetState, error) {
	tr, err := tree.Parse(spec)
	if err != nil {
		return nil, err
	}
	smoothing, err := budget.ResolveSmoothing(nil)
	if err != nil {
		return nil, err
	}
	marginW, err := budget.ResolveMarginW(nil)
	if err != nil {
		return nil, err
	}
	leaves := tr.Hosts()
	n := len(leaves)
	return &budgetState{
		tree:   tr,
		est:    budget.NewDemandEstimator(n, smoothing, marginW),
		leaves: leaves,
		bound:  make([]*agentState, n),
		demand: make([]float64, n),
		caps:   make([]float64, n),
		floors: make([]float64, n),
	}, nil
}

// bindLocked checks every leaf's agent binding and rebuilds it by name
// when one is missing or stale. It reports false while some leaf has no
// discovered agent.
func (b *budgetState) bindLocked(agents []*agentState) bool {
	stale := false
	for i, a := range b.bound {
		if a == nil || !a.everSeen || a.name != b.leaves[i] {
			stale = true
			break
		}
	}
	if !stale {
		return true
	}
	byName := make(map[string]*agentState, len(agents))
	for _, a := range agents {
		if a.everSeen {
			byName[a.name] = a
		}
	}
	for i, name := range b.leaves {
		a, ok := byName[name]
		if !ok {
			return false
		}
		b.bound[i] = a
	}
	return true
}

// shareMap renders the last division as agent name → share (empty
// before the first division).
func (b *budgetState) shareMap() map[string]float64 {
	out := make(map[string]float64, len(b.shares))
	for i, w := range b.shares {
		out[b.leaves[i]] = w
	}
	return out
}

// BudgetStatus is the controller's budget-tree snapshot.
type BudgetStatus struct {
	// NodeBudgets maps every budgeted tree node to its current budget.
	NodeBudgets map[string]float64 `json:"node_budgets"`
	// Shares maps each agent to the cap installed by the last rebalance.
	Shares map[string]float64 `json:"shares"`
	// Rebalances counts divisions installed across the fleet.
	Rebalances int `json:"rebalances"`
	// Brownouts counts runtime budget cuts (SetBudget reductions).
	Brownouts int `json:"brownouts"`
}

// budgetPushesLocked re-divides the budget tree over the agents' latest
// reported draw and returns the cap pushes for agents whose installed
// cap drifted from their share. It waits until every tree leaf has a
// discovered agent (the first round's reports land before it runs, so a
// healthy fleet rebalances from round one). The pushes execute in the
// round's shared push phase; a lost push is retried next round because
// the desired share is re-derived from the tree while the agent's
// reported CapW carries the truth back.
func (c *Controller) budgetPushesLocked(now time.Time) []pendingPush {
	b := c.budget
	if b == nil {
		return nil
	}
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.budgetLat.ObserveDuration(time.Since(start)) }()
	}
	if !b.bindLocked(c.agents) {
		return nil // discovery incomplete; retry next round
	}
	for i, a := range b.bound {
		// Dead agents keep their last reported draw: their simulation is
		// paused, so the stale reading is also the resume point.
		b.est.Observe(i, a.last.PowerW, a.last.Machine.IdlePowerW)
		b.demand[i] = b.est.Demand(i)
		b.caps[i] = a.last.ProvisionedPowerW
		b.floors[i] = a.last.Machine.IdlePowerW + 1
	}
	if err := b.tree.ValidateFloors(b.floors); err != nil {
		if !b.floorsWarned {
			c.logf("budget rebalance suspended: %v", err)
			b.floorsWarned = true
		}
		return nil
	}
	b.floorsWarned = false
	shares, err := b.tree.Alloc(b.demand, b.caps, b.floors)
	if err != nil {
		c.logf("budget division failed: %v", err)
		return nil
	}
	b.rebalances++
	var pushes []pendingPush
	for i, name := range b.leaves {
		var prev float64
		if b.shares != nil {
			prev = b.shares[i]
		}
		if b.shares == nil || math.Abs(shares[i]-prev) > shareTolerance {
			c.tracer.BudgetShift(now, trace.BudgetChange{Node: name, FromW: prev, ToW: shares[i], Reason: "rebalance"})
		}
		a := b.bound[i]
		if c.obs != nil {
			// Headroom: installed share minus the agent's reported draw —
			// negative means the host is drawing over its budget share.
			c.obs.headroomGauge(name).Set(shares[i] - a.last.PowerW)
		}
		if a.alive && math.Abs(a.last.CapW-shares[i]) > shareTolerance {
			pushes = append(pushes, pendingPush{kind: pushCap, agent: a, url: a.url, name: name, capW: shares[i]})
		}
	}
	b.shares = shares
	return pushes
}

// postCap pushes a power cap to an agent.
func (c *Controller) postCap(ctx context.Context, baseURL string, capW float64) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	body, err := json.Marshal(CapRequest{CapW: capW})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+RouteCap, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", baseURL+RouteCap, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// SetBudget mutates one budget-tree node at runtime — the brownout
// campaign's cut-and-restore hook. A reduction counts as a brownout;
// either direction restarts the convergence grace window, and the next
// rebalance re-divides under the new bound.
func (c *Controller) SetBudget(node string, watts float64, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.budget
	if b == nil {
		return errors.New("controlplane: controller has no budget tree")
	}
	n := b.tree.Lookup(node)
	if n == nil {
		return fmt.Errorf("controlplane: no budget node %q", node)
	}
	prev := n.BudgetW
	if err := b.tree.SetBudget(node, watts); err != nil {
		return err
	}
	if watts < prev {
		b.brownouts++
	}
	b.lastCutAtReb = b.rebalances
	c.tracer.BudgetCut(c.now(), trace.BudgetChange{Node: node, FromW: prev, ToW: watts, Reason: reason})
	c.logf("budget node %s: %.1fW -> %.1fW (%s)", node, prev, watts, reason)
	return nil
}

// BudgetRoot returns the budget tree's root node name, or "" when the
// controller runs unbudgeted.
func (c *Controller) BudgetRoot() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return ""
	}
	return c.budget.tree.Root().Name
}

// NodeBudgets implements invariant.BudgetAuthority: the current budget
// of every budgeted tree node (nil without a budget tree).
func (c *Controller) NodeBudgets() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return nil
	}
	return c.budget.tree.NodeBudgets()
}

// NodeBudget implements invariant.BudgetAuthority: one node's current
// budget (0 when unbudgeted or unknown).
func (c *Controller) NodeBudget(node string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return 0
	}
	return c.budget.tree.NodeBudget(node)
}

// NodeHosts implements invariant.BudgetAuthority: the agents beneath a
// tree node.
func (c *Controller) NodeHosts(node string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return nil
	}
	return c.budget.tree.HostsUnder(node)
}

// InGrace implements invariant.BudgetAuthority: true while fewer than
// tree.ConvergencePeriods rebalances have run since the latest budget
// mutation (or since startup, before the first division reaches the
// fleet).
func (c *Controller) InGrace() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return false
	}
	return c.budget.rebalances < c.budget.lastCutAtReb+tree.ConvergencePeriods
}

// budgetStatusLocked snapshots the budget state for Status.
func (c *Controller) budgetStatusLocked() *BudgetStatus {
	b := c.budget
	if b == nil {
		return nil
	}
	return &BudgetStatus{
		NodeBudgets: b.tree.NodeBudgets(),
		Shares:      b.shareMap(),
		Rebalances:  b.rebalances,
		Brownouts:   b.brownouts,
	}
}
