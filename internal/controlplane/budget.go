package controlplane

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/trace"
)

// This file is the controller half of the hierarchical power-budget
// subsystem (internal/budget/tree): the controller adapts the tree's
// Divider to its agents. The tree's leaves name agents; each heartbeat
// round the Divider re-divides every node's budget over the fleet's
// reported power draw, and the controller pushes the per-agent shares
// over POST /v1/cap. Runtime SetBudget mutations — the
// brownout campaign's cut-and-restore hook — shrink or regrow a node
// mid-flight, and the tree-conservation invariant rides the campaign
// harness through the BudgetAuthority interface the Controller
// implements.

// shareTolerance is the smallest watt change worth a cap push.
const shareTolerance = 1e-9

// budgetState is the controller's adapter over the budget tree's Divider,
// guarded by Controller.mu. Everything per-leaf is a slice in
// tree.Hosts() order, kept across rounds: the tree's shape is fixed at
// parse time.
type budgetState struct {
	div    *tree.Divider
	leaves []string // tree.Hosts(): the agent names the tree budgets
	// bound is each leaf's agent, rebuilt by name only when rebind is set:
	// the liveness fold sets it when it discovers or renames an agent,
	// the only events that change which agent a leaf names. unbound is the
	// first leaf the last rebuild found no discovered agent for.
	bound   []*agentState
	rebind  bool
	unbound string
	// in is the division's input, one Leaf per bound agent.
	in []tree.Leaf
	// unboundWarned and shortWarned log an unbound leaf and a node short
	// of its floors once per episode.
	unboundWarned, shortWarned bool
}

// newBudgetState parses the tree spec and builds the division engine.
// The controller always divides by demand.
func newBudgetState(spec string, tr *trace.Tracer) (*budgetState, error) {
	t, err := tree.Parse(spec)
	if err != nil {
		return nil, err
	}
	div, err := tree.NewDivider(t, budget.DemandProportional, tr)
	if err != nil {
		return nil, err
	}
	leaves := t.Hosts()
	return &budgetState{
		div:    div,
		leaves: leaves,
		bound:  make([]*agentState, len(leaves)),
		rebind: true,
		in:     make([]tree.Leaf, len(leaves)),
	}, nil
}

// bindLocked rebuilds every leaf's agent binding by name if the fold has
// discovered or renamed an agent since the last rebuild. It returns the
// first leaf with no discovered agent, or "" once every leaf is bound.
func (b *budgetState) bindLocked(agents []*agentState) string {
	if !b.rebind {
		return b.unbound
	}
	b.rebind = false
	byName := make(map[string]*agentState, len(agents))
	for _, a := range agents {
		if a.everSeen {
			byName[a.name] = a
		}
	}
	b.unbound = ""
	for i, name := range b.leaves {
		a, ok := byName[name]
		if !ok {
			b.unbound = name
			break
		}
		b.bound[i] = a
	}
	return b.unbound
}

// shareMap renders the last division as agent name → share (empty
// before the first division).
func (b *budgetState) shareMap() map[string]float64 {
	shares := b.div.Shares()
	out := make(map[string]float64, len(shares))
	for i, w := range shares {
		out[b.leaves[i]] = w
	}
	return out
}

// BudgetStatus is the controller's budget-tree snapshot.
type BudgetStatus struct {
	// NodeBudgets maps every budgeted tree node to its current budget.
	NodeBudgets map[string]float64 `json:"node_budgets"`
	// Shares maps each agent to the cap the last rebalance desires for
	// it. A failed or skipped push leaves the agent's installed cap
	// different from its share until a later push lands.
	Shares map[string]float64 `json:"shares"`
	// Rebalances counts divisions installed across the fleet.
	Rebalances int `json:"rebalances"`
	// Brownouts counts runtime budget cuts (SetBudget reductions).
	Brownouts int `json:"brownouts"`
}

// budgetPushesLocked re-divides the budget tree over the agents' latest
// reported draw and appends to pushes the cap pushes for agents whose
// installed cap drifted from their share. It waits until every tree leaf
// has a discovered agent (the first round's reports land before it runs,
// so a healthy fleet rebalances from round one). The pushes execute in
// the round's shared push phase; a lost push is retried next round
// because the desired share is re-derived from the tree while the
// agent's reported CapW carries the truth back.
func (c *Controller) budgetPushesLocked(now time.Time, pushes []pendingPush) []pendingPush {
	b := c.budget
	if b == nil {
		return pushes
	}
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.budgetLat.ObserveDuration(time.Since(start)) }()
	}
	if leaf := b.bindLocked(c.agents); leaf != "" {
		// Discovery incomplete; retry next round. Once every agent has
		// reported, the leaf names no agent at all.
		if !b.unboundWarned && c.allSeenLocked() {
			c.logf("budget division waiting: tree leaf %q names no agent", leaf)
			b.unboundWarned = true
		}
		return pushes
	}
	b.unboundWarned = false
	for i, a := range b.bound {
		// Dead agents keep their last reported draw: their simulation is
		// paused, so the stale reading is also the resume point.
		b.in[i] = tree.Leaf{DrawW: a.last.PowerW, IdleW: a.last.Machine.IdlePowerW, ProvisionedW: a.last.ProvisionedPowerW}
	}
	shares, short := b.div.Divide(now, b.in)
	if short == nil {
		b.shortWarned = false
	} else if !b.shortWarned {
		c.logf("budget short of the floors, agents held at their floors: %v", short)
		b.shortWarned = true
	}
	// shares is the Divider's buffer, valid until the next division: each
	// push copies its share.
	for i, name := range b.leaves {
		a := b.bound[i]
		if c.obs != nil {
			// Headroom: desired share minus the agent's reported draw —
			// negative means the host is drawing over its budget share.
			c.obs.headroomGauge(name).Set(shares[i] - a.last.PowerW)
		}
		if a.alive && math.Abs(a.last.CapW-shares[i]) > shareTolerance {
			pushes = append(pushes, pendingPush{kind: pushCap, agent: a, url: a.url, name: name, capW: shares[i]})
		}
	}
	return pushes
}

// allSeenLocked reports whether every configured agent has reported at
// least once.
func (c *Controller) allSeenLocked() bool {
	for _, a := range c.agents {
		if !a.everSeen {
			return false
		}
	}
	return true
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
	n := b.div.Tree().Lookup(node)
	if n == nil {
		return fmt.Errorf("controlplane: no budget node %q", node)
	}
	prev := n.BudgetW
	if err := b.div.SetBudget(c.now(), node, watts, reason); err != nil {
		return err
	}
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
	return c.budget.div.Tree().Root().Name
}

// NodeBudgets implements invariant.BudgetAuthority (nil without a budget
// tree).
func (c *Controller) NodeBudgets() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return nil
	}
	return c.budget.div.Tree().NodeBudgets()
}

// NodeBudget implements invariant.BudgetAuthority (0 without a budget
// tree).
func (c *Controller) NodeBudget(node string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return 0
	}
	return c.budget.div.Tree().NodeBudget(node)
}

// NodeHosts implements invariant.BudgetAuthority: the agents beneath a
// tree node.
func (c *Controller) NodeHosts(node string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return nil
	}
	return c.budget.div.Tree().HostsUnder(node)
}

// InGrace implements invariant.BudgetAuthority (see tree.Divider.InGrace;
// false without a budget tree).
func (c *Controller) InGrace() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget == nil {
		return false
	}
	return c.budget.div.InGrace()
}

// budgetStatusLocked snapshots the budget state for Status.
func (c *Controller) budgetStatusLocked() *BudgetStatus {
	b := c.budget
	if b == nil {
		return nil
	}
	return &BudgetStatus{
		NodeBudgets: b.div.Tree().NodeBudgets(),
		Shares:      b.shareMap(),
		Rebalances:  b.div.Rebalances(),
		Brownouts:   b.div.Cuts(),
	}
}
