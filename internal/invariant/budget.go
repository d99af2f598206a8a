package invariant

import (
	"fmt"
	"sort"
	"time"
)

// BudgetAuthority is the view of a hierarchical budget reallocator the
// tree-conservation checker reads. budget/tree's Reallocator and the
// controlplane's controller-side driver both implement it.
type BudgetAuthority interface {
	// NodeBudgets snapshots every budgeted node's current bound by name.
	NodeBudgets() map[string]float64
	// NodeBudget returns one node's current bound (0 = unbudgeted, the
	// nodes NodeBudgets omits).
	NodeBudget(node string) float64
	// NodeHosts returns the hosts at or beneath the named node.
	NodeHosts(node string) []string
	// InGrace reports whether the reallocator is still converging after a
	// budget mutation (or startup); conservation is not asserted during
	// grace. Grace is counted in reallocation periods, not wall time —
	// simulated and controller clocks share no epoch.
	InGrace() bool
}

// budgetTolerance is the absolute slack, in watts, on each node's budget
// before the checker flags — float summation across a few thousand hosts
// plus the reallocator's own epsilon.
const budgetTolerance = 1e-3

// hostCap is one host's most recent cap observation.
type hostCap struct {
	capW float64
	now  time.Time
	ok   bool // observed at least once
}

// NewTreeConservation checks the hierarchical budget contract: the caps
// installed on the hosts beneath any budgeted tree node never sum beyond
// that node's budget. The checker accumulates the latest per-host cap
// from the snapshot stream and asserts a node only when every host
// beneath it has reported at the current snapshot instant — snapshots
// inside one tick arrive host by host, so summing across timestamps
// would mix pre- and post-rebalance caps and flag phantom excess. While
// the authority is in its convergence grace (right after startup or a
// budget cut) the assertion holds fire, which is how "caps converge
// within N reallocation periods after a cut" becomes checkable: once
// grace ends, any leftover excess is a violation.
//
// A snapshot asserts only the nodes containing its host, smallest first,
// so a breach is reported against the hosts beneath it. A tree's shape
// is fixed once parsed, so the host → nodes index and each node's host
// list are read from the authority once, here; a snapshot then costs
// O(tree depth) plus one O(|node|) sum per node it completes, and
// allocates nothing.
func NewTreeConservation(auth BudgetAuthority) Checker {
	t := newTreeIndex(auth)
	return Checker{Name: "tree-conservation", Check: t.check}
}

// treeIndex is the tree-conservation checker's state.
type treeIndex struct {
	auth   BudgetAuthority
	hostID map[string]int
	caps   []hostCap // per host id
	nodes  []treeNode
	under  [][]int // host id → indices of the nodes containing it, smallest first
}

// treeNode is one node that is, or may become, budgeted.
type treeNode struct {
	name  string
	hosts []int // host ids in NodeHosts order, so sums add in that order
	// at counts the node's hosts by the instant of their latest
	// observation; the node is complete at t when all its hosts count
	// under t. Hosts report a few instants per round at most, so this
	// stays a handful of entries.
	at []instantCount
}

type instantCount struct {
	now time.Time
	n   int
}

func newTreeIndex(auth BudgetAuthority) *treeIndex {
	t := &treeIndex{auth: auth, hostID: make(map[string]int)}
	budgets := auth.NodeBudgets()
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	lists := make([][]string, len(names))
	var hosts []string
	for i, name := range names {
		lists[i] = auth.NodeHosts(name)
		for _, h := range lists[i] {
			if _, ok := t.hostID[h]; !ok {
				t.hostID[h] = len(hosts)
				hosts = append(hosts, h)
			}
		}
	}
	// Host leaves are nodes too: unbudgeted now, one may gain a bound at
	// runtime (tree.SetBudget). A leaf is named after its host.
	for _, h := range hosts {
		if _, budgeted := budgets[h]; budgeted {
			continue
		}
		if l := auth.NodeHosts(h); len(l) == 1 && l[0] == h {
			names = append(names, h)
			lists = append(lists, l)
		}
	}
	t.caps = make([]hostCap, len(hosts))
	t.under = make([][]int, len(hosts))
	t.nodes = make([]treeNode, len(names))
	for ni, name := range names {
		n := &t.nodes[ni]
		n.name = name
		n.hosts = make([]int, len(lists[ni]))
		for k, h := range lists[ni] {
			id := t.hostID[h]
			n.hosts[k] = id
			t.under[id] = append(t.under[id], ni)
		}
	}
	for _, nodes := range t.under {
		sort.Slice(nodes, func(a, b int) bool {
			na, nb := &t.nodes[nodes[a]], &t.nodes[nodes[b]]
			if len(na.hosts) != len(nb.hosts) {
				return len(na.hosts) < len(nb.hosts)
			}
			return na.name < nb.name
		})
	}
	return t
}

func (t *treeIndex) check(s *Snapshot) error {
	if !s.Managed || s.CapW <= 0 {
		return nil
	}
	id, ok := t.hostID[s.Host]
	if !ok {
		return nil // beneath no budgeted node
	}
	prev := t.caps[id]
	t.caps[id] = hostCap{capW: s.CapW, now: s.Now, ok: true}
	for _, ni := range t.under[id] {
		n := &t.nodes[ni]
		if prev.ok {
			n.move(prev.now, -1)
		}
		n.move(s.Now, +1)
	}
	if t.auth.InGrace() {
		return nil
	}
	for _, ni := range t.under[id] {
		n := &t.nodes[ni]
		if n.count(s.Now) != len(n.hosts) {
			continue // not every host beneath has reported at this instant
		}
		budget := t.auth.NodeBudget(n.name)
		if budget <= 0 {
			continue
		}
		sum := 0.0
		for _, h := range n.hosts {
			sum += t.caps[h].capW
		}
		if sum > budget+budgetTolerance {
			return fmt.Errorf("installed caps under node %q sum to %.3fW, over its %.3fW budget", n.name, sum, budget)
		}
	}
	return nil
}

// move adds d to the count of the node's hosts last observed at now.
func (n *treeNode) move(now time.Time, d int) {
	for i := range n.at {
		if n.at[i].now.Equal(now) {
			n.at[i].n += d
			if n.at[i].n == 0 {
				last := len(n.at) - 1
				n.at[i] = n.at[last]
				n.at = n.at[:last]
			}
			return
		}
	}
	n.at = append(n.at, instantCount{now: now, n: d})
}

// count returns how many of the node's hosts were last observed at now.
func (n *treeNode) count(now time.Time) int {
	for _, c := range n.at {
		if c.now.Equal(now) {
			return c.n
		}
	}
	return 0
}
