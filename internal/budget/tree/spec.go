// Package tree implements a hierarchical power-budget tree — host ≤
// rack ≤ row ≤ datacenter — and the one engine that divides it, shifting
// cap headroom down the tree toward the servers that can use it. Real
// facilities (Dynamo-class controllers, the substrate the paper's Section
// VI builds on) enforce nested budgets at every level of the power
// delivery tree: a rack breaker bounds its hosts no matter how much the
// row has spare. A flat cluster budget is a one-level tree (Flat).
//
// A Tree is pure structure parsed from a compact spec; a Divider
// (divider.go) divides it over per-host draw with the shared helpers in
// the parent budget package. The Reallocator (realloc.go) adapts a
// Divider to a simulation, and the controlplane adapts one to live
// agents.
package tree

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	pbudget "pocolo/internal/budget"
)

// Limits keeping the parser total on adversarial (fuzzed) input.
const (
	// MaxDepth bounds the nesting of a spec; real power trees are 3-5
	// levels deep.
	MaxDepth = 32
	// MaxNodes bounds the total node count of a spec.
	MaxNodes = 4096
)

// Node is one vertex of the budget tree. Internal nodes carry a budget in
// watts; leaves are hosts (identified by name) whose budget is optional —
// when zero, the host is bounded only by its ancestors and its own
// provisioned capacity.
type Node struct {
	// Name labels the node. Host leaves must match the simulation host
	// (or agent) names; every name in a tree is unique.
	Name string
	// BudgetW is the node's power bound in watts. Required and positive
	// for internal nodes; optional (0 = unbounded) for host leaves.
	BudgetW float64
	// Children are the node's sub-feeds. Empty means the node is a host.
	Children []*Node
}

// Tree is a validated budget hierarchy.
type Tree struct {
	root *Node
	// nodes indexes every node by name.
	nodes map[string]*Node
	// hostIdx maps each host (leaf) name to its index in Hosts() order —
	// the order external demand/cap/floor slices use.
	hostIdx map[string]int
	// hosts lists the leaf names in spec order.
	hosts []string
	// hostsUnder caches, per node name, the indices of the hosts beneath.
	hostsUnder map[string][]int
	// order lists every node in tree order (pre-order, as in the spec)
	// with its hostsUnder entry, so a walk over it is deterministic.
	order []nodeHosts
}

// nodeHosts is one node, the indices of the hosts at or beneath it, and
// the order positions of its children.
type nodeHosts struct {
	node  *Node
	hosts []int
	kids  []int
}

// treeJSON mirrors Node for the JSON spec form.
type treeJSON struct {
	Name     string      `json:"name"`
	Watts    float64     `json:"watts,omitempty"`
	Children []*treeJSON `json:"children,omitempty"`
}

// Parse reads a budget-tree spec in either the compact text form
//
//	dc:1200=row:600{rack:300{h0,h1},rack2:300{h2,h3}}
//
// or, when the input starts with '{', the JSON form
//
//	{"name":"dc","watts":1200,"children":[...]}
//
// Text grammar (whitespace around tokens is ignored):
//
//	node := name [":" watts] [("=" node) | ("{" node ("," node)* "}")]
//
// "=" is sugar for a single-child chain. Leaves are hosts; internal
// nodes require a positive budget. Every name must be unique.
func Parse(spec string) (*Tree, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, errors.New("tree: empty spec")
	}
	var root *Node
	if s[0] == '{' {
		var j treeJSON
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&j); err != nil {
			return nil, fmt.Errorf("tree: bad JSON spec: %v", err)
		}
		root = fromJSON(&j)
	} else {
		p := &parser{s: s}
		n, err := p.parseNode(0)
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos != len(p.s) {
			return nil, fmt.Errorf("tree: trailing input at offset %d", p.pos)
		}
		root = n
	}
	return Build(root)
}

func fromJSON(j *treeJSON) *Node {
	n := &Node{Name: j.Name, BudgetW: j.Watts}
	for _, c := range j.Children {
		if c == nil {
			// Keep a placeholder so validation reports it rather than
			// silently dropping the entry.
			n.Children = append(n.Children, &Node{})
			continue
		}
		n.Children = append(n.Children, fromJSON(c))
	}
	return n
}

// Build validates a hand-constructed node hierarchy into a Tree.
func Build(root *Node) (*Tree, error) {
	if root == nil {
		return nil, errors.New("tree: nil root")
	}
	t := &Tree{
		root:       root,
		nodes:      make(map[string]*Node),
		hostIdx:    make(map[string]int),
		hostsUnder: make(map[string][]int),
	}
	if err := t.index(root, 1, map[*Node]bool{}); err != nil {
		return nil, err
	}
	if len(t.hosts) == 0 {
		return nil, errors.New("tree: no hosts")
	}
	if len(root.Children) == 0 {
		return nil, errors.New("tree: root must be an internal node with a budget")
	}
	return t, nil
}

// index walks the hierarchy validating names, budgets, depth, and
// acyclicity, filling the lookup tables.
func (t *Tree) index(n *Node, depth int, onPath map[*Node]bool) error {
	if n == nil {
		return errors.New("tree: nil node")
	}
	if onPath[n] {
		return fmt.Errorf("tree: cycle through node %q", n.Name)
	}
	if depth > MaxDepth {
		return fmt.Errorf("tree: deeper than %d levels", MaxDepth)
	}
	if len(t.nodes) >= MaxNodes {
		return fmt.Errorf("tree: more than %d nodes", MaxNodes)
	}
	if n.Name == "" {
		return errors.New("tree: node with empty name")
	}
	if _, dup := t.nodes[n.Name]; dup {
		return fmt.Errorf("tree: duplicate node name %q", n.Name)
	}
	if math.IsNaN(n.BudgetW) || math.IsInf(n.BudgetW, 0) || n.BudgetW < 0 {
		return fmt.Errorf("tree: node %q budget %g outside physical domain", n.Name, n.BudgetW)
	}
	t.nodes[n.Name] = n
	if len(n.Children) == 0 {
		idx := len(t.hosts)
		t.hosts = append(t.hosts, n.Name)
		t.hostIdx[n.Name] = idx
		under := []int{idx}
		t.hostsUnder[n.Name] = under
		t.order = append(t.order, nodeHosts{node: n, hosts: under})
		return nil
	}
	if n.BudgetW <= 0 {
		return fmt.Errorf("tree: internal node %q needs a positive budget", n.Name)
	}
	onPath[n] = true
	pos := len(t.order)
	t.order = append(t.order, nodeHosts{node: n})
	var under []int
	kids := make([]int, 0, len(n.Children))
	for _, c := range n.Children {
		kids = append(kids, len(t.order))
		if err := t.index(c, depth+1, onPath); err != nil {
			return err
		}
		under = append(under, t.hostsUnder[c.Name]...)
	}
	delete(onPath, n)
	t.hostsUnder[n.Name] = under
	t.order[pos].hosts = under
	t.order[pos].kids = kids
	return nil
}

// parser is a recursive-descent parser for the compact text form.
type parser struct {
	s   string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// parseNode parses one `name [":" watts] [("=" node) | ("{" ... "}")]`.
func (p *parser) parseNode(depth int) (*Node, error) {
	if depth > MaxDepth {
		return nil, fmt.Errorf("tree: deeper than %d levels", MaxDepth)
	}
	p.skipSpace()
	name := p.readName()
	if name == "" {
		return nil, fmt.Errorf("tree: expected a node name at offset %d", p.pos)
	}
	n := &Node{Name: name}
	p.skipSpace()
	if p.peek() == ':' {
		p.pos++
		w, err := p.readWatts(name)
		if err != nil {
			return nil, err
		}
		n.BudgetW = w
		p.skipSpace()
	}
	switch p.peek() {
	case '=':
		p.pos++
		child, err := p.parseNode(depth + 1)
		if err != nil {
			return nil, err
		}
		n.Children = []*Node{child}
	case '{':
		p.pos++
		for {
			child, err := p.parseNode(depth + 1)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			p.skipSpace()
			switch p.peek() {
			case ',':
				p.pos++
				continue
			case '}':
				p.pos++
			default:
				return nil, fmt.Errorf("tree: expected ',' or '}' at offset %d", p.pos)
			}
			break
		}
	}
	return n, nil
}

func (p *parser) peek() byte {
	if p.pos < len(p.s) {
		return p.s[p.pos]
	}
	return 0
}

// readName consumes a run of name characters: letters, digits, and the
// separators '-', '_', '.', '/'.
func (p *parser) readName() string {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '/' {
			p.pos++
			continue
		}
		break
	}
	return p.s[start:p.pos]
}

// readWatts consumes a float literal after ':'.
func (p *parser) readWatts(node string) (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			p.pos++
			continue
		}
		break
	}
	lit := p.s[start:p.pos]
	if lit == "" {
		return 0, fmt.Errorf("tree: node %q: expected watts after ':'", node)
	}
	w, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, fmt.Errorf("tree: node %q: bad watts %q", node, lit)
	}
	return w, nil
}

// Flat builds the one-level tree of a flat cluster budget: a root named
// "cluster" budgeting totalW directly over the named hosts.
func Flat(totalW float64, hosts []string) (*Tree, error) {
	root := &Node{Name: "cluster", BudgetW: totalW}
	for _, h := range hosts {
		root.Children = append(root.Children, &Node{Name: h})
	}
	return Build(root)
}

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return t.root }

// Hosts returns the leaf names in spec order — the order every external
// demand/cap/floor/share slice uses.
func (t *Tree) Hosts() []string { return append([]string(nil), t.hosts...) }

// HostIndex returns the position of host in Hosts() order, or -1.
func (t *Tree) HostIndex(host string) int {
	if i, ok := t.hostIdx[host]; ok {
		return i
	}
	return -1
}

// Lookup returns the named node, or nil.
func (t *Tree) Lookup(name string) *Node { return t.nodes[name] }

// NodeBudgets snapshots every node's current budget by name. Host leaves
// with no explicit budget are omitted.
func (t *Tree) NodeBudgets() map[string]float64 {
	out := make(map[string]float64, len(t.nodes))
	for name, n := range t.nodes {
		if n.BudgetW > 0 {
			out[name] = n.BudgetW
		}
	}
	return out
}

// NodeBudget returns the named node's current budget: 0 for an unknown
// node or a leaf without an explicit budget, the nodes NodeBudgets omits.
func (t *Tree) NodeBudget(name string) float64 {
	if n := t.nodes[name]; n != nil && n.BudgetW > 0 {
		return n.BudgetW
	}
	return 0
}

// HostsUnder returns the names of the hosts at or beneath the named node,
// in Hosts() order; nil for an unknown node.
func (t *Tree) HostsUnder(name string) []string {
	idxs, ok := t.hostsUnder[name]
	if !ok {
		return nil
	}
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = t.hosts[idx]
	}
	return out
}

// SetBudget mutates the named node's budget. The root and internal nodes
// must keep a positive finite budget; host leaves may be set to 0
// (unbounded). It does not rebalance — the reallocator applies the new
// bound on its next period.
func (t *Tree) SetBudget(name string, watts float64) error {
	n := t.nodes[name]
	if n == nil {
		return fmt.Errorf("tree: unknown node %q", name)
	}
	if math.IsNaN(watts) || math.IsInf(watts, 0) || watts < 0 {
		return fmt.Errorf("tree: budget %g outside physical domain", watts)
	}
	if len(n.Children) > 0 && watts <= 0 {
		return fmt.Errorf("tree: internal node %q needs a positive budget", name)
	}
	n.BudgetW = watts
	return nil
}

// ValidateFloors checks that every node's budget can keep the hosts
// beneath it above their idle floors. floors is in Hosts() order. Nodes are checked in
// tree order, so the error names the first violator in the spec. Budgets
// are read at call time, so a SetBudget needs no re-indexing.
func (t *Tree) ValidateFloors(floors []float64) error {
	if len(floors) != len(t.hosts) {
		return fmt.Errorf("tree: %d floors for %d hosts", len(floors), len(t.hosts))
	}
	for _, nh := range t.order {
		n := nh.node
		if n.BudgetW <= 0 {
			continue
		}
		sum := 0.0
		for _, i := range nh.hosts {
			sum += floors[i]
		}
		if n.BudgetW <= sum {
			return fmt.Errorf("tree: node %q budget %v W cannot keep %d hosts above their idle floors (%v W)", n.Name, n.BudgetW, len(nh.hosts), sum)
		}
	}
	return nil
}

// Alloc divides the root budget down the tree. demand, caps, and floors
// are per-host in Hosts() order; the returned shares are too. At every
// internal node the budget is divided demand-proportionally among the
// children (each child's demand, cap, and floor being the sums over the
// hosts beneath it, with the child's own budget clamping its cap), then a
// floor pass keeps every child above its floor. Host leaves receive the
// final shares. The result satisfies, up to float tolerance: shares sum
// to at most the root budget, the shares beneath any node sum to at most
// that node's budget, and no share sits below its floor (budgets
// permitting). Alloc allocates its result and working storage; a Divider
// divides through the same code into buffers it owns.
func (t *Tree) Alloc(demand, caps, floors []float64) ([]float64, error) {
	n := len(t.hosts)
	if len(demand) != n || len(caps) != n || len(floors) != n {
		return nil, fmt.Errorf("tree: demand/caps/floors must have %d entries", n)
	}
	shares := make([]float64, n)
	t.alloc(t.newAllocBufs(), demand, caps, floors, shares)
	return shares, nil
}

// allocBufs is one division's working storage: every node's grant, in
// tree order, and one node's children's summed demand, caps and floors,
// their shares, and DivideProportionalInto's scratch, sized for the
// widest node.
type allocBufs struct {
	grant                        []float64
	demand, caps, floors, shares []float64
	active                       []bool
}

func (t *Tree) newAllocBufs() *allocBufs {
	k := 0
	for _, nh := range t.order {
		k = max(k, len(nh.kids))
	}
	return &allocBufs{
		grant:  make([]float64, len(t.order)),
		demand: make([]float64, k),
		caps:   make([]float64, k),
		floors: make([]float64, k),
		shares: make([]float64, k),
		active: make([]bool, k),
	}
}

// alloc walks the nodes in tree order, so each node's grant is set
// before it is divided: the root is granted its budget, an internal node
// divides its grant among its children, and a host leaf's grant is its
// share.
func (t *Tree) alloc(b *allocBufs, demand, caps, floors, shares []float64) {
	b.grant[0] = t.root.BudgetW
	for i, nh := range t.order {
		if len(nh.kids) == 0 {
			shares[nh.hosts[0]] = b.grant[i]
			continue
		}
		k := len(nh.kids)
		childDemand, childCaps, childFloors := b.demand[:k], b.caps[:k], b.floors[:k]
		for ci, kid := range nh.kids {
			c := t.order[kid]
			var d, cap, fl float64
			for _, hi := range c.hosts {
				d += demand[hi]
				cap += caps[hi]
				fl += floors[hi]
			}
			if c.node.BudgetW > 0 && c.node.BudgetW < cap {
				cap = c.node.BudgetW
			}
			childDemand[ci] = d
			childCaps[ci] = cap
			childFloors[ci] = fl
		}
		childShares := pbudget.DivideProportionalInto(b.shares[:k], b.active[:k], b.grant[i], childDemand, childCaps)
		pbudget.ApplyFloors(childShares, childFloors)
		for ci, kid := range nh.kids {
			b.grant[kid] = childShares[ci]
		}
	}
}

// String renders the tree back in the canonical compact text form:
// children in braces, single children via '=', budgets via
// strconv.FormatFloat(w, 'g', -1, 64).
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.root)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	b.WriteString(n.Name)
	if n.BudgetW > 0 {
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(n.BudgetW, 'g', -1, 64))
	}
	switch len(n.Children) {
	case 0:
	case 1:
		b.WriteByte('=')
		writeNode(b, n.Children[0])
	default:
		b.WriteByte('{')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			writeNode(b, c)
		}
		b.WriteByte('}')
	}
}
