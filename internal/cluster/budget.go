package cluster

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/invariant"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

// BudgetConfig puts a cluster run under a power budget, divided by the
// budget/tree reallocator. With only TotalW set, one cluster-wide number
// is divided as a one-level tree; with Tree set, the tree enforces nested
// bounds (host ≤ rack ≤ row ≤ DC). RunPlacement's load sweep and
// RunBudgeted's constant loads run under it through one loop, which
// steps every host on one engine — the rebalance must observe every meter
// in lockstep — and always bypasses the sweep memo.
type BudgetConfig struct {
	// TotalW is the flat cluster budget in watts (ignored when Tree is
	// set).
	TotalW float64
	// Policy selects the flat division rule (default budget.EqualSplit).
	// Tree runs always divide by demand.
	Policy budget.Policy
	// Tree, when non-empty, is a budget-tree spec (see tree.Parse) whose
	// leaves name the cluster's LC servers.
	Tree string
	// Period is the rebalance interval (default 5 s).
	Period time.Duration
	// BrownoutNode/BrownoutFrac/BrownoutAt schedule a mid-run budget cut:
	// at BrownoutAt into the run, BrownoutNode's budget drops by
	// BrownoutFrac (0.3 = −30%). Tree mode only; BrownoutNode defaults to
	// the tree root and BrownoutAt to halfway through the run. A node or a
	// time needs a fraction, the node must carry a budget in the tree, and
	// the cut must fall before the run's end; a run checks all three
	// before it simulates anything.
	BrownoutNode string
	BrownoutFrac float64
	BrownoutAt   time.Duration
}

func (b *BudgetConfig) validate() error {
	if b.Tree == "" && b.TotalW <= 0 {
		return errors.New("cluster: budget needs TotalW or Tree")
	}
	if b.Period < 0 {
		return errors.New("cluster: budget period must be positive")
	}
	if b.BrownoutFrac < 0 || b.BrownoutFrac >= 1 {
		return errors.New("cluster: brownout fraction outside [0, 1)")
	}
	if b.BrownoutFrac > 0 && b.Tree == "" {
		return errors.New("cluster: brownouts need a budget tree")
	}
	if b.BrownoutAt < 0 {
		return errors.New("cluster: brownout time must be non-negative")
	}
	if b.BrownoutFrac == 0 && (b.BrownoutAt != 0 || b.BrownoutNode != "") {
		return errors.New("cluster: brownout time or node without a brownout fraction")
	}
	return nil
}

// ParseBudgetFlags assembles a BudgetConfig from the CLI flag values
// shared by pocolo-sim and pocolo-experiments. It returns nil when no
// budget was requested (budgetW == 0 and no tree spec). A tree spec
// starting with '@' is read from the named file.
func ParseBudgetFlags(budgetW float64, policy, treeSpec string, period time.Duration, brownoutFrac float64, brownoutAt time.Duration, brownoutNode string) (*BudgetConfig, error) {
	if budgetW == 0 && treeSpec == "" {
		if brownoutFrac != 0 || brownoutAt != 0 || brownoutNode != "" {
			return nil, errors.New("cluster: -brownout, -brownout-at and -brownout-node need -budget-tree")
		}
		return nil, nil
	}
	if strings.HasPrefix(treeSpec, "@") {
		raw, err := os.ReadFile(treeSpec[1:])
		if err != nil {
			return nil, err
		}
		treeSpec = strings.TrimSpace(string(raw))
	}
	bc := &BudgetConfig{
		TotalW:       budgetW,
		Tree:         treeSpec,
		Period:       period,
		BrownoutFrac: brownoutFrac,
		BrownoutAt:   brownoutAt,
		BrownoutNode: brownoutNode,
	}
	switch policy {
	case "", "equal":
		bc.Policy = budget.EqualSplit
	case "demand":
		bc.Policy = budget.DemandProportional
	default:
		return nil, fmt.Errorf("cluster: unknown budget policy %q (want equal or demand)", policy)
	}
	if treeSpec != "" {
		// Fail fast on an unparseable tree instead of deep inside the run.
		if _, err := tree.Parse(treeSpec); err != nil {
			return nil, err
		}
	}
	if err := bc.validate(); err != nil {
		return nil, err
	}
	return bc, nil
}

// BudgetResult is the budget-specific slice of a cluster Result.
type BudgetResult struct {
	// Shares holds the final installed per-server budgets by LC name.
	Shares map[string]float64
	// Rebalances counts the divisions installed over the run.
	Rebalances int
	// Cuts counts runtime budget reductions (brownouts).
	Cuts int
	// NodeBudgets snapshots the end-of-run budget of every tree node
	// (nil for flat budgets).
	NodeBudgets map[string]float64
	// OverBudgetFrac is the share of ticks in which the hosts' summed draw
	// exceeded the root budget then in force by more than 2 %; around a
	// brownout, each side counts against its own root budget.
	OverBudgetFrac float64
}

// RunBudgeted simulates the cluster for dur under cfg.Budget, with each
// LC server held at the constant load loads[name] and power-optimized
// management. placement maps BE app names to LC servers; BE apps it leaves
// out do not run. The servers are laid out as RunPlacement lays them out —
// the same placement checks and the same host and manager seeds — and run
// through the same budgeted loop.
func RunBudgeted(cfg Config, placement map[string]string, loads map[string]float64, dur time.Duration) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if cfg.Budget == nil {
		return Result{}, errors.New("cluster: budgeted run without a budget")
	}
	if dur <= 0 {
		return Result{}, errors.New("cluster: run duration must be positive")
	}
	// sweepServers pairs its BE apps with cfg.BE by position, so narrow
	// cfg.BE to the placed apps, in catalog order.
	placed := make([]*workload.Spec, 0, len(placement))
	for _, be := range cfg.BE {
		if _, ok := placement[be.Name]; ok {
			placed = append(placed, be)
		}
	}
	if len(placed) < len(placement) {
		return Result{}, fmt.Errorf("cluster: placement %v names an app that is not a BE app", placement)
	}
	cfg.BE = placed
	servers, err := cfg.sweepServers(cfg.LC, cfg.BE, placement, servermgr.PowerOptimized)
	if err != nil {
		return Result{}, err
	}
	hint := seriesHint(dur)
	for j := range servers {
		h := &servers[j].host
		load, ok := loads[h.Name]
		if !ok {
			return Result{}, fmt.Errorf("cluster: no load given for %s", h.Name)
		}
		if h.Trace, err = workload.NewConstantTrace(load); err != nil {
			return Result{}, err
		}
		h.SeriesHint = hint
	}
	return runBudgeted(cfg, placement, servers, dur)
}

// runBudgeted is every budgeted run: each host and manager steps on one
// engine for duration, so the attached reallocator reads all meters and
// installs all caps in lockstep each period. A scheduled brownout splits
// the run at the cut — the engine is resumable, so the two chunks are
// bit-identical to one uninterrupted run plus the mutation. The budget and
// the brownout are checked before anything is simulated.
func runBudgeted(cfg Config, placement map[string]string, servers []server, duration time.Duration) (Result, error) {
	bc := cfg.Budget
	if err := bc.validate(); err != nil {
		return Result{}, err
	}
	// A flat budget is a one-level tree.
	var tr *tree.Tree
	var err error
	policy := budget.DemandProportional
	if bc.Tree != "" {
		tr, err = tree.Parse(bc.Tree)
	} else {
		names := make([]string, len(servers))
		for j, s := range servers {
			names[j] = s.host.Name
		}
		tr, err = tree.Flat(bc.TotalW, names)
		policy = bc.Policy
	}
	if err != nil {
		return Result{}, err
	}
	chunks := []time.Duration{duration}
	var cutNode string
	if bc.BrownoutFrac > 0 {
		at := bc.BrownoutAt
		if at == 0 {
			at = duration / 2
		}
		if at >= duration {
			return Result{}, fmt.Errorf("cluster: brownout at %v is not before the run's end at %v", at, duration)
		}
		if cutNode = bc.BrownoutNode; cutNode == "" {
			cutNode = tr.Root().Name
		}
		if tr.NodeBudget(cutNode) <= 0 {
			return Result{}, fmt.Errorf("cluster: brownout node %q is not in the tree or has no budget", cutNode)
		}
		chunks = []time.Duration{at, duration - at}
	}

	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return Result{}, err
	}
	hosts := make([]*sim.Host, len(servers))
	managers := make([]*servermgr.Manager, len(servers))
	for j, s := range servers {
		if hosts[j], managers[j], err = cfg.start(engine, s); err != nil {
			return Result{}, err
		}
	}
	realloc, err := tree.New(tree.Config{
		Tree:     tr,
		Hosts:    hosts,
		Managers: managers,
		Policy:   policy,
		Period:   bc.Period,
		Tracer:   cfg.Trace.Tracer(cfg.TraceLabel + "budget"),
	})
	if err != nil {
		return Result{}, err
	}
	harness, err := cfg.watch(engine, hosts, managers)
	if err != nil {
		return Result{}, err
	}
	if harness != nil {
		if err := harness.Register(invariant.NewTreeConservation(realloc)); err != nil {
			return Result{}, err
		}
	}

	// Attach after the managers so the initial division lands on fully
	// constructed hosts. Each chunk's ticks count against the root budget
	// in force during it.
	if err := realloc.Attach(engine); err != nil {
		return Result{}, err
	}
	root := tr.Root().Name
	var ticks, over int
	for ci, chunk := range chunks {
		if ci == 1 {
			cut := realloc.NodeBudget(cutNode) * (1 - bc.BrownoutFrac)
			if err := realloc.SetBudget(engine.Now(), cutNode, cut, "brownout"); err != nil {
				return Result{}, err
			}
		}
		if err := engine.Run(chunk); err != nil {
			return Result{}, err
		}
		limitW := 1.02 * realloc.NodeBudget(root)
		for n := hosts[0].PowerSeries().Len(); ticks < n; ticks++ {
			var drawW float64
			for _, h := range hosts {
				p, _ := h.PowerSeries().At(ticks)
				drawW += p.Value
			}
			if drawW > limitW {
				over++
			}
		}
	}
	if harness != nil {
		if err := harness.Err(); err != nil {
			return Result{}, fmt.Errorf("cluster: budgeted run: %w", err)
		}
	}

	metrics := make([]sim.Metrics, len(hosts))
	for j, h := range hosts {
		metrics[j] = h.Metrics()
	}
	res := summarize(placement, servers, metrics)
	shares := realloc.Shares()
	res.Budget = &BudgetResult{
		Shares:         make(map[string]float64, len(shares)),
		Rebalances:     realloc.Rebalances(),
		Cuts:           realloc.Cuts(),
		OverBudgetFrac: float64(over) / float64(ticks),
	}
	for i, name := range tr.Hosts() {
		res.Budget.Shares[name] = shares[i]
	}
	if bc.Tree != "" {
		res.Budget.NodeBudgets = realloc.NodeBudgets()
	}
	return res, nil
}
