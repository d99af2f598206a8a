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
// bounds (host ≤ rack ≤ row ≤ DC). Budgeted runs share one engine across
// all hosts — the rebalance must observe every meter in lockstep — and
// always bypass the sweep memo.
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
	// Smoothing and MarginW tune the demand estimator (nil = defaults).
	Smoothing *float64
	MarginW   *float64
	// BrownoutNode/BrownoutFrac/BrownoutAt schedule a mid-run budget cut:
	// at BrownoutAt into the run, BrownoutNode's budget drops by
	// BrownoutFrac (0.3 = −30%). Tree mode only; BrownoutNode defaults to
	// the tree root and BrownoutAt to halfway through the run.
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
	return nil
}

// ParseBudgetFlags assembles a BudgetConfig from the CLI flag values
// shared by pocolo-sim and pocolo-experiments. It returns nil when no
// budget was requested (budgetW == 0 and no tree spec). A tree spec
// starting with '@' is read from the named file.
func ParseBudgetFlags(budgetW float64, policy, treeSpec string, period time.Duration, brownoutFrac float64, brownoutAt time.Duration, brownoutNode string) (*BudgetConfig, error) {
	if budgetW == 0 && treeSpec == "" {
		if brownoutFrac != 0 {
			return nil, errors.New("cluster: -brownout needs -budget-tree")
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
}

// runBudgetedPlacement is the shared-engine twin of RunPlacement: every
// host and manager steps on one engine so the attached reallocator can read
// all meters and install all caps in lockstep each period. A scheduled
// brownout splits the run at the cut point — the engine is resumable, so
// the two chunks are bit-identical to one uninterrupted run plus the
// mutation.
func runBudgetedPlacement(cfg Config, placement map[string]string, mgmt servermgr.LCPolicy) (Result, error) {
	bc := cfg.Budget
	if err := bc.validate(); err != nil {
		return Result{}, err
	}
	beBy := make(map[string]*workload.Spec)
	for _, b := range cfg.BE {
		lcName, ok := placement[b.Name]
		if !ok {
			return Result{}, fmt.Errorf("cluster: placement misses BE app %s", b.Name)
		}
		if _, dup := beBy[lcName]; dup {
			return Result{}, fmt.Errorf("cluster: two BE apps placed on %s", lcName)
		}
		beBy[lcName] = b
	}

	duration := workload.UniformSweep(cfg.Dwell).Duration()
	engine, err := sim.NewEngine(engineTick)
	if err != nil {
		return Result{}, err
	}
	hosts := make([]*sim.Host, len(cfg.LC))
	managers := make([]*servermgr.Manager, len(cfg.LC))
	for i, lc := range cfg.LC {
		host, err := sim.NewHost(sim.HostConfig{
			Name:       lc.Name,
			Machine:    cfg.Machine,
			LC:         lc,
			BE:         beBy[lc.Name],
			Trace:      workload.UniformSweep(cfg.Dwell),
			Seed:       cfg.Seed + int64(i)*977,
			SeriesHint: seriesHint(duration),
		})
		if err != nil {
			return Result{}, err
		}
		if err := engine.AddHost(host); err != nil {
			return Result{}, err
		}
		mgr, err := servermgr.New(servermgr.Config{
			Host:        host,
			Model:       cfg.Models[lc.Name],
			Policy:      mgmt,
			TargetSlack: cfg.TargetSlack,
			Seed:        cfg.Seed + int64(i)*389,
			Tracer:      cfg.Trace.Tracer(cfg.TraceLabel + lc.Name),
		})
		if err != nil {
			return Result{}, err
		}
		if err := mgr.Attach(engine); err != nil {
			return Result{}, err
		}
		hosts[i] = host
		managers[i] = mgr
	}

	// Install the budget authority: a flat budget is a one-level tree.
	var tr *tree.Tree
	policy := budget.DemandProportional
	if bc.Tree != "" {
		tr, err = tree.Parse(bc.Tree)
	} else {
		names := make([]string, len(cfg.LC))
		for i, lc := range cfg.LC {
			names[i] = lc.Name
		}
		tr, err = tree.Flat(bc.TotalW, names)
		policy = bc.Policy
	}
	if err != nil {
		return Result{}, err
	}
	realloc, err := tree.New(tree.Config{
		Tree:      tr,
		Hosts:     hosts,
		Managers:  managers,
		Policy:    policy,
		Period:    bc.Period,
		Smoothing: bc.Smoothing,
		MarginW:   bc.MarginW,
		Tracer:    cfg.Trace.Tracer(cfg.TraceLabel + "budget"),
	})
	if err != nil {
		return Result{}, err
	}

	var harness *invariant.Harness
	if cfg.Invariants {
		harness = invariant.NewHarness()
		for i, host := range hosts {
			if err := harness.Watch(host, managers[i]); err != nil {
				return Result{}, err
			}
		}
		if err := harness.Register(invariant.NewTreeConservation(realloc)); err != nil {
			return Result{}, err
		}
		if err := harness.Bind(engine); err != nil {
			return Result{}, err
		}
	}

	// Attach after the managers so the initial division lands on fully
	// constructed hosts, then run — in two chunks around a scheduled
	// brownout.
	if err := realloc.Attach(engine); err != nil {
		return Result{}, err
	}
	chunks := []time.Duration{duration}
	if bc.BrownoutFrac > 0 {
		at := bc.BrownoutAt
		if at == 0 {
			at = duration / 2
		}
		if at < duration {
			chunks = []time.Duration{at, duration - at}
		}
	}
	for ci, chunk := range chunks {
		if ci == 1 {
			node := bc.BrownoutNode
			if node == "" {
				node = tr.Root().Name
			}
			orig := realloc.NodeBudgets()[node]
			if orig <= 0 {
				return Result{}, fmt.Errorf("cluster: brownout node %q has no budget", node)
			}
			cut := orig * (1 - bc.BrownoutFrac)
			if err := realloc.SetBudget(engine.Now(), node, cut, "brownout"); err != nil {
				return Result{}, err
			}
		}
		if chunk <= 0 {
			continue
		}
		if err := engine.Run(chunk); err != nil {
			return Result{}, err
		}
	}
	if harness != nil {
		if err := harness.Err(); err != nil {
			return Result{}, fmt.Errorf("cluster: budgeted run: %w", err)
		}
	}

	res := Result{
		Placement: placement,
		Hosts:     make(map[string]sim.Metrics, len(cfg.LC)),
		Budget:    &BudgetResult{Shares: make(map[string]float64, len(cfg.LC))},
	}
	var normSum float64
	var normCount int
	var utilSum float64
	for i, lc := range cfg.LC {
		m := hosts[i].Metrics()
		res.Hosts[lc.Name] = m
		res.TotalEnergyKWh += m.EnergyKWh
		res.TotalBEOps += m.BEOps
		utilSum += m.PowerUtil
		if m.SLOViolFrac > res.SLOViolFrac {
			res.SLOViolFrac = m.SLOViolFrac
		}
		if be := beBy[lc.Name]; be != nil {
			normSum += m.BEMeanThr / be.PeakLoad
			normCount++
		}
	}
	res.MeanPowerUtil = utilSum / float64(len(cfg.LC))
	if normCount > 0 {
		res.BENormThroughput = normSum / float64(normCount)
	}
	shares := realloc.Shares()
	for i, name := range tr.Hosts() {
		res.Budget.Shares[name] = shares[i]
	}
	res.Budget.Rebalances = realloc.Rebalances()
	res.Budget.Cuts = realloc.Cuts()
	if bc.Tree != "" {
		res.Budget.NodeBudgets = realloc.NodeBudgets()
	}
	return res, nil
}
