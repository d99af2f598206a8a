package budget_test

import (
	"math"
	"testing"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// rig builds a cluster of hosts with distinct constant loads, each running
// a co-runner, plus managers and an engine.
type rig struct {
	hosts    []*sim.Host
	managers []*servermgr.Manager
	engine   *sim.Engine
}

var fittedModels map[string]*utility.Model

func buildRig(t *testing.T, loads []float64) *rig {
	t.Helper()
	withBE := make([]bool, len(loads))
	for i := range withBE {
		withBE[i] = true
	}
	return buildRigCustom(t, loads, withBE)
}

// buildRigCustom controls per-host whether a co-runner is present.
func buildRigCustom(t *testing.T, loads []float64, withBE []bool) *rig {
	t.Helper()
	cfg := machine.XeonE52650()
	cat := workload.MustDefaults()
	if fittedModels == nil {
		models, err := profiler.FitAll(cfg, append(cat.LC(), cat.BE()...), 42)
		if err != nil {
			t.Fatal(err)
		}
		fittedModels = models
	}
	lcs := cat.LC()
	bes := cat.BE()
	engine, err := sim.NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{engine: engine}
	for i, load := range loads {
		lc := lcs[i%len(lcs)]
		trace, err := workload.NewConstantTrace(load)
		if err != nil {
			t.Fatal(err)
		}
		hc := sim.HostConfig{
			Name:    lc.Name,
			Machine: cfg,
			LC:      lc,
			Trace:   trace,
			Seed:    int64(i) * 71,
		}
		if withBE[i] {
			hc.BE = bes[i%len(bes)]
		}
		host, err := sim.NewHost(hc)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.AddHost(host); err != nil {
			t.Fatal(err)
		}
		mgr, err := servermgr.New(servermgr.Config{
			Host: host, Model: fittedModels[lc.Name], Policy: servermgr.PowerOptimized,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Attach(engine); err != nil {
			t.Fatal(err)
		}
		r.hosts = append(r.hosts, host)
		r.managers = append(r.managers, mgr)
	}
	return r
}

// newFlat divides totalW over the rig's hosts as a one-level tree, the
// way every flat cluster budget runs.
func newFlat(t *testing.T, r *rig, totalW float64, cfg tree.Config) (*tree.Reallocator, error) {
	t.Helper()
	names := make([]string, len(r.hosts))
	for i, h := range r.hosts {
		names[i] = h.Name()
	}
	tr, err := tree.Flat(totalW, names)
	if err != nil {
		return nil, err
	}
	cfg.Tree = tr
	if cfg.Hosts == nil {
		cfg.Hosts = r.hosts
	}
	if cfg.Managers == nil {
		cfg.Managers = r.managers
	}
	return tree.New(cfg)
}

func TestNewValidation(t *testing.T) {
	r := buildRig(t, []float64{0.3, 0.6})
	if _, err := tree.Flat(300, nil); err == nil {
		t.Error("expected error for no hosts")
	}
	if _, err := tree.Flat(0, []string{"a"}); err == nil {
		t.Error("expected error for a zero total")
	}
	if _, err := newFlat(t, r, 300, tree.Config{Managers: r.managers[:1]}); err == nil {
		t.Error("expected error for mismatched slices")
	}
	if _, err := newFlat(t, r, 300, tree.Config{Hosts: []*sim.Host{nil, nil}}); err == nil {
		t.Error("expected error for nil host")
	}
	if _, err := newFlat(t, r, 80, tree.Config{}); err == nil {
		t.Error("expected error for budget below the idle floors")
	}
	if _, err := newFlat(t, r, 300, tree.Config{Period: -time.Second}); err == nil {
		t.Error("expected error for negative period")
	}
	b, err := newFlat(t, r, 300, tree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(nil); err == nil {
		t.Error("expected error attaching to nil engine")
	}
	if got := b.Tree().Root().BudgetW; got != 300 {
		t.Errorf("total = %v", got)
	}
	if budget.EqualSplit.String() == "" || budget.DemandProportional.String() == "" || budget.Policy(9).String() == "" {
		t.Error("policy strings broken")
	}
}

func TestConfigSentinels(t *testing.T) {
	// Every Divider smooths by DefaultSmoothing and adds DefaultMarginW.
	// Two divisions over two hosts whose draws swap expose both constants.
	first := []tree.Leaf{{DrawW: 100, IdleW: 10, ProvisionedW: 1000}, {DrawW: 300, IdleW: 10, ProvisionedW: 1000}}
	second := []tree.Leaf{{DrawW: 300, IdleW: 10, ProvisionedW: 1000}, {DrawW: 100, IdleW: 10, ProvisionedW: 1000}}
	tr, err := tree.Flat(200, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	div, err := tree.NewDivider(tr, budget.DemandProportional, nil)
	if err != nil {
		t.Fatal(err)
	}
	var shares [2][]float64
	for i, leaves := range [][]tree.Leaf{first, second} {
		got, short := div.Divide(time.Unix(0, 0), leaves)
		if short != nil {
			t.Fatal(short)
		}
		shares[i] = append([]float64(nil), got...)
	}
	// Margin 5 on the first division, equal EWMAs on the second.
	if got, want := shares[0][0], 200*105.0/410; got != want {
		t.Errorf("default margin: first share %v, want %v", got, want)
	}
	if shares[1][0] != 100 || shares[1][1] != 100 {
		t.Errorf("default smoothing: second division %v, want 100/100", shares[1])
	}
	// An estimator with smoothing 1 and zero margin demands the latest
	// draw alone, and an explicit zero margin stays zero.
	est := budget.NewDemandEstimator(2, 1, 0)
	caps := []float64{1000, 1000}
	var exact [2][]float64
	for i, leaves := range [][]tree.Leaf{first, second} {
		for h, l := range leaves {
			est.Observe(h, l.DrawW, l.IdleW)
		}
		exact[i] = budget.DivideProportional(200, []float64{est.Demand(0), est.Demand(1)}, caps)
	}
	if exact[0][0] != 50 || exact[0][1] != 150 || exact[1][0] != 150 || exact[1][1] != 50 {
		t.Errorf("smoothing 1 and zero margin divided %v, want [[50 150] [150 50]]", exact)
	}
}

func TestSharesNeverExceedTotalOrCaps(t *testing.T) {
	for _, policy := range []budget.Policy{budget.EqualSplit, budget.DemandProportional} {
		r := buildRig(t, []float64{0.1, 0.8, 0.4, 0.6})
		var total float64
		for _, h := range r.hosts {
			total += h.CapW()
		}
		budgetW := 0.85 * total
		b, err := newFlat(t, r, budgetW, tree.Config{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Attach(r.engine); err != nil {
			t.Fatal(err)
		}
		if err := r.engine.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		shares := b.Shares()
		sum := 0.0
		for i, s := range shares {
			sum += s
			if s > r.hosts[i].CapW()+1e-9 {
				t.Errorf("%v: share %v exceeds provisioned cap %v", policy, s, r.hosts[i].CapW())
			}
			if s <= r.hosts[i].Machine().IdlePowerW {
				t.Errorf("%v: share %v below the idle floor", policy, s)
			}
			if m := r.managers[i].CapW(); math.Abs(m-s) > 1e-9 {
				t.Errorf("%v: manager cap %v does not match share %v", policy, m, s)
			}
		}
		if sum > budgetW+1e-6 {
			t.Errorf("%v: shares sum %v exceed the total budget %v", policy, sum, budgetW)
		}
		if b.Rebalances() < 6 {
			t.Errorf("%v: only %d rebalances", policy, b.Rebalances())
		}
	}
}

func TestProportionalFollowsDemand(t *testing.T) {
	// One server at 80% load with a co-runner, one at 10% with no
	// co-runner (a genuinely idle demand): the busy server should get the
	// larger share under the proportional policy.
	r := buildRigCustom(t, []float64{0.8, 0.1}, []bool{true, false})
	budgetW := 0.8 * (r.hosts[0].CapW() + r.hosts[1].CapW())
	b, err := newFlat(t, r, budgetW, tree.Config{Policy: budget.DemandProportional, Period: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(r.engine); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	shares := b.Shares()
	if shares[0] <= shares[1] {
		t.Errorf("busy server share %v should exceed idle server share %v", shares[0], shares[1])
	}
}

func TestClusterStaysInsideBudget(t *testing.T) {
	// The end-to-end guarantee: with the budget installed, total cluster
	// power stays at or below the budget (after the first rebalances).
	r := buildRig(t, []float64{0.5, 0.3, 0.7, 0.2})
	var total float64
	for _, h := range r.hosts {
		total += h.CapW()
	}
	budgetW := 0.8 * total
	b, err := newFlat(t, r, budgetW, tree.Config{Policy: budget.DemandProportional, Period: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(r.engine); err != nil {
		t.Fatal(err)
	}
	// Warm up, then measure.
	if err := r.engine.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	over := 0
	samples := 0
	for i := 0; i < 30; i++ {
		if err := r.engine.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, h := range r.hosts {
			sum += h.MeterReading().Watts
		}
		samples++
		if sum > budgetW*1.02 {
			over++
		}
	}
	if frac := float64(over) / float64(samples); frac > 0.1 {
		t.Errorf("cluster exceeded the budget in %.0f%% of samples", frac*100)
	}
	// The LC applications must still be protected (they have priority over
	// the budget squeeze — only co-runners throttle).
	for _, h := range r.hosts {
		if m := h.Metrics(); m.SLOViolFrac > 0.10 {
			t.Errorf("%s: SLO violated %.1f%% under the cluster budget", h.Name(), m.SLOViolFrac*100)
		}
	}
}

func TestEqualSplitSpillsOverProvisionedCaps(t *testing.T) {
	// With a generous total, the equal split would hand some servers more
	// than their provisioned capacity; the excess must be reassigned.
	r := buildRig(t, []float64{0.5, 0.5, 0.5, 0.5})
	var total float64
	for _, h := range r.hosts {
		total += h.CapW()
	}
	b, err := newFlat(t, r, total*0.99, tree.Config{Policy: budget.EqualSplit})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(r.engine); err != nil {
		t.Fatal(err)
	}
	shares := b.Shares()
	// img-dnn and tpcc are provisioned at 133 W < the equal share of
	// ~150 W, so they clamp and the excess flows to sphinx/xapian.
	for i, h := range r.hosts {
		if shares[i] > h.CapW()+1e-9 {
			t.Errorf("share %v exceeds %s's provisioned %v", shares[i], h.Name(), h.CapW())
		}
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < total*0.95 {
		t.Errorf("spill-over lost budget: %v of %v assigned", sum, total*0.99)
	}
}
