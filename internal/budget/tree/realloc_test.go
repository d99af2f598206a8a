package tree

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// rig builds hosts named h0..h{n-1} with distinct constant loads, each
// with a co-runner, plus managers and an engine — mirroring the flat
// budget package's test rig so the two stay comparable.
type rig struct {
	hosts    []*sim.Host
	managers []*servermgr.Manager
	engine   *sim.Engine
}

var fittedModels map[string]*utility.Model

func buildRig(t testing.TB, loads []float64) *rig {
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
		tr, err := workload.NewConstantTrace(load)
		if err != nil {
			t.Fatal(err)
		}
		host, err := sim.NewHost(sim.HostConfig{
			Name:    fmt.Sprintf("h%d", i),
			Machine: cfg,
			LC:      lc,
			BE:      bes[i%len(bes)],
			Trace:   tr,
			Seed:    int64(i) * 71,
		})
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

func TestNewReallocatorValidation(t *testing.T) {
	r := buildRig(t, []float64{0.3, 0.6})
	tr, err := Parse("dc:300{h0,h1}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for nil tree")
	}
	if _, err := New(Config{Tree: tr, Hosts: r.hosts[:1], Managers: r.managers[:1]}); err == nil {
		t.Error("expected error for missing hosts")
	}
	if _, err := New(Config{Tree: tr, Hosts: r.hosts, Managers: r.managers[:1]}); err == nil {
		t.Error("expected error for mismatched slices")
	}
	if _, err := New(Config{Tree: tr, Hosts: []*sim.Host{nil, nil}, Managers: r.managers}); err == nil {
		t.Error("expected error for nil host")
	}
	wrong, err := Parse("dc:300{h0,nope}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Tree: wrong, Hosts: r.hosts, Managers: r.managers}); err == nil {
		t.Error("expected error for a leaf with no matching host")
	}
	tight, err := Parse("dc:90{h0,h1}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Tree: tight, Hosts: r.hosts, Managers: r.managers}); err == nil {
		t.Error("expected error for a budget below the idle floors")
	}
	if _, err := New(Config{Tree: tr, Hosts: r.hosts, Managers: r.managers, Period: -time.Second}); err == nil {
		t.Error("expected error for negative period")
	}
	re, err := New(Config{Tree: tr, Hosts: r.hosts, Managers: r.managers})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Attach(nil); err == nil {
		t.Error("expected error attaching to nil engine")
	}
	if re.Period() != 5*time.Second {
		t.Errorf("default period = %v", re.Period())
	}
	if re.Tree() != tr {
		t.Error("Tree() accessor broken")
	}
}

// TestDegenerateTreeMatchesFlatBudgeter is the golden contract: a flat
// budget, divided as a one-level tree by the Reallocator, installs the
// shares of the flat budget loop (flatBudgeter) over an identical seeded
// run. Demand division is bit-identical. The equal split is unit weights
// through DivideProportional: bit-identical while no provisioned cap
// binds (0.85 × Σcaps), within 1e-9 W of the spill-over split when
// img-dnn's and tpcc's 133 W caps bind (0.99 × Σcaps).
func TestDegenerateTreeMatchesFlatBudgeter(t *testing.T) {
	loads := []float64{0.1, 0.8, 0.4, 0.6}
	for _, tc := range []struct {
		policy pbudget.Policy
		frac   float64
		tol    float64
	}{
		{pbudget.DemandProportional, 0.85, 0},
		{pbudget.EqualSplit, 0.85, 0},
		{pbudget.EqualSplit, 0.99, 1e-9},
	} {
		flatRig := buildRig(t, loads)
		treeRig := buildRig(t, loads)
		var total float64
		for _, h := range flatRig.hosts {
			total += h.CapW()
		}
		budgetW := tc.frac * total

		flat := newFlatBudgeter(budgetW, flatRig.hosts, flatRig.managers, tc.policy)
		if err := flat.attach(flatRig.engine, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		tr, err := Flat(budgetW, []string{"h0", "h1", "h2", "h3"})
		if err != nil {
			t.Fatal(err)
		}
		re, err := New(Config{
			Tree: tr, Hosts: treeRig.hosts, Managers: treeRig.managers,
			Policy: tc.policy, Period: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Attach(treeRig.engine); err != nil {
			t.Fatal(err)
		}

		if err := flatRig.engine.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := treeRig.engine.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if flat.rebalances != re.Rebalances() {
			t.Fatalf("%v at %v: rebalance counts diverged: flat %d, tree %d", tc.policy, tc.frac, flat.rebalances, re.Rebalances())
		}
		got, want := re.Shares(), flat.lastShares
		if tc.tol == 0 {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v at %v: one-level tree shares %v != flat shares %v", tc.policy, tc.frac, got, want)
			}
		} else if d := maxAbsDiff(got, want); d > tc.tol {
			t.Errorf("%v at %v: one-level tree shares %v differ from flat shares %v by %g W", tc.policy, tc.frac, got, want, d)
		}
		if tc.frac == 0.99 {
			// h0 and h3 run img-dnn and tpcc, provisioned at 133 W.
			for _, i := range []int{0, 3} {
				if got[i] != 133 || treeRig.hosts[i].CapW() != 133 {
					t.Errorf("h%d share %v, want it bound at its 133 W cap", i, got[i])
				}
			}
		}
	}
}

func TestReallocatorShiftsTowardDemand(t *testing.T) {
	// h0 is nearly idle, h1 is slammed; under one rack they share 250 W
	// and the busy host must end up with the bigger slice.
	r := buildRig(t, []float64{0.1, 0.9})
	tr, err := Parse("dc:260=rack:250{h0,h1}")
	if err != nil {
		t.Fatal(err)
	}
	re, err := New(Config{
		Tree: tr, Hosts: r.hosts, Managers: r.managers,
		Policy: pbudget.DemandProportional, Period: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Attach(r.engine); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	shares := re.Shares()
	if shares[1] <= shares[0] {
		t.Errorf("busy host share %v should exceed idle host share %v", shares[1], shares[0])
	}
	// The rack bound (250), not the dc bound (260), is the binding one.
	if sum := shares[0] + shares[1]; sum > 250+1e-6 {
		t.Errorf("shares sum %v exceed the rack budget", sum)
	}
	if re.Rebalances() < 10 {
		t.Errorf("only %d rebalances", re.Rebalances())
	}
}

func TestSetBudgetConvergesAndTraces(t *testing.T) {
	r := buildRig(t, []float64{0.5, 0.3, 0.7, 0.2})
	var total float64
	for _, h := range r.hosts {
		total += h.CapW()
	}
	budgetW := 0.9 * total
	tr, err := Parse(fmt.Sprintf("dc:%g{rack1:%g{h0,h1},rack2:%g{h2,h3}}", budgetW, budgetW/2, budgetW/2))
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New("realloc", 0)
	re, err := New(Config{
		Tree: tr, Hosts: r.hosts, Managers: r.managers,
		Policy: pbudget.DemandProportional, Period: 2 * time.Second, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Attach(r.engine); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if re.InGrace() {
		t.Error("still in grace after five periods with no cut")
	}

	// Brownout: cut the DC budget 30% mid-run.
	cutW := 0.7 * budgetW
	if err := re.SetBudget(r.engine.Now(), "dc", cutW, "brownout"); err != nil {
		t.Fatal(err)
	}
	if err := re.SetBudget(r.engine.Now(), "nope", 100, "brownout"); err == nil {
		t.Error("expected error cutting an unknown node")
	}
	if !re.InGrace() {
		t.Error("not in grace immediately after a cut")
	}
	if re.Cuts() != 1 {
		t.Errorf("Cuts() = %d", re.Cuts())
	}

	// Within ConvergencePeriods reallocation periods the installed caps
	// must fit inside the new budget.
	if err := r.engine.Run(time.Duration(ConvergencePeriods) * re.Period()); err != nil {
		t.Fatal(err)
	}
	if re.InGrace() {
		t.Error("still in grace after the convergence window")
	}
	var sum float64
	for _, m := range r.managers {
		sum += m.CapW()
	}
	if sum > cutW+1e-6 {
		t.Errorf("installed caps %v did not converge inside the cut budget %v", sum, cutW)
	}

	// The authority view matches the mutated tree.
	if b := re.NodeBudgets()["dc"]; b != cutW {
		t.Errorf("NodeBudgets[dc] = %v, want %v", b, cutW)
	}
	if hosts := re.NodeHosts("rack2"); !reflect.DeepEqual(hosts, []string{"h2", "h3"}) {
		t.Errorf("NodeHosts(rack2) = %v", hosts)
	}

	// The trace carries the cut and at least one shift per host.
	var cuts, shifts int
	for _, ev := range tracer.Events() {
		switch ev.Kind {
		case trace.KindBudgetCut:
			cuts++
			if ev.Budget.Node != "dc" || ev.Budget.ToW != cutW || ev.Budget.Reason != "brownout" {
				t.Errorf("bad cut event: %+v", ev.Budget)
			}
		case trace.KindBudgetShift:
			shifts++
		}
	}
	if cuts != 1 {
		t.Errorf("%d BudgetCut events, want 1", cuts)
	}
	if shifts < len(r.hosts) {
		t.Errorf("only %d BudgetShift events for %d hosts", shifts, len(r.hosts))
	}
}

func BenchmarkBudgetRealloc4(b *testing.B)  { benchRealloc(b, 4) }
func BenchmarkBudgetRealloc64(b *testing.B) { benchRealloc(b, 64) }

// sinkShares keeps the benchmarked division from being optimized away.
var sinkShares []float64

// benchRealloc measures one Divider.Divide — demand update, floor check,
// division and floor pass — over a two-level tree of n hosts (8 per
// rack), the per-period cost every budget adapter pays.
func benchRealloc(b *testing.B, n int) {
	children := make([]*Node, 0, (n+7)/8)
	for i := 0; i < n; i += 8 {
		rack := &Node{Name: fmt.Sprintf("rack%d", i/8), BudgetW: 8 * 180}
		for j := i; j < i+8 && j < n; j++ {
			rack.Children = append(rack.Children, &Node{Name: fmt.Sprintf("h%d", j)})
		}
		children = append(children, rack)
	}
	tr, err := Build(&Node{Name: "dc", BudgetW: float64(n) * 160, Children: children})
	if err != nil {
		b.Fatal(err)
	}
	div, err := NewDivider(tr, pbudget.DemandProportional, nil)
	if err != nil {
		b.Fatal(err)
	}
	leaves := make([]Leaf, n)
	for i := range leaves {
		leaves[i] = Leaf{IdleW: 61, ProvisionedW: 200}
	}
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range leaves {
			leaves[j].DrawW = 80 + float64((i+j)%40)
		}
		shares, short := div.Divide(now, leaves)
		if short != nil {
			b.Fatal(short)
		}
		sinkShares = shares
	}
}
