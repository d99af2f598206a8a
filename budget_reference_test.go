package pocolo

import (
	"reflect"
	"testing"
	"time"

	"pocolo/internal/budget/tree"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

// referenceSimulateBudgetedCluster is SimulateBudgetedCluster as it was
// written before it called cluster.RunBudgeted — its own engine, flat
// tree, placement inversion and host loop — with the host and manager
// seeds of the cluster layout (Seed+977j and Seed+389j for LC server j).
// The placements it is given are valid.
func referenceSimulateBudgetedCluster(t *testing.T, s *System, loads map[string]float64, placement map[string]string, budgetFrac float64, policy BudgetPolicy, dur time.Duration) BudgetedResult {
	t.Helper()
	if placement == nil {
		var err error
		if placement, _, err = s.Place(); err != nil {
			t.Fatal(err)
		}
	}
	beOn := make(map[string]*Spec)
	for beName, lcName := range placement {
		be, err := s.Catalog.ByName(beName)
		if err != nil {
			t.Fatal(err)
		}
		beOn[lcName] = be
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*sim.Host
	var managers []*servermgr.Manager
	var names []string
	var totalProvisioned float64
	for j, lc := range s.Catalog.LC() {
		trace, err := workload.NewConstantTrace(loads[lc.Name])
		if err != nil {
			t.Fatal(err)
		}
		host, mgr, err := servermgr.Start(engine, sim.HostConfig{
			Name: lc.Name, Machine: s.Machine, LC: lc, BE: beOn[lc.Name],
			Trace: trace, Seed: s.Seed + int64(j)*977,
		}, servermgr.Config{Model: s.Models[lc.Name], Policy: servermgr.PowerOptimized, Seed: s.Seed + int64(j)*389})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host)
		managers = append(managers, mgr)
		names = append(names, lc.Name)
		totalProvisioned += host.CapW()
	}
	budgetW := budgetFrac * totalProvisioned
	tr, err := tree.Flat(budgetW, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.New(tree.Config{Tree: tr, Hosts: hosts, Managers: managers, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(engine); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(dur); err != nil {
		t.Fatal(err)
	}
	res := BudgetedResult{
		BudgetW: budgetW,
		Hosts:   make(map[string]HostMetrics, len(hosts)),
		Shares:  make(map[string]float64, len(hosts)),
	}
	shares := b.Shares()
	for i, h := range hosts {
		m := h.Metrics()
		res.Hosts[h.Name()] = m
		res.Shares[h.Name()] = shares[i]
		res.TotalBEOps += m.BEOps
		res.MeanClusterW += m.MeanPowerW
	}
	return res
}

// TestSimulateBudgetedClusterMatchesReference: SimulateBudgetedCluster, a
// thin caller of cluster.RunBudgeted, returns exactly what its former
// hand-built loop returns once that loop seeds hosts and managers as the
// cluster layout does — under both policies, for the solved placement and
// a partial one.
func TestSimulateBudgetedClusterMatchesReference(t *testing.T) {
	sys := newTestSystem(t)
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}
	for _, policy := range []BudgetPolicy{EqualSplit, DemandProportional} {
		for _, placement := range []map[string]string{nil, {"graph": "sphinx"}} {
			got, err := sys.SimulateBudgetedCluster(loads, placement, 0.85, policy, 20*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSimulateBudgetedCluster(t, sys, loads, placement, 0.85, policy, 20*time.Second)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v, placement %v:\n got %+v\nwant %+v", policy, placement, got, want)
			}
		}
	}
}
