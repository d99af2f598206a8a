package experiments

import (
	"reflect"
	"testing"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/workload"
)

// referenceAblationBudget is AblationBudget as it was written before it
// called cluster.RunBudgeted — its own engine, flat tree, placement
// inversion, host loop and over-budget count — with the host and manager
// seeds of the cluster layout (Seed+977j and Seed+389j for LC server j).
func referenceAblationBudget(t *testing.T, s *Suite) AblationBudgetResult {
	t.Helper()
	const dur = 60 * time.Second
	placement := map[string]string{"graph": "sphinx", "lstm": "img-dnn", "pbzip": "xapian", "rnn": "tpcc"}
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}
	beOn := make(map[string]string)
	for be, lc := range placement {
		beOn[lc] = be
	}

	var res AblationBudgetResult
	for _, policy := range []budget.Policy{budget.EqualSplit, budget.DemandProportional} {
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
			be, err := s.Catalog.ByName(beOn[lc.Name])
			if err != nil {
				t.Fatal(err)
			}
			host, mgr, err := servermgr.Start(engine, sim.HostConfig{
				Name: lc.Name, Machine: s.Machine, LC: lc, BE: be, Trace: trace, Seed: s.Seed + int64(j)*977,
			}, servermgr.Config{Model: s.Models[lc.Name], Policy: servermgr.PowerOptimized, Seed: s.Seed + int64(j)*389})
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, host)
			managers = append(managers, mgr)
			names = append(names, lc.Name)
			totalProvisioned += host.CapW()
		}
		budgetW := 0.85 * totalProvisioned
		tr, err := tree.Flat(budgetW, names)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tree.New(tree.Config{
			Tree: tr, Hosts: hosts, Managers: managers,
			Policy: policy, Period: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Attach(engine); err != nil {
			t.Fatal(err)
		}
		if err := engine.Run(dur); err != nil {
			t.Fatal(err)
		}
		row := BudgetRow{Policy: policy.String(), BudgetW: budgetW}
		for _, h := range hosts {
			m := h.Metrics()
			row.TotalBEOps += m.BEOps
			row.MeanClusterW += m.MeanPowerW
			if m.SLOViolFrac > row.WorstSLOViol {
				row.WorstSLOViol = m.SLOViolFrac
			}
		}
		// Budget compliance from the recorded power series.
		series := make([][]float64, len(hosts))
		for i, h := range hosts {
			series[i] = h.PowerSeries().Values()
		}
		over := 0
		for tick := range series[0] {
			sum := 0.0
			for i := range hosts {
				sum += series[i][tick]
			}
			if sum > budgetW*1.02 {
				over++
			}
		}
		row.OverBudgetPct = float64(over) / float64(len(series[0]))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TestAblationBudgetMatchesReference: A9, a thin caller of
// cluster.RunBudgeted, reproduces every row field of its former
// hand-built loop, the over-budget column included, once that loop seeds
// hosts and managers as the cluster layout does.
func TestAblationBudgetMatchesReference(t *testing.T) {
	s := sharedSuite(t)
	got, err := s.AblationBudget()
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceAblationBudget(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("A9 rows\n %+v\nwant (reference loop)\n %+v", got.Rows, want.Rows)
	}
}

// TestAblationBudgetTraced: with Suite.Trace and Suite.Invariants set, A9
// passes the invariant harness, records each policy's budget shifts and
// hosts on timelines of their own, keeps a second call apart under its own
// label, and returns what an untraced, unchecked run returns.
func TestAblationBudgetTraced(t *testing.T) {
	base := sharedSuite(t)
	want, err := base.AblationBudget()
	if err != nil {
		t.Fatal(err)
	}
	s := tracedSuite(base)
	for call := 1; call <= 2; call++ {
		got, err := s.AblationBudget()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced call %d returned\n %+v\nuntraced\n %+v", call, got.Rows, want.Rows)
		}
	}
	events := s.Trace.Events()
	byHost := make(map[string]int)
	shifts := make(map[string]int)
	for _, ev := range events {
		byHost[ev.Host]++
		if ev.Kind == trace.KindBudgetShift {
			shifts[ev.Host]++
		}
	}
	var timelines int
	for _, label := range []string{"ablation-budget/", "ablation-budget#2/"} {
		for _, policy := range []budget.Policy{budget.EqualSplit, budget.DemandProportional} {
			prefix := label + policy.String() + "/"
			if shifts[prefix+"budget"] == 0 {
				t.Errorf("no budget-shift events on %sbudget (events by timeline %v)", prefix, byHost)
			}
			for _, lc := range s.Catalog.LC() {
				if byHost[prefix+lc.Name] == 0 {
					t.Errorf("no events on %s%s", prefix, lc.Name)
				}
			}
			timelines += 1 + len(s.Catalog.LC())
		}
	}
	if len(byHost) != timelines {
		t.Errorf("events on %d timelines %v, want %d", len(byHost), byHost, timelines)
	}
	if err := trace.Validate(events); err != nil {
		t.Errorf("timeline fails validation: %v", err)
	}
}
