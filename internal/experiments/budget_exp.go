package experiments

import (
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/budget/tree"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

// BudgetRow is one budget-division policy's cluster outcome.
type BudgetRow struct {
	Policy        string
	TotalBEOps    float64
	MeanClusterW  float64
	BudgetW       float64
	WorstSLOViol  float64
	OverBudgetPct float64
}

// AblationBudgetResult studies cluster-level power budgeting — the
// hierarchical capping layer (Dynamo-style, cited in Section VI) above
// Pocolo's per-server managers.
type AblationBudgetResult struct {
	Rows []BudgetRow
}

// AblationBudget runs the POColo-placed cluster under an aggregate power
// budget of 85% of the summed provisioned capacities, with servers held at
// deliberately skewed loads (10%–80%), and compares dividing the budget
// equally against following demand. The demand-proportional division
// should route watts to the servers whose tenants can spend them.
func (s *Suite) AblationBudget() (AblationBudgetResult, error) {
	const dur = 60 * time.Second
	placement := map[string]string{"graph": "sphinx", "lstm": "img-dnn", "pbzip": "xapian", "rnn": "tpcc"}
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}

	var res AblationBudgetResult
	for _, policy := range []budget.Policy{budget.EqualSplit, budget.DemandProportional} {
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return res, err
		}
		var hosts []*sim.Host
		var managers []*servermgr.Manager
		var names []string
		var totalProvisioned float64
		for _, lc := range s.Catalog.LC() {
			trace, err := workload.NewConstantTrace(loads[lc.Name])
			if err != nil {
				return res, err
			}
			var be *workload.Spec
			for beName, lcName := range placement {
				if lcName == lc.Name {
					if be, err = s.spec(beName); err != nil {
						return res, err
					}
				}
			}
			model, err := s.model(lc.Name)
			if err != nil {
				return res, err
			}
			host, mgr, err := servermgr.Start(engine, sim.HostConfig{
				Name: lc.Name, Machine: s.Machine, LC: lc, BE: be, Trace: trace, Seed: s.Seed,
			}, servermgr.Config{Model: model, Policy: servermgr.PowerOptimized})
			if err != nil {
				return res, err
			}
			hosts = append(hosts, host)
			managers = append(managers, mgr)
			names = append(names, lc.Name)
			totalProvisioned += host.CapW()
		}
		budgetW := 0.85 * totalProvisioned
		tr, err := tree.Flat(budgetW, names)
		if err != nil {
			return res, err
		}
		b, err := tree.New(tree.Config{
			Tree: tr, Hosts: hosts, Managers: managers,
			Policy: policy, Period: 2 * time.Second,
		})
		if err != nil {
			return res, err
		}
		if err := b.Attach(engine); err != nil {
			return res, err
		}
		if err := engine.Run(dur); err != nil {
			return res, err
		}
		row := BudgetRow{Policy: policy.String(), BudgetW: budgetW}
		overSamples, samples := 0, 0
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
		for tick := 0; tick < len(series[0]); tick++ {
			sum := 0.0
			for i := range hosts {
				sum += series[i][tick]
			}
			samples++
			if sum > budgetW*1.02 {
				overSamples++
			}
		}
		if samples > 0 {
			row.OverBudgetPct = float64(overSamples) / float64(samples)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r AblationBudgetResult) Table() Table {
	t := Table{
		Title:   "Ablation: cluster-level power budgeting (85% aggregate budget, skewed loads)",
		Caption: "Dividing a datacenter budget by demand routes watts to servers whose tenants can spend them.",
		Header:  []string{"division", "total BE ops", "mean cluster power (W)", "budget (W)", "over budget", "worst SLO viol"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy, f1(row.TotalBEOps), f1(row.MeanClusterW), f1(row.BudgetW),
			pct(row.OverBudgetPct), pct(row.WorstSLOViol),
		})
	}
	return t
}
