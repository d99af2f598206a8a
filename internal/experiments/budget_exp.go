package experiments

import (
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/cluster"
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
// should route watts to the servers whose tenants can spend them. Each
// policy is one cluster.RunBudgeted run, traced under
// ablation-budget/<policy>/.
func (s *Suite) AblationBudget() (AblationBudgetResult, error) {
	const dur = 60 * time.Second
	placement := map[string]string{"graph": "sphinx", "lstm": "img-dnn", "pbzip": "xapian", "rnn": "tpcc"}
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}

	var res AblationBudgetResult
	base := s.ClusterConfig(s.label("ablation-budget"))
	for _, policy := range []budget.Policy{budget.EqualSplit, budget.DemandProportional} {
		cfg := base
		cfg.TraceLabel = base.TraceLabel + policy.String() + "/"
		var provisionedW float64
		for _, lc := range cfg.LC {
			provisionedW += lc.ProvisionedPowerW
		}
		cfg.Budget = &cluster.BudgetConfig{TotalW: 0.85 * provisionedW, Policy: policy, Period: 2 * time.Second}
		run, err := cluster.RunBudgeted(cfg, placement, loads, dur)
		if err != nil {
			return res, err
		}
		row := BudgetRow{
			Policy:        policy.String(),
			TotalBEOps:    run.TotalBEOps,
			BudgetW:       cfg.Budget.TotalW,
			WorstSLOViol:  run.SLOViolFrac,
			OverBudgetPct: run.Budget.OverBudgetFrac,
		}
		for _, lc := range cfg.LC {
			row.MeanClusterW += run.Hosts[lc.Name].MeanPowerW
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
