package experiments

import (
	"fmt"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/cluster"
)

// ScaleRow is one cluster-size point of the solver scaling study.
type ScaleRow struct {
	Servers       int
	LPTime        time.Duration
	HungarianTime time.Duration
	Optimal       float64
	RandomMean    float64
	// RandomLossFrac is the expected fraction of the optimum a random
	// placement forfeits at this scale.
	RandomLossFrac float64
}

// AblationScaleResult studies placement at cluster sizes beyond the
// paper's 4-server testbed.
type AblationScaleResult struct {
	Rows []ScaleRow
}

// AblationScale replicates the four LC clusters and the four BE candidates
// r times each (a datacenter hosts many servers per primary application,
// Section II-A) and measures the exact solvers' cost and the random
// baseline's expected loss as the assignment grows from 4×4 to 32×32.
func (s *Suite) AblationScale() (AblationScaleResult, error) {
	base, err := cluster.BuildMatrix(s.MatrixConfig())
	if err != nil {
		return AblationScaleResult{}, err
	}
	var res AblationScaleResult
	for _, replicas := range []int{1, 2, 4, 8} {
		n := len(base.BENames) * replicas
		value := make([][]float64, n)
		for i := 0; i < n; i++ {
			value[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				value[i][j] = base.Value[i%len(base.BENames)][j%len(base.LCNames)]
			}
		}
		start := time.Now()
		_, lpVal, err := assign.LP(value)
		if err != nil {
			return res, err
		}
		lpTime := time.Since(start)
		start = time.Now()
		_, huVal, err := assign.Hungarian(value)
		if err != nil {
			return res, err
		}
		huTime := time.Since(start)
		if diff := lpVal - huVal; diff > 1e-6 || diff < -1e-6 {
			return res, fmt.Errorf("experiments: solver disagreement at n=%d: lp %v vs hungarian %v", n, lpVal, huVal)
		}
		// Expected random value: each worker's mean over tasks (valid in
		// expectation for a uniform random permutation).
		randomMean := 0.0
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				rowSum += value[i][j]
			}
			randomMean += rowSum / float64(n)
		}
		res.Rows = append(res.Rows, ScaleRow{
			Servers:        n,
			LPTime:         lpTime,
			HungarianTime:  huTime,
			Optimal:        huVal,
			RandomMean:     randomMean,
			RandomLossFrac: 1 - randomMean/huVal,
		})
	}
	return res, nil
}

// Table renders the result.
func (r AblationScaleResult) Table() Table {
	t := Table{
		Title:   "Ablation: placement at cluster scale (replicated 4×4 matrix)",
		Caption: "Exact solvers stay cheap far beyond the paper's 4-server testbed; random placement's expected loss persists at scale.",
		Header:  []string{"servers", "Hungarian time", "LP time", "optimal value", "random mean", "random loss"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Servers), row.HungarianTime.String(), row.LPTime.String(),
			f1(row.Optimal), f1(row.RandomMean), pct(row.RandomLossFrac),
		})
	}
	return t
}
