// Package cluster implements the paper's cluster manager (Section IV-B):
// it builds the BE×LC performance matrix from fitted Cobb-Douglas utility
// models and solves the placement assignment to maximize total cluster
// throughput, then drives the multi-server simulation under the three
// evaluated policies — Random, POM (power-optimized server management with
// random placement), and POColo (power-optimized management plus
// utility-guided placement).
package cluster

import (
	"errors"
	"fmt"
	"math"

	"pocolo/internal/assign"
	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// DefaultLoadRange is the paper's evaluation load distribution: uniform
// over 10%–90% of the LC application's peak in steps of 10%.
func DefaultLoadRange() []float64 {
	out := make([]float64, 0, 9)
	for l := 1; l <= 9; l++ {
		out = append(out, float64(l)/10)
	}
	return out
}

// Matrix is the cluster manager's performance matrix: Value[i][j] is the
// estimated throughput of BE application i when co-located with LC server
// j, averaged over the LC load range.
type Matrix struct {
	BENames []string
	LCNames []string
	Value   [][]float64
}

// MatrixConfig parameterizes matrix construction.
type MatrixConfig struct {
	// Machine is the server platform.
	Machine machine.Config
	// LC holds the latency-critical specs (one server per spec); required.
	LC []*workload.Spec
	// BE holds the best-effort candidates; required.
	BE []*workload.Spec
	// Models maps application name to its fitted utility model; required
	// for every listed app.
	Models map[string]*utility.Model
	// Loads is the LC load range to average over (default DefaultLoadRange).
	Loads []float64
	// Parallel bounds the worker pool the BE×LC cells are estimated
	// through: 0 means GOMAXPROCS, 1 forces the sequential path. Cells are
	// independent pure functions of the models, so the matrix is identical
	// at every setting.
	Parallel int
	// Trace, when non-nil, records a build_matrix phase span, stamped at
	// the simulation epoch: construction happens before simulated time
	// starts.
	Trace *trace.Tracer
	// Obs, when non-nil, receives per-pod solve latency and batch-repair
	// counters from the sharded assignment path. Series are keyed by pod
	// name, so a rebuilt Sharded folds into the series of the one it
	// replaces.
	Obs *obs.Registry
}

// BuildMatrix estimates the performance matrix from the fitted models:
// for each LC load it computes the primary's least-power allocation, the
// complementary spare resources, and the power headroom under the
// provisioned capacity; the BE app's throughput at that operating point is
// its power-budget-constrained Cobb-Douglas demand on the spare resources.
func BuildMatrix(cfg MatrixConfig) (*Matrix, error) {
	sp := cfg.Trace.StartSpan("build_matrix")
	defer sp.End(simEpoch())
	if len(cfg.BE) == 0 {
		return nil, errors.New("cluster: need at least one LC and one BE application")
	}
	// Construction goes through the delta-driven builder: cells with
	// identical (machine, model, host-class) fingerprints are evaluated
	// once and fanned out — bit-identical to evaluating every cell, since
	// cells are pure functions of the fingerprinted inputs — and distinct
	// cells fan through the bounded worker pool with the lowest-index
	// error reported, matching the sequential row-major loop's first
	// error.
	b, err := NewMatrixBuilder(cfg)
	if err != nil {
		return nil, err
	}
	return b.Matrix(), nil
}

// estimatePairThroughput averages the model-estimated BE throughput over
// the LC load range for one (LC, BE) pairing.
func estimatePairThroughput(cfg machine.Config, lc *workload.Spec, lcModel, beModel *utility.Model, loads []float64) (float64, error) {
	total := 0.0
	bounds := []float64{float64(cfg.Cores), float64(cfg.LLCWays)}
	for _, frac := range loads {
		target := frac * lc.PeakLoad
		r, err := lcModel.MinPowerAllocBox(target, bounds)
		if err != nil {
			// Load unreachable even with the whole machine: the primary
			// takes everything and the co-runner gets nothing at this
			// level.
			continue
		}
		// Integerize conservatively and clamp to the machine.
		lcCores := clampInt(int(math.Ceil(r[0])), 1, cfg.Cores)
		lcWays := clampInt(int(math.Ceil(r[1])), 1, cfg.LLCWays)
		spare := []float64{
			float64(cfg.Cores - lcCores),
			float64(cfg.LLCWays - lcWays),
		}
		// Power headroom under the provisioned capacity: the cap minus the
		// idle floor minus the primary's (model-estimated) dynamic draw.
		headroom := lc.ProvisionedPowerW - cfg.IdlePowerW - lcModel.DynamicPower([]float64{float64(lcCores), float64(lcWays)})
		if headroom <= 0 || spare[0] <= 0 || spare[1] <= 0 {
			continue // nothing to harvest at this load
		}
		demand, err := beModel.DemandCapped(headroom, spare)
		if err != nil {
			return 0, err
		}
		total += beModel.Perf(demand)
	}
	return total / float64(len(loads)), nil
}

// Solve finds the placement maximizing the matrix total with the given
// solver ("lp", "hungarian", or "exhaustive"). It returns the mapping from
// BE name to LC name and the predicted total.
func (mx *Matrix) Solve(method string) (map[string]string, float64, error) {
	return mx.SolveTraced(method, nil)
}

// SolveTraced is Solve with decision tracing: a solve phase span and one
// SolveSummary event are recorded at the simulation epoch, as the build
// is. A nil tracer makes it identical to Solve.
func (mx *Matrix) SolveTraced(method string, tr *trace.Tracer) (map[string]string, float64, error) {
	now := simEpoch()
	sp := tr.StartSpan("solve")
	var (
		idx []int
		val float64
		err error
	)
	switch method {
	case "lp":
		idx, val, err = assign.LP(mx.Value)
	case "hungarian":
		idx, val, err = assign.Hungarian(mx.Value)
	case "exhaustive":
		idx, val, err = assign.Exhaustive(mx.Value)
	default:
		return nil, 0, fmt.Errorf("cluster: unknown solver %q", method)
	}
	if err != nil {
		return nil, 0, err
	}
	// Validate the solver's output at the call site: the assignment must be
	// a matching inside the matrix and the reported total must equal the
	// recomputed sum, so a solver regression cannot leak a bogus placement
	// into an experiment table.
	if err := invariant.CheckAssignment(mx.Value, idx, val); err != nil {
		return nil, 0, fmt.Errorf("cluster: solver %q: %w", method, err)
	}
	placement := make(map[string]string, len(idx))
	for i, j := range idx {
		placement[mx.BENames[i]] = mx.LCNames[j]
	}
	tr.SolveSummary(now, trace.SolveSummary{
		Method: method, Rows: len(mx.BENames), Cols: len(mx.LCNames), Total: val,
	})
	sp.End(now)
	return placement, val, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
