// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated platform. Each experiment is a
// method on Suite returning a typed result that renders as a text table;
// cmd/pocolo-experiments prints them all, and the benchmark harness at the
// repository root exposes one testing.B target per artifact.
package experiments

import (
	"fmt"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/memo"
	"pocolo/internal/parallel"
	"pocolo/internal/profiler"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Suite carries the shared experimental setup: the Table I platform, the
// eight calibrated applications, and their fitted utility models.
type Suite struct {
	Machine machine.Config
	Catalog *workload.Catalog
	Models  map[string]*utility.Model
	Seed    int64
	// Dwell is the simulated time per load level in cluster runs (default
	// 5 s; experiments sweep nine levels).
	Dwell time.Duration
	// Parallel bounds the worker pool every experiment fans its
	// independent simulation units through (0 = GOMAXPROCS, 1 =
	// sequential). Results are identical at every setting.
	Parallel int
	// Invariants runs every underlying cluster simulation with the
	// invariant harness bound to its per-tick observe path; a violation
	// fails the experiment instead of producing a silently wrong table.
	Invariants bool
	// Trace, when non-nil, collects decision-trace events from the
	// experiments that run cluster simulations (and disables the sweep
	// memo for them, so the timeline is complete): fig12, fig13 and fig15
	// (the policy runs), fig14 (its placement solve and pair sweeps),
	// ablation-slack, ablation-myopic, ablation-profiling (its placement
	// solve), ablation-budget and sensitivity-seeds (its seeds' policy
	// runs). Every experiment call keys its runs under a label unique to
	// the call, Trace.Label(kind) — <kind>/ the first time, then
	// <kind>#2/, … — with a suffix per run where one call runs the same
	// hosts more than once: ablation-slack/slack0.05/,
	// ablation-myopic/whole/, ablation-budget/<policy>/. The policy runs
	// that fig12, fig13 and fig15 share run once per Suite, under
	// random/, pom/ and pocolo/; sensitivity-seeds keys each seed's
	// policy runs under sensitivity-seeds/seed<N>/. Repeated or combined
	// experiments on one set therefore merge into one valid timeline.
	Trace *trace.Set
	// Budget, when non-nil, puts every cluster run under a power budget —
	// flat or hierarchical (see cluster.BudgetConfig). Budgeted runs
	// share one engine across all hosts and bypass the sweep memo, so
	// the per-policy memoized results also stay per-budget correct: the
	// policyRuns cache is keyed inside one Suite, which holds one budget.
	Budget *cluster.BudgetConfig

	// policyRuns holds the Suite's policy runs, one per policy.
	policyRuns *memo.Cache[cluster.Policy, *cluster.Result]
	// traceLabel prefixes every trace label the Suite takes; a
	// sensitivity-seeds sub-suite keys its runs under its seed's label.
	traceLabel string
}

// NewSuite profiles and fits all eight applications on the Table I server
// and returns a ready experiment suite.
func NewSuite(seed int64) (*Suite, error) {
	cfg := machine.XeonE52650()
	cat, err := workload.Defaults(cfg)
	if err != nil {
		return nil, err
	}
	models, err := profiler.FitAll(cfg, append(cat.LC(), cat.BE()...), seed)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Machine:    cfg,
		Catalog:    cat,
		Models:     models,
		Seed:       seed,
		Dwell:      5 * time.Second,
		policyRuns: memo.New[cluster.Policy, *cluster.Result](3),
	}, nil
}

// clusterConfig assembles one cluster run of the given kind, traced under
// a label unique to the call.
func (s *Suite) clusterConfig(kind string) cluster.Config {
	return cluster.Config{
		Machine:    s.Machine,
		LC:         s.Catalog.LC(),
		BE:         s.Catalog.BE(),
		Models:     s.Models,
		Dwell:      s.Dwell,
		Seed:       s.Seed,
		Parallel:   s.Parallel,
		Invariants: s.Invariants,
		Trace:      s.Trace,
		TraceLabel: s.Trace.Label(s.traceLabel + kind),
		Budget:     s.Budget,
	}
}

// policyRun runs (and memoizes) the cluster evaluation for one policy;
// Figs. 12, 13, and 15 share these runs. Safe for concurrent use: the
// figure methods prefetch all three policies through the worker pool.
func (s *Suite) policyRun(p cluster.Policy) (*cluster.Result, error) {
	r, _, err := s.policyRuns.Get(p, func() (*cluster.Result, error) {
		r, err := cluster.Run(s.clusterConfig(p.String()), p)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v cluster run: %w", p, err)
		}
		return &r, nil
	})
	return r, err
}

// prefetchPolicies fans the (independent) policy cluster runs through the
// worker pool so a figure needing several pays the wall-clock of the
// slowest, not the sum. Memoized runs are skipped.
func (s *Suite) prefetchPolicies(ps ...cluster.Policy) error {
	return parallel.ForEach(len(ps), s.Parallel, func(i int) error {
		_, err := s.policyRun(ps[i])
		return err
	})
}

func (s *Suite) spec(name string) (*workload.Spec, error) {
	return s.Catalog.ByName(name)
}

func (s *Suite) model(name string) (*utility.Model, error) {
	m, ok := s.Models[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no fitted model for %s", name)
	}
	return m, nil
}
