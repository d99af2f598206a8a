// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated platform. Each experiment is a
// method on Suite returning a typed result that renders as a text table;
// cmd/pocolo-experiments prints them all, and the benchmark harness at the
// repository root exposes one testing.B target per artifact.
package experiments

import (
	"fmt"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/memo"
	"pocolo/internal/parallel"
)

// Suite regenerates the paper's tables and figures over one Setup: the
// Table I platform, the eight calibrated applications and their fitted
// utility models. &Suite{Setup: s} is ready for use.
//
// With Trace set, the experiments that run cluster simulations record
// them: fig12, fig13 and fig15 (the policy runs), fig14 (its placement
// solve and pair sweeps), ablation-slack, ablation-myopic,
// ablation-profiling (its placement solve), ablation-budget and
// sensitivity-seeds (its seeds' policy runs). Every experiment call keys
// its runs under its own label, with a suffix per run where one call
// runs the same hosts more than once: ablation-slack/slack0.05/,
// ablation-myopic/whole/, ablation-budget/<policy>/. The policy runs that
// fig12, fig13 and fig15 share run once per Suite, under random/, pom/
// and pocolo/; sensitivity-seeds keys each seed's policy runs under
// sensitivity-seeds/seed<N>/. Repeated or combined experiments on one set
// therefore merge into one valid timeline.
type Suite struct {
	Setup

	// policyRuns holds the Suite's policy runs, one per policy. They stay
	// correct per budget: a Suite holds one Budget.
	policyRuns memo.Cache[cluster.Policy, *cluster.Result]
	// traceLabel prefixes every trace label the Suite takes; a
	// sensitivity-seeds sub-suite keys its runs under its seed's label.
	traceLabel string
}

// NewSuite profiles and fits all eight applications on the Table I server
// and returns a ready experiment suite.
func NewSuite(seed int64) (*Suite, error) {
	setup, err := NewSetup(machine.XeonE52650(), seed)
	if err != nil {
		return nil, err
	}
	return &Suite{Setup: setup}, nil
}

// label resolves the trace label of one cluster run of the given kind,
// unique to the call.
func (s *Suite) label(kind string) string {
	return s.Trace.Label(s.traceLabel + kind)
}

// policyRun runs (and memoizes) the cluster evaluation for one policy;
// Figs. 12, 13, and 15 share these runs. Safe for concurrent use: the
// figure methods prefetch all three policies through the worker pool.
func (s *Suite) policyRun(p cluster.Policy) (*cluster.Result, error) {
	r, _, err := s.policyRuns.Get(p, func() (*cluster.Result, error) {
		r, err := cluster.Run(s.ClusterConfig(s.label(p.String())), p)
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
