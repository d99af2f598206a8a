package experiments

import (
	"errors"
	"fmt"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Setup is the one simulation setup of the paper's evaluation: a
// platform, its calibrated applications and their fitted utility models,
// and the settings every cluster run takes. Suite and pocolo.System embed
// it, so both run on the same setup and map it onto cluster runs the same
// way.
type Setup struct {
	Machine machine.Config
	Catalog *workload.Catalog
	Models  map[string]*utility.Model
	Seed    int64
	// Dwell is the simulated time per load level in cluster runs (default
	// 5 s; a load sweep holds nine levels).
	Dwell time.Duration
	// Parallel bounds the worker pool that runs fan their independent
	// hosts, trials and load levels through (0 = GOMAXPROCS, 1 =
	// sequential). Results are identical at every setting.
	Parallel int
	// Invariants runs every cluster simulation under the invariant harness
	// (internal/invariant): cross-layer invariants are checked on every
	// tick and any violation fails the run. Checking does not change
	// results, only adds per-tick assertions.
	Invariants bool
	// Trace, when non-nil, collects decision-trace events (control
	// decisions, capper actions, placements, solves, budget shifts,
	// tick-phase spans) from the runs; see internal/trace. Traced runs
	// bypass the process-wide sweep memo so the timeline is complete.
	// Every call keys its timelines under a label unique to the call,
	// Trace.Label(kind) — <kind>/ on the set's first call of that kind,
	// then <kind>#2/, <kind>#3/, … — so repeated calls merge into one
	// valid timeline. Under the label, each host records on its own name,
	// a placement solve on "cluster" and the budget divider on "budget".
	Trace *trace.Set
	// Budget, when non-nil, puts every cluster run under a power budget —
	// flat (TotalW + Policy) or hierarchical (a budget-tree spec whose
	// leaves name the LC servers). Budgeted runs step all hosts on one
	// shared engine and bypass the sweep memo.
	Budget *cluster.BudgetConfig
}

// NewSetup profiles and fits every application of the platform's default
// catalog under seed, with a 5 s dwell.
func NewSetup(cfg machine.Config, seed int64) (Setup, error) {
	cat, err := workload.Defaults(cfg)
	if err != nil {
		return Setup{}, err
	}
	s := Setup{Machine: cfg, Catalog: cat, Seed: seed, Dwell: 5 * time.Second}
	if err := s.fit(); err != nil {
		return Setup{}, err
	}
	return s, nil
}

// SetupFromModels builds a setup over the platform's default catalog from
// previously fitted models instead of profiling, with a 5 s dwell. The
// models must cover every application of the catalog, and each must
// validate.
func SetupFromModels(cfg machine.Config, models map[string]*utility.Model, seed int64) (Setup, error) {
	cat, err := workload.Defaults(cfg)
	if err != nil {
		return Setup{}, err
	}
	for _, spec := range append(cat.LC(), cat.BE()...) {
		m, ok := models[spec.Name]
		if !ok {
			return Setup{}, errors.New("experiments: models missing " + spec.Name)
		}
		if err := m.Validate(); err != nil {
			return Setup{}, err
		}
	}
	return Setup{Machine: cfg, Catalog: cat, Models: models, Seed: seed, Dwell: 5 * time.Second}, nil
}

// fit profiles every application of the catalog on the machine under the
// setup's seed and replaces Models with the fits.
func (s *Setup) fit() error {
	models, err := profiler.FitAll(s.Machine, append(s.Catalog.LC(), s.Catalog.BE()...), s.Seed)
	if err != nil {
		return err
	}
	s.Models = models
	return nil
}

// ClusterConfig maps the setup onto one cluster run traced under label, a
// key prefix the caller has already resolved with Trace.Label.
func (s *Setup) ClusterConfig(label string) cluster.Config {
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
		TraceLabel: label,
		Budget:     s.Budget,
	}
}

// MatrixConfig maps the setup onto one performance-matrix build over the
// catalog's LC and BE applications, with the setup's worker bound.
func (s *Setup) MatrixConfig() cluster.MatrixConfig {
	return cluster.MatrixConfig{
		Machine:  s.Machine,
		LC:       s.Catalog.LC(),
		BE:       s.Catalog.BE(),
		Models:   s.Models,
		Parallel: s.Parallel,
	}
}

// Model returns the fitted utility model for an application.
func (s *Setup) Model(name string) (*utility.Model, error) {
	m, ok := s.Models[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no fitted model for %s", name)
	}
	return m, nil
}
