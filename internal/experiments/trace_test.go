package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/trace"
)

// recordingExperiments are the experiments that trace their cluster runs,
// keyed by their pocolo-experiments names.
var recordingExperiments = []struct {
	name string
	run  func(*Suite) (any, error)
}{
	{"fig12", func(s *Suite) (any, error) { return s.Fig12() }},
	{"fig13", func(s *Suite) (any, error) { return s.Fig13() }},
	{"fig14", func(s *Suite) (any, error) { return s.Fig14() }},
	{"fig15", func(s *Suite) (any, error) { return s.Fig15() }},
	{"ablation-slack", func(s *Suite) (any, error) { return s.AblationSlack() }},
	{"ablation-myopic", func(s *Suite) (any, error) { return s.AblationMyopic() }},
	{"ablation-profiling", func(s *Suite) (any, error) { return s.AblationProfiling() }},
	{"ablation-budget", func(s *Suite) (any, error) { return s.AblationBudget() }},
	{"sensitivity-seeds", func(s *Suite) (any, error) { return s.SeedSensitivity(42, 1042) }},
}

// tracedSuite returns a Suite over a copy of base's setup with policy runs
// of its own, checking invariants and tracing into a fresh set.
func tracedSuite(base *Suite) *Suite {
	setup := base.Setup
	setup.Invariants, setup.Trace = true, trace.NewSet(0)
	return &Suite{Setup: setup}
}

// TestTracedExperimentsValidate: every recording experiment traced alone,
// all of them traced together, and one traced twice each merge into one
// valid timeline on their Suite's set, and return what an untraced run
// returns.
func TestTracedExperimentsValidate(t *testing.T) {
	base := sharedSuite(t)
	run := make(map[string]func(*Suite) (any, error))
	want := make(map[string]any)
	var all []string
	for _, e := range recordingExperiments {
		got, err := e.run(base)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		run[e.name], want[e.name] = e.run, got
		all = append(all, e.name)
	}
	cases := map[string][]string{"all": all, "fig14 twice": {"fig14", "fig14"}}
	for _, name := range all {
		cases[name] = []string{name}
	}
	for label, names := range cases {
		s := tracedSuite(base)
		for _, name := range names {
			got, err := run[name](s)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, name, err)
			}
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("%s: traced %s returned\n %+v\nuntraced\n %+v", label, name, got, want[name])
			}
		}
		events := s.Trace.Events()
		if len(events) == 0 {
			t.Errorf("%s: recorded no events", label)
		}
		if err := trace.Validate(events); err != nil {
			t.Errorf("%s: timeline fails validation: %v", label, err)
		}
	}
}

// TestSeedSensitivityTraced: sensitivity-seeds records each seed's policy
// runs under sensitivity-seeds/seed<N>/<policy>/.
func TestSeedSensitivityTraced(t *testing.T) {
	s := tracedSuite(sharedSuite(t))
	if _, err := s.SeedSensitivity(42, 1042); err != nil {
		t.Fatal(err)
	}
	byPrefix := make(map[string]int)
	for _, ev := range s.Trace.Events() {
		parts := strings.SplitN(ev.Host, "/", 4)
		if len(parts) < 4 {
			t.Fatalf("event on %q outside a seed's policy run", ev.Host)
		}
		byPrefix[strings.Join(parts[:3], "/")]++
	}
	for _, seed := range []int64{42, 1042} {
		for _, p := range []cluster.Policy{cluster.Random, cluster.POM, cluster.POColo} {
			prefix := fmt.Sprintf("sensitivity-seeds/seed%d/%s", seed, p)
			if byPrefix[prefix] == 0 {
				t.Errorf("no events under %s/ (events by run %v)", prefix, byPrefix)
			}
		}
	}
	if len(byPrefix) != 6 {
		t.Errorf("events under %d runs %v, want 6", len(byPrefix), byPrefix)
	}
}

// TestSeedSuiteCarriesSettings: a sensitivity-seeds sub-suite runs on a
// copy of the suite's setup. On an 8-core suite, every default seed's
// sub-suite keeps the suite's machine, catalog, invariants, trace and
// budget, refits the seed's models on that machine as NewSetup does, and
// keys its runs under its seed's label.
func TestSeedSuiteCarriesSettings(t *testing.T) {
	small := machine.XeonE52650()
	small.Cores = 8
	setup, err := NewSetup(small, 5)
	if err != nil {
		t.Fatal(err)
	}
	setup.Invariants, setup.Trace = true, trace.NewSet(0)
	setup.Budget = &cluster.BudgetConfig{TotalW: 500, Policy: budget.DemandProportional}
	s := &Suite{Setup: setup}
	for _, seed := range []int64{s.Seed, s.Seed + 1000, s.Seed + 2000} {
		sub, err := s.seedSuite(seed, "sensitivity-seeds/")
		if err != nil {
			t.Fatal(err)
		}
		cfg := sub.ClusterConfig(sub.label("random"))
		if cfg.Machine != small || sub.Catalog != s.Catalog {
			t.Errorf("seed %d: sub-suite on %d cores with catalog %p, want %d cores and %p",
				seed, cfg.Machine.Cores, sub.Catalog, small.Cores, s.Catalog)
		}
		if !cfg.Invariants || cfg.Trace != s.Trace || cfg.Budget != s.Budget {
			t.Errorf("seed %d: sub-suite config has Invariants=%t Trace=%p Budget=%p, want true, %p, %p",
				seed, cfg.Invariants, cfg.Trace, cfg.Budget, s.Trace, s.Budget)
		}
		if want := fmt.Sprintf("sensitivity-seeds/seed%d/random/", seed); cfg.TraceLabel != want {
			t.Errorf("seed %d: sub-suite trace label %q, want %q", seed, cfg.TraceLabel, want)
		}
		if cfg.Seed != seed || cfg.Dwell != 3*time.Second {
			t.Errorf("seed %d: sub-suite seed %d and dwell %v, want %d and 3s", seed, cfg.Seed, cfg.Dwell, seed)
		}
		fit, err := NewSetup(small, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg.Models, fit.Models) {
			t.Errorf("seed %d: sub-suite models differ from an 8-core fit under the seed", seed)
		}
	}
}
