package experiments

import (
	"maps"
	"reflect"
	"testing"
	"time"
)

// TestLiteralSuite: a Suite built as a literal over a setup needs no
// constructor. Its Fig. 12, 13 and 15 equal NewSuite's, and the three
// figures share one run per policy.
func TestLiteralSuite(t *testing.T) {
	base := sharedSuite(t)
	s := &Suite{Setup: base.Setup}
	figures := []struct {
		name string
		run  func(*Suite) (any, error)
	}{
		{"fig12", func(s *Suite) (any, error) { return s.Fig12() }},
		{"fig13", func(s *Suite) (any, error) { return s.Fig13() }},
		{"fig15", func(s *Suite) (any, error) { return s.Fig15() }},
	}
	for _, f := range figures {
		want, err := f.run(base)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got, err := f.run(s)
		if err != nil {
			t.Fatalf("literal %s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("literal %s returned\n %+v\nNewSuite's\n %+v", f.name, got, want)
		}
	}
	if entries, hits, misses := s.policyRuns.Stats(); entries != 3 || misses != 3 || hits != 15 {
		t.Errorf("policy runs: %d entries, %d hits, %d misses; want 3, 15, 3", entries, hits, misses)
	}
}

// TestSetupFromModels: a setup built from saved models keeps them and
// fails when one is missing or invalid.
func TestSetupFromModels(t *testing.T) {
	base := sharedSuite(t)
	s, err := SetupFromModels(base.Machine, base.Models, 9)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(s.Models).Pointer() != reflect.ValueOf(base.Models).Pointer() || s.Seed != 9 || s.Dwell != 5*time.Second {
		t.Errorf("setup from models: seed %d, dwell %v, models %p; want 9, 5s, %p", s.Seed, s.Dwell, s.Models, base.Models)
	}
	missing := maps.Clone(base.Models)
	delete(missing, "xapian")
	if _, err := SetupFromModels(base.Machine, missing, 9); err == nil {
		t.Error("models without xapian accepted")
	}
	broken := *base.Models["xapian"]
	broken.Alpha = nil
	invalid := maps.Clone(base.Models)
	invalid["xapian"] = &broken
	if _, err := SetupFromModels(base.Machine, invalid, 9); err == nil {
		t.Error("an invalid xapian model accepted")
	}
}

// TestSetupMatrixConfig: the setup's one matrix mapping carries its
// platform, catalog, models and worker bound, so -parallel reaches every
// matrix build.
func TestSetupMatrixConfig(t *testing.T) {
	s := sharedSuite(t).Setup
	s.Parallel = 1
	cfg := s.MatrixConfig()
	if cfg.Parallel != 1 || cfg.Machine != s.Machine || len(cfg.LC) != len(s.Catalog.LC()) ||
		len(cfg.BE) != len(s.Catalog.BE()) || reflect.ValueOf(cfg.Models).Pointer() != reflect.ValueOf(s.Models).Pointer() {
		t.Errorf("matrix config %+v does not carry the setup (parallel %d)", cfg, s.Parallel)
	}
	for i, lc := range s.Catalog.LC() {
		if cfg.LC[i] != lc {
			t.Errorf("LC %d is %s, want %s", i, cfg.LC[i].Name, lc.Name)
		}
	}
}
