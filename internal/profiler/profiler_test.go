package profiler

import (
	"math"
	"testing"

	"pocolo/internal/machine"
	"pocolo/internal/workload"
)

func TestRunValidation(t *testing.T) {
	cat := workload.MustDefaults()
	spec, _ := cat.ByName("xapian")
	cfg := machine.XeonE52650()
	if _, err := Run(Config{Machine: cfg}); err == nil {
		t.Error("expected error for nil spec")
	}
	if _, err := Run(Config{Spec: spec}); err == nil {
		t.Error("expected error for invalid machine")
	}
	if _, err := Run(Config{Spec: spec, Machine: cfg, CoreStep: -1}); err == nil {
		t.Error("expected error for negative stride")
	}
}

func TestRunSweepsFullGrid(t *testing.T) {
	cat := workload.MustDefaults()
	spec, _ := cat.ByName("lstm")
	cfg := machine.XeonE52650()
	p, err := Run(Config{Spec: spec, Machine: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Swept != cfg.Cores*cfg.LLCWays {
		t.Errorf("Swept = %d, want %d", p.Swept, cfg.Cores*cfg.LLCWays)
	}
	// BE apps keep essentially every sample.
	if p.Kept < p.Swept*9/10 {
		t.Errorf("Kept = %d of %d", p.Kept, p.Swept)
	}
	if p.App != "lstm" || len(p.Resources) != 2 {
		t.Errorf("profile header: %+v", p)
	}
}

func TestRunStride(t *testing.T) {
	cat := workload.MustDefaults()
	spec, _ := cat.ByName("rnn")
	cfg := machine.XeonE52650()
	p, err := Run(Config{Spec: spec, Machine: cfg, CoreStep: 2, WayStep: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * 5 // cores 1,3,5,7,9,11; ways 1,5,9,13,17
	if p.Swept != want {
		t.Errorf("Swept = %d, want %d", p.Swept, want)
	}
}

func TestFittedModelsMatchGroundTruth(t *testing.T) {
	cat := workload.MustDefaults()
	cfg := machine.XeonE52650()
	for _, name := range []string{"xapian", "sphinx", "lstm", "graph"} {
		spec, _ := cat.ByName(name)
		m, err := ProfileAndFit(Config{Spec: spec, Machine: cfg, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Fig. 8: R² between 0.8 and 1 for both fits.
		if m.PerfR2 < 0.8 || m.PerfR2 > 1 {
			t.Errorf("%s: perf R² = %v outside the paper's band", name, m.PerfR2)
		}
		if m.PowerR2 < 0.8 || m.PowerR2 > 1 {
			t.Errorf("%s: power R² = %v outside the paper's band", name, m.PowerR2)
		}
		// The fitted indirect preference must land near the ground truth
		// (which was calibrated to the paper's published vectors).
		wantC, _ := spec.PreferenceTruth()
		pref := m.Preference()
		if math.Abs(pref[0]-wantC) > 0.08 {
			t.Errorf("%s: fitted cores preference %v, ground truth %v", name, pref[0], wantC)
		}
		// The fitted direct preference similarly tracks the exponents.
		wantDirect, _ := spec.DirectPreferenceTruth()
		direct := m.DirectPreference()
		if math.Abs(direct[0]-wantDirect) > 0.08 {
			t.Errorf("%s: fitted direct preference %v, ground truth %v", name, direct[0], wantDirect)
		}
	}
}

func TestLCSlackFilterDropsInfeasiblePoints(t *testing.T) {
	// An LC sample is measured at the highest load that keeps SlackGuard
	// slack; an allocation with no such load is dropped, not recorded
	// with zero perf.
	cat := workload.MustDefaults()
	spec, _ := cat.ByName("xapian")
	cfg := machine.XeonE52650()
	p, err := Run(Config{Spec: spec, Machine: cfg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for c := 1; c <= cfg.Cores; c++ {
		for w := 1; w <= cfg.LLCWays; w++ {
			a := machine.Alloc{Cores: c, Ways: w, FreqGHz: cfg.MaxFreqGHz, Duty: 1}
			if spec.MaxLoadWithSlack(a, SlackGuard) > 0 {
				feasible++
			}
		}
	}
	if p.Kept != feasible || len(p.Samples) != feasible {
		t.Errorf("kept %d samples (%d recorded), want the %d allocations that hold the guard", p.Kept, len(p.Samples), feasible)
	}
	// Over the grid the measurement noise averages out: the samples sit
	// at the guarded load, below the load that exhausts all the slack.
	var guarded, unguarded float64
	for _, s := range p.Samples {
		if s.Perf <= 0 {
			t.Fatalf("kept sample %v with perf %v", s.Alloc, s.Perf)
		}
		a := machine.Alloc{Cores: int(s.Alloc[0]), Ways: int(s.Alloc[1]), FreqGHz: cfg.MaxFreqGHz, Duty: 1}
		guarded += s.Perf / spec.MaxLoadWithSlack(a, SlackGuard)
		unguarded += s.Perf / spec.MaxLoadWithSlack(a, 0)
	}
	n := float64(len(p.Samples))
	if r := guarded / n; math.Abs(r-1) > 0.01 {
		t.Errorf("mean perf / guarded max load = %v, want ≈1", r)
	}
	if r := unguarded / n; r > 0.99 {
		t.Errorf("mean perf / unguarded max load = %v, want the guard to measure lower", r)
	}
}

func TestRunDeterminism(t *testing.T) {
	cat := workload.MustDefaults()
	spec, _ := cat.ByName("pbzip")
	cfg := machine.XeonE52650()
	a, err := Run(Config{Spec: spec, Machine: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Spec: spec, Machine: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("different sample counts")
	}
	for i := range a.Samples {
		if a.Samples[i].Perf != b.Samples[i].Perf || a.Samples[i].Power != b.Samples[i].Power {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestFitAll(t *testing.T) {
	cat := workload.MustDefaults()
	cfg := machine.XeonE52650()
	all := append(cat.LC(), cat.BE()...)
	models, err := FitAll(cfg, all, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 8 {
		t.Fatalf("got %d models", len(models))
	}
	for name, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Preference ordering from the paper: graph is the most core-loving,
	// lstm the most cache-loving.
	if models["graph"].Preference()[0] <= models["lstm"].Preference()[0] {
		t.Error("graph should prefer cores more than lstm")
	}
	if models["sphinx"].Preference()[0] >= models["img-dnn"].Preference()[0] {
		t.Error("sphinx should prefer cores less than img-dnn")
	}
}
