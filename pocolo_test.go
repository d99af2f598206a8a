package pocolo

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(42)
	if err != nil {
		t.Fatal(err)
	}
	sys.Dwell = 2 * time.Second
	return sys
}

func TestNewSystem(t *testing.T) {
	sys := newTestSystem(t)
	if len(sys.Models) != 8 {
		t.Fatalf("models = %d", len(sys.Models))
	}
	if sys.Machine.Cores != 12 {
		t.Errorf("machine = %+v", sys.Machine)
	}
	if _, err := sys.Model("xapian"); err != nil {
		t.Errorf("Model(xapian): %v", err)
	}
	if _, err := sys.Model("nope"); err == nil {
		t.Error("Model(nope): expected error")
	}
}

func TestNewSystemOnBadConfig(t *testing.T) {
	if _, err := NewSystemOn(MachineConfig{}, 1); err == nil {
		t.Error("expected error for invalid platform")
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	sys := newTestSystem(t)
	mx, err := sys.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.Value) != 4 {
		t.Fatalf("matrix rows = %d", len(mx.Value))
	}
	placement, predicted, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	if predicted <= 0 || len(placement) != 4 {
		t.Fatalf("placement = %v (%v)", placement, predicted)
	}
	res, err := sys.RunPlacement(placement, PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.BENormThroughput <= 0 {
		t.Errorf("throughput = %v", res.BENormThroughput)
	}
	if res.SLOViolFrac > 0.15 {
		t.Errorf("SLO violations = %v", res.SLOViolFrac)
	}
}

func TestPublicPolicyRun(t *testing.T) {
	sys := newTestSystem(t)
	res, err := sys.Run(POColo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != POColo {
		t.Errorf("policy = %v", res.Policy)
	}
	if len(res.Hosts) != 4 {
		t.Errorf("hosts = %d", len(res.Hosts))
	}
}

func TestPublicRunPair(t *testing.T) {
	sys := newTestSystem(t)
	pr, err := sys.RunPair("sphinx", "graph")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Mean <= 0 {
		t.Errorf("pair mean = %v", pr.Mean)
	}
	if _, err := sys.RunPair("nope", "graph"); err == nil {
		t.Error("expected error for unknown LC app")
	}
	if _, err := sys.RunPair("sphinx", "nope"); err == nil {
		t.Error("expected error for unknown BE app")
	}
}

func TestPublicProfileAndFit(t *testing.T) {
	cfg := XeonE52650()
	cat, err := DefaultWorkloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cat.ByName("lstm")
	if err != nil {
		t.Fatal(err)
	}
	model, err := Profile(spec, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if model.PerfR2 < 0.8 {
		t.Errorf("R² = %v", model.PerfR2)
	}
	// Direct fitting through the public surface.
	var samples []Sample
	for c := 1.0; c <= 8; c++ {
		for w := 2.0; w <= 16; w += 2 {
			samples = append(samples, Sample{
				Alloc: []float64{c, w},
				Perf:  10 * c * w,
				Power: 5 + 3*c + w,
			})
		}
	}
	m, err := FitModel("toy", []string{"cores", "ways"}, samples)
	if err != nil {
		t.Fatal(err)
	}
	pref := m.Preference()
	if len(pref) != 2 {
		t.Errorf("preference = %v", pref)
	}
}

func TestPublicExperimentsSuite(t *testing.T) {
	sys := newTestSystem(t)
	suite, err := sys.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if suite.Dwell != sys.Dwell {
		t.Error("suite should inherit the system's dwell")
	}
	r, err := suite.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Errorf("fig8 rows = %d", len(r.Rows))
	}
}

func TestPublicSimulateServer(t *testing.T) {
	sys := newTestSystem(t)
	// A 4-minute diurnal cycle: fast enough to exercise reclamation,
	// slow enough that the 100 ms capper can track the envelope.
	trace, err := DiurnalTrace(0.1, 0.9, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	host, m, err := sys.SimulateServer("xapian", "graph", trace, PowerOptimized, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if host == nil || m.DurationSec != 120 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.BEOps <= 0 {
		t.Error("co-runner made no progress")
	}
	if m.CapOverFrac > 0.10 {
		t.Errorf("over cap %v", m.CapOverFrac)
	}
	if _, _, err := sys.SimulateServer("nope", "", trace, PowerOptimized, time.Minute); err == nil {
		t.Error("expected error for unknown LC app")
	}
	if _, _, err := sys.SimulateServer("xapian", "nope", trace, PowerOptimized, time.Minute); err == nil {
		t.Error("expected error for unknown co-runner")
	}
}

func TestPublicRunBatch(t *testing.T) {
	sys := newTestSystem(t)
	trace, err := ConstantTrace(0.2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []BatchJob{
		{App: "graph", SizeOps: 200},
		{App: "rnn", SizeOps: 400},
	}
	res, err := sys.RunBatch("xapian", trace, SJF, 2*time.Second, jobs, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("batch incomplete: %v", res.Progress)
	}
	if len(res.Completions) != 2 {
		t.Fatalf("completions = %v", res.Completions)
	}
	// SJF finishes the smaller job first.
	if res.Completions[0].App != "graph" {
		t.Errorf("SJF order broken: %v", res.Completions)
	}
	if res.Makespan <= 0 || res.MeanFlowTime <= 0 {
		t.Error("batch metrics missing")
	}
	if res.Host.SLOViolFrac > 0.10 {
		t.Errorf("SLO violations %v", res.Host.SLOViolFrac)
	}
	// Validation paths.
	if _, err := sys.RunBatch("xapian", trace, FCFS, 0, nil, time.Minute); err == nil {
		t.Error("expected error for no jobs")
	}
	if _, err := sys.RunBatch("xapian", trace, FCFS, 0, jobs, 0); err == nil {
		t.Error("expected error for no simulation budget")
	}
	if _, err := sys.RunBatch("nope", trace, FCFS, 0, jobs, time.Minute); err == nil {
		t.Error("expected error for unknown LC app")
	}
	if _, err := sys.RunBatch("xapian", trace, FCFS, 0, []BatchJob{{App: "nope", SizeOps: 1}}, time.Minute); err == nil {
		t.Error("expected error for unknown job app")
	}
}

func TestPublicTraceConstructors(t *testing.T) {
	if _, err := TwoPeakTrace(0.1, 0.5, 0.9, time.Hour); err != nil {
		t.Error(err)
	}
	if _, err := FlashCrowdTrace(0.2, 0.9, time.Second, time.Second, time.Minute); err != nil {
		t.Error(err)
	}
	inner, _ := ConstantTrace(0.5)
	if _, err := NoisyTrace(inner, 0.05, time.Second, 1); err != nil {
		t.Error(err)
	}
	tr, err := ReplayTraceCSV("t", strings.NewReader("0,0.1\n60,0.9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != time.Minute {
		t.Errorf("Duration = %v", tr.Duration())
	}
	if _, err := StepTrace(0.2, 0.8, time.Second, time.Minute); err != nil {
		t.Error(err)
	}
	if got := UniformSweepTrace(time.Second).Duration(); got != 9*time.Second {
		t.Errorf("sweep duration = %v", got)
	}
	if _, err := HamiltonTCO().Monthly(TCOInput{Name: "x", ProvisionedWPerServer: 150, MeanPowerWPerServer: 100, RelativeThroughput: 1}); err != nil {
		t.Error(err)
	}
}

func TestPublicSimulateBudgetedCluster(t *testing.T) {
	sys := newTestSystem(t)
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}
	res, err := sys.SimulateBudgetedCluster(loads, nil, 0.85, DemandProportional, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 4 || len(res.Shares) != 4 {
		t.Fatalf("hosts/shares = %d/%d", len(res.Hosts), len(res.Shares))
	}
	var shareSum float64
	for name, s := range res.Shares {
		if s <= 50 {
			t.Errorf("%s: share %v below the idle floor", name, s)
		}
		shareSum += s
	}
	if shareSum > res.BudgetW+1e-6 {
		t.Errorf("shares %v exceed budget %v", shareSum, res.BudgetW)
	}
	if res.MeanClusterW > res.BudgetW*1.02 {
		t.Errorf("cluster draw %v above budget %v", res.MeanClusterW, res.BudgetW)
	}
	for name, m := range res.Hosts {
		if m.SLOViolFrac > 0.10 {
			t.Errorf("%s: SLO violations %v", name, m.SLOViolFrac)
		}
	}
	// Validation paths.
	if _, err := sys.SimulateBudgetedCluster(loads, nil, 0, DemandProportional, time.Minute); err == nil {
		t.Error("expected error for zero budget fraction")
	}
	if _, err := sys.SimulateBudgetedCluster(loads, nil, 0.85, EqualSplit, 0); err == nil {
		t.Error("expected error for zero duration")
	}
	if _, err := sys.SimulateBudgetedCluster(map[string]float64{"img-dnn": 0.5}, nil, 0.85, EqualSplit, time.Minute); err == nil {
		t.Error("expected error for missing loads")
	}
}

// TestPublicSimulateBudgetedClusterPlacement checks the placement
// inversion: two BE apps on one server and a BE app placed on a name that
// is not an LC server are errors, whichever the map yields first, and a
// partial placement runs each placed app on its server alone.
func TestPublicSimulateBudgetedClusterPlacement(t *testing.T) {
	sys := newTestSystem(t)
	loads := map[string]float64{"img-dnn": 0.8, "sphinx": 0.1, "xapian": 0.6, "tpcc": 0.3}
	for name, placement := range map[string]map[string]string{
		"two on one server": {"graph": "sphinx", "lstm": "sphinx"},
		"not an LC server":  {"graph": "sphinx", "lstm": "nowhere"},
	} {
		for i := 0; i < 8; i++ {
			if _, err := sys.SimulateBudgetedCluster(loads, placement, 0.85, EqualSplit, time.Second); err == nil {
				t.Fatalf("%s: placement %v accepted", name, placement)
			}
		}
	}
	res, err := sys.SimulateBudgetedCluster(loads, map[string]string{"graph": "sphinx"}, 0.85, EqualSplit, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range res.Hosts {
		if ran := m.BEOpsBy["graph"] > 0; ran != (name == "sphinx") || len(m.BEOpsBy) > 1 {
			t.Errorf("%s: co-runner work %v, want graph on sphinx only", name, m.BEOpsBy)
		}
	}
}

func TestPublicModelPersistence(t *testing.T) {
	sys := newTestSystem(t)
	var buf bytes.Buffer
	if err := SaveModels(&buf, sys.Models); err != nil {
		t.Fatal(err)
	}
	models, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSystemFromModels(XeonE52650(), models, sys.Seed)
	if err != nil {
		t.Fatal(err)
	}
	restored.Dwell = 2 * time.Second
	// The restored system makes the same placement decision.
	orig, _, err := sys.Place()
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := restored.Place()
	if err != nil {
		t.Fatal(err)
	}
	for be, lc := range orig {
		if loaded[be] != lc {
			t.Errorf("placement diverged after round-trip: %v vs %v", loaded, orig)
		}
	}
	// Missing models are rejected.
	delete(models, "xapian")
	if _, err := NewSystemFromModels(XeonE52650(), models, 1); err == nil {
		t.Error("expected error for missing model")
	}
}

func TestPublicSimulateAdaptiveServer(t *testing.T) {
	sys := newTestSystem(t)
	trace := UniformSweepTrace(5 * time.Second)
	res, err := sys.SimulateAdaptiveServer("xapian", "img-dnn", trace, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refits == 0 {
		t.Error("adapter never refit")
	}
	if res.Observations < 30 {
		t.Errorf("observations = %d", res.Observations)
	}
	truth := sys.Models["xapian"].Preference()[0]
	borrowed := sys.Models["img-dnn"].Preference()[0]
	got := res.FinalPreference[0]
	if d, b := got-truth, borrowed-truth; d*d >= b*b {
		t.Errorf("preference %v did not move toward truth %v from %v", got, truth, borrowed)
	}
	if res.Host.SLOViolFrac > 0.10 {
		t.Errorf("violations %v", res.Host.SLOViolFrac)
	}
	if _, err := sys.SimulateAdaptiveServer("nope", "img-dnn", trace, time.Minute); err == nil {
		t.Error("expected error for unknown LC app")
	}
	if _, err := sys.SimulateAdaptiveServer("xapian", "nope", trace, time.Minute); err == nil {
		t.Error("expected error for unknown donor model")
	}
}

func TestPublicCatalogIO(t *testing.T) {
	cfg := XeonE52650()
	cat, err := DefaultWorkloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportCatalog(&buf, cat); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Names()) != 8 {
		t.Errorf("loaded %d apps", len(loaded.Names()))
	}
}

func TestPublicRunReplicated(t *testing.T) {
	sys := newTestSystem(t)
	sys.Dwell = time.Second
	res, err := sys.RunReplicated(2, PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 8 {
		t.Fatalf("hosts = %d", len(res.Hosts))
	}
	if res.BENormThroughput <= 0 {
		t.Errorf("throughput = %v", res.BENormThroughput)
	}
	if _, err := sys.RunReplicated(0, PowerOptimized); err == nil {
		t.Error("expected error for zero replicas")
	}
}

func TestPublicRunHyperscale(t *testing.T) {
	sys := newTestSystem(t)
	res, err := sys.RunHyperscale(HyperscaleConfig{
		Fleet: FleetConfig{
			Hosts: 64,
			Jobs:  48,
			Shard: ShardSettings{PodSize: 16},
		},
		Rounds: 2,
		Churn:  0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 64 || res.Jobs != 48 || res.Pods != 4 {
		t.Fatalf("shape %d/%d/%d", res.Hosts, res.Jobs, res.Pods)
	}
	if res.FinalTotal <= 0 || len(res.Rounds) != 2 {
		t.Fatalf("total %v over %d rounds", res.FinalTotal, len(res.Rounds))
	}
	if _, err := sys.RunHyperscale(HyperscaleConfig{
		Fleet: FleetConfig{Hosts: 4, Jobs: 8},
	}); err == nil {
		t.Error("expected error for jobs > hosts")
	}
}
