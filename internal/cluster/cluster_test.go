package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// fixture builds the paper's full setup: 8 fitted models on the Table I
// platform. Fitting is deterministic, so build it once.
var fixtureModels map[string]*utility.Model

func fixture(t *testing.T) Config {
	t.Helper()
	cat := workload.MustDefaults()
	cfg := machine.XeonE52650()
	if fixtureModels == nil {
		models, err := profiler.FitAll(cfg, append(cat.LC(), cat.BE()...), 42)
		if err != nil {
			t.Fatal(err)
		}
		fixtureModels = models
	}
	return Config{
		Machine: cfg,
		LC:      cat.LC(),
		BE:      cat.BE(),
		Models:  fixtureModels,
		Dwell:   2 * time.Second,
		Seed:    1,
	}
}

func TestDefaultLoadRange(t *testing.T) {
	r := DefaultLoadRange()
	if len(r) != 9 || r[0] != 0.1 || r[8] != 0.9 {
		t.Errorf("range = %v", r)
	}
}

func TestBuildMatrix(t *testing.T) {
	cfg := fixture(t)
	mx, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.Value) != 4 || len(mx.Value[0]) != 4 {
		t.Fatalf("matrix shape %dx%d", len(mx.Value), len(mx.Value[0]))
	}
	for i, row := range mx.Value {
		for j, v := range row {
			if v <= 0 || math.IsNaN(v) {
				t.Errorf("matrix[%s][%s] = %v", mx.BENames[i], mx.LCNames[j], v)
			}
		}
	}
	idx := func(names []string, want string) int {
		for i, n := range names {
			if n == want {
				return i
			}
		}
		t.Fatalf("missing %s in %v", want, names)
		return -1
	}
	// Complementarity (Section V-C): on the sphinx server (cache-loving
	// primary), core-loving graph should beat cache-loving lstm.
	sj := idx(mx.LCNames, "sphinx")
	if mx.Value[idx(mx.BENames, "graph")][sj] <= mx.Value[idx(mx.BENames, "lstm")][sj] {
		t.Errorf("graph (%v) should beat lstm (%v) on sphinx", mx.Value[idx(mx.BENames, "graph")][sj], mx.Value[idx(mx.BENames, "lstm")][sj])
	}
}

func TestBuildMatrixValidation(t *testing.T) {
	cfg := fixture(t)
	if _, err := BuildMatrix(MatrixConfig{Machine: machine.Config{}, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models}); err == nil {
		t.Error("expected error for bad machine")
	}
	if _, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, BE: cfg.BE, Models: cfg.Models}); err == nil {
		t.Error("expected error for no LC apps")
	}
	if _, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: nil}); err == nil {
		t.Error("expected error for missing models")
	}
	if _, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models, Loads: []float64{2}}); err == nil {
		t.Error("expected error for bad load range")
	}
}

func TestMatrixSolversAgree(t *testing.T) {
	cfg := fixture(t)
	mx, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	_, lpVal, err := mx.Solve("lp")
	if err != nil {
		t.Fatal(err)
	}
	_, huVal, err := mx.Solve("hungarian")
	if err != nil {
		t.Fatal(err)
	}
	_, exVal, err := mx.Solve("exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpVal-exVal) > 1e-6 || math.Abs(huVal-exVal) > 1e-6 {
		t.Errorf("solver disagreement: lp=%v hungarian=%v exhaustive=%v", lpVal, huVal, exVal)
	}
	if _, _, err := mx.Solve("magic"); err == nil {
		t.Error("expected error for unknown solver")
	}
}

func TestPOColoPlacementMatchesPaper(t *testing.T) {
	// Fig. 14: Pocolo assigns Graph to sphinx, LSTM to img-dnn, and
	// RNN/Pbzip to xapian/TPC-C.
	cfg := fixture(t)
	placement, total, err := Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Errorf("placement value = %v", total)
	}
	if placement["graph"] != "sphinx" {
		t.Errorf("graph placed on %s, want sphinx (placement %v)", placement["graph"], placement)
	}
	if placement["lstm"] != "img-dnn" {
		t.Errorf("lstm placed on %s, want img-dnn (placement %v)", placement["lstm"], placement)
	}
	rest := map[string]bool{placement["rnn"]: true, placement["pbzip"]: true}
	if !rest["xapian"] || !rest["tpcc"] {
		t.Errorf("rnn/pbzip placed on %v, want xapian+tpcc", rest)
	}
}

func TestPlaceRandomIsValidPermutation(t *testing.T) {
	cfg := fixture(t)
	for seed := int64(0); seed < 10; seed++ {
		p := PlaceRandom(cfg.LC, cfg.BE, seed)
		if len(p) != 4 {
			t.Fatalf("placement size %d", len(p))
		}
		used := map[string]bool{}
		for _, lc := range p {
			if used[lc] {
				t.Fatalf("server %s used twice in %v", lc, p)
			}
			used[lc] = true
		}
	}
}

func TestRunPlacementValidation(t *testing.T) {
	cfg := fixture(t)
	if _, err := RunPlacement(cfg, map[string]string{}, servermgr.PowerOptimized); err == nil {
		t.Error("expected error for incomplete placement")
	}
	dup := map[string]string{"lstm": "sphinx", "rnn": "sphinx", "graph": "xapian", "pbzip": "tpcc"}
	if _, err := RunPlacement(cfg, dup, servermgr.PowerOptimized); err == nil {
		t.Error("expected error for doubled-up placement")
	}
	bad := cfg
	bad.BE = append(bad.BE, bad.BE...)
	if _, err := RunPlacement(bad, nil, servermgr.PowerOptimized); err == nil {
		t.Error("expected error for more BE apps than servers")
	}
}

func TestRunPlacementProducesHealthyCluster(t *testing.T) {
	cfg := fixture(t)
	placement, _, err := Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(res.Hosts))
	}
	if res.SLOViolFrac > 0.10 {
		t.Errorf("SLO violations %.1f%%", res.SLOViolFrac*100)
	}
	if res.BENormThroughput <= 0 || res.BENormThroughput > 1 {
		t.Errorf("BE normalized throughput = %v", res.BENormThroughput)
	}
	if res.MeanPowerUtil <= 0.4 || res.MeanPowerUtil > 1.05 {
		t.Errorf("power utilization = %v", res.MeanPowerUtil)
	}
	if res.TotalEnergyKWh <= 0 || res.TotalBEOps <= 0 {
		t.Errorf("aggregates: %+v", res)
	}
	for _, name := range SortedNames(res.Hosts) {
		if res.Hosts[name].DurationSec <= 0 {
			t.Errorf("host %s has no runtime", name)
		}
	}
}

func TestPolicyOrderingMatchesPaper(t *testing.T) {
	// The headline result (Figs. 12–13): POColo > POM > Random in BE
	// throughput, and Random burns more power than both POM and POColo.
	cfg := fixture(t)
	random, err := Run(cfg, Random)
	if err != nil {
		t.Fatal(err)
	}
	pom, err := Run(cfg, POM)
	if err != nil {
		t.Fatal(err)
	}
	pocolo, err := Run(cfg, POColo)
	if err != nil {
		t.Fatal(err)
	}
	if !(pocolo.BENormThroughput > pom.BENormThroughput) {
		t.Errorf("POColo throughput %.4f not above POM %.4f", pocolo.BENormThroughput, pom.BENormThroughput)
	}
	if !(pom.BENormThroughput > random.BENormThroughput) {
		t.Errorf("POM throughput %.4f not above Random %.4f", pom.BENormThroughput, random.BENormThroughput)
	}
	if !(random.MeanPowerUtil > pom.MeanPowerUtil) {
		t.Errorf("Random power util %.3f not above POM %.3f", random.MeanPowerUtil, pom.MeanPowerUtil)
	}
	if !(random.TotalEnergyKWh > pocolo.TotalEnergyKWh) {
		t.Errorf("Random energy %.4f not above POColo %.4f", random.TotalEnergyKWh, pocolo.TotalEnergyKWh)
	}
	if pocolo.Policy != POColo || random.Policy != Random || pom.Policy != POM {
		t.Error("policy labels wrong")
	}
	if Random.String() != "random" || POM.String() != "pom" || POColo.String() != "pocolo" || Policy(9).String() == "" {
		t.Error("policy strings broken")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Random, POM, POColo} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	for _, bad := range []string{"", "POM", "lp", "Policy(9)"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	cfg := fixture(t)
	if _, err := Run(cfg, Policy(42)); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestRunPair(t *testing.T) {
	cfg := fixture(t)
	cat := workload.MustDefaults()
	lc, _ := cat.ByName("sphinx")
	be, _ := cat.ByName("graph")
	pr, err := RunPair(cfg, lc, be)
	if err != nil {
		t.Fatal(err)
	}
	if pr.LC != "sphinx" || pr.BE != "graph" {
		t.Errorf("pair labels: %+v", pr)
	}
	if len(pr.TotalNorm) != 9 {
		t.Fatalf("got %d load points", len(pr.TotalNorm))
	}
	for i, v := range pr.TotalNorm {
		if v <= 0 || v > 2 {
			t.Errorf("load %.0f%%: total normalized throughput %v out of range", pr.Loads[i]*100, v)
		}
	}
	if pr.Mean <= 0 {
		t.Errorf("mean = %v", pr.Mean)
	}
}

func TestRunReplicated(t *testing.T) {
	cfg := fixture(t)
	cfg.Dwell = time.Second
	res, err := RunReplicated(cfg, 2, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 8 {
		t.Fatalf("hosts = %d", len(res.Hosts))
	}
	if len(res.Placement) != 8 {
		t.Fatalf("placement = %v", res.Placement)
	}
	// Every BE instance lands on a distinct host, and the pairing mirrors
	// the 1-replica optimum (the matrix is block-constant): each graph
	// instance on a sphinx server, each lstm instance on an img-dnn server.
	used := map[string]bool{}
	for beInst, lcInst := range res.Placement {
		if used[lcInst] {
			t.Errorf("host %s used twice", lcInst)
		}
		used[lcInst] = true
		be := beInst[:strings.IndexByte(beInst, '#')]
		lc := lcInst[:strings.IndexByte(lcInst, '#')]
		switch be {
		case "graph":
			if lc != "sphinx" {
				t.Errorf("graph instance on %s, want sphinx", lc)
			}
		case "lstm":
			if lc != "img-dnn" {
				t.Errorf("lstm instance on %s, want img-dnn", lc)
			}
		}
	}
	if res.BENormThroughput <= 0 {
		t.Errorf("throughput = %v", res.BENormThroughput)
	}
	if res.SLOViolFrac > 0.15 {
		t.Errorf("SLO violations = %v", res.SLOViolFrac)
	}
	// Per-host throughput matches the unreplicated cluster's headline.
	single, err := RunPlacement(cfg, mustPlace(t, cfg), servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.BENormThroughput / single.BENormThroughput; rel < 0.9 || rel > 1.1 {
		t.Errorf("replicated throughput %v diverges from single-cluster %v", res.BENormThroughput, single.BENormThroughput)
	}
}

func mustPlace(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	placement, _, err := Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return placement
}

func TestRunReplicatedValidation(t *testing.T) {
	cfg := fixture(t)
	if _, err := RunReplicated(cfg, 0, servermgr.PowerOptimized); err == nil {
		t.Error("expected error for zero replicas")
	}
	bad := cfg
	bad.Models = nil
	if _, err := RunReplicated(bad, 1, servermgr.PowerOptimized); err == nil {
		t.Error("expected error for missing models")
	}
}

// TestBuildMatrixParallel checks the fanned-out matrix construction is
// identical to the sequential path at any worker count, and that model
// validation errors still surface.
func TestBuildMatrixParallel(t *testing.T) {
	cfg := fixture(t)
	seq, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel=%d matrix differs from sequential", workers)
		}
	}

	// A missing model must surface the same first (row-major) error from
	// the fanned-out path as from the sequential one.
	broken := MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: nil, Parallel: 8}
	if _, err := BuildMatrix(broken); err == nil || !strings.Contains(err.Error(), "no fitted model for "+cfg.BE[0].Name) {
		t.Fatalf("missing-model error = %v", err)
	}
}
