package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pocolo/internal/budget/tree"
	"pocolo/internal/trace"
)

func fleetFixture(t *testing.T, hosts, jobs int, set ShardSettings) FleetConfig {
	t.Helper()
	cfg := fixture(t)
	return FleetConfig{
		Machine:   cfg.Machine,
		LCClasses: cfg.LC,
		BEClasses: cfg.BE,
		Models:    cfg.Models,
		Hosts:     hosts,
		Jobs:      jobs,
		Seed:      7,
		Shard:     set,
	}
}

func TestFleetValidation(t *testing.T) {
	good := fleetFixture(t, 8, 4, ShardSettings{PodSize: 4})
	cases := map[string]func(*FleetConfig){
		"no hosts":       func(c *FleetConfig) { c.Hosts = 0 },
		"jobs > hosts":   func(c *FleetConfig) { c.Jobs = c.Hosts + 1 },
		"no classes":     func(c *FleetConfig) { c.LCClasses = nil },
		"missing model":  func(c *FleetConfig) { c.Models = nil },
		"jitter too big": func(c *FleetConfig) { c.CapJitterFrac = 1 },
		"bad budget":     func(c *FleetConfig) { c.BudgetFrac = 1.5 },
	}
	for name, mutate := range cases {
		bad := good
		mutate(&bad)
		if _, err := NewFleet(bad); err == nil {
			t.Errorf("NewFleet accepted %s", name)
		}
	}
	if _, err := NewFleet(good); err != nil {
		t.Fatal(err)
	}
}

func TestFleetCapsQuantized(t *testing.T) {
	f, err := NewFleet(fleetFixture(t, 32, 16, ShardSettings{PodSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, lc := range f.lc {
		if lc.ProvisionedPowerW != math.Round(lc.ProvisionedPowerW) {
			t.Fatalf("unquantized cap %v", lc.ProvisionedPowerW)
		}
		seen[lc.ProvisionedPowerW] = true
	}
	if len(seen) < 2 {
		t.Error("cap jitter produced a uniform fleet")
	}
	f.Advance(1)
	for _, lc := range f.lc {
		if lc.ProvisionedPowerW != math.Round(lc.ProvisionedPowerW) {
			t.Fatalf("Advance left unquantized cap %v", lc.ProvisionedPowerW)
		}
	}
}

func TestRunHyperscale(t *testing.T) {
	tr := trace.New("hyperscale", 0)
	cfg := HyperscaleConfig{
		Fleet:  fleetFixture(t, 32, 24, ShardSettings{PodSize: 8}),
		Rounds: 3,
		Churn:  0.5,
		Trace:  tr,
	}
	res, err := RunHyperscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 32 || res.Jobs != 24 || res.Pods != 4 {
		t.Fatalf("shape %d/%d/%d", res.Hosts, res.Jobs, res.Pods)
	}
	if res.InitialTotal <= 0 || res.FinalTotal <= 0 {
		t.Fatalf("totals %v -> %v", res.InitialTotal, res.FinalTotal)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	full := 24 * 8 // rows × pod cols: the non-delta refresh cost
	churned := 0
	for _, r := range res.Rounds {
		if r.Total <= 0 {
			t.Errorf("round %d total %v", r.Round, r.Total)
		}
		touched := r.Refresh.CellsComputed + r.Refresh.CellsReused
		if r.HostsChanged > 0 || r.ClassesChanged > 0 {
			churned++
			if touched == 0 {
				t.Errorf("round %d churned %d/%d but refreshed no cells",
					r.Round, r.HostsChanged, r.ClassesChanged)
			}
		}
		if touched > full {
			t.Errorf("round %d touched %d cells, full rebuild is %d", r.Round, touched, full)
		}
	}
	if churned == 0 {
		t.Error("no round saw churn at churn=0.5")
	}
	if err := trace.Validate(tr.Events()); err != nil {
		t.Fatal(err)
	}
	// Per-pod solve summaries carry pod tags.
	pods := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.Pod != "" {
			pods++
		}
	}
	if pods == 0 {
		t.Error("no per-pod solve events traced")
	}
}

func TestRunHyperscaleDeterministic(t *testing.T) {
	cfg := HyperscaleConfig{
		Fleet:  fleetFixture(t, 24, 18, ShardSettings{PodSize: 6}),
		Rounds: 2,
		Churn:  0.4,
	}
	ResetMemo()
	r1, err := RunHyperscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemo()
	r2, err := RunHyperscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestFleetPodBudgets(t *testing.T) {
	fc := fleetFixture(t, 16, 12, ShardSettings{PodSize: 4})
	fc.BudgetFrac = 0.8
	res, err := RunHyperscale(HyperscaleConfig{Fleet: fc, Rounds: 1, Churn: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpec == "" || len(res.PodBudgets) != 4 {
		t.Fatalf("budget spec %q, shares %v", res.BudgetSpec, res.PodBudgets)
	}
	tw, err := tree.Parse(res.BudgetSpec)
	if err != nil {
		t.Fatalf("generated spec does not parse: %v\n%s", err, res.BudgetSpec)
	}
	root := tw.Root().BudgetW
	var sum float64
	for name, share := range res.PodBudgets {
		if !strings.HasPrefix(name, "pod-") {
			t.Errorf("share key %q", name)
		}
		if share != math.Round(share) {
			t.Errorf("unquantized share %v", share)
		}
		sum += share
	}
	// Shares respect the root budget up to the 1 W quantization per pod.
	if sum > root+float64(len(res.PodBudgets)) {
		t.Errorf("shares sum %v exceeds root budget %v", sum, root)
	}

	f, err := NewFleet(fleetFixture(t, 8, 4, ShardSettings{PodSize: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.PodBudgets(); err == nil {
		t.Error("PodBudgets succeeded without a budget fraction")
	}
}
