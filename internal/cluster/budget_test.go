package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/servermgr"
	"pocolo/internal/trace"
	"pocolo/internal/workload"
)

// provisionedW sums the LC servers' provisioned power capacities.
func provisionedW(cfg Config) float64 {
	var total float64
	for _, lc := range cfg.LC {
		total += lc.ProvisionedPowerW
	}
	return total
}

// lcNames lists the cluster's LC servers in catalog order.
func lcNames(cfg Config) []string {
	names := make([]string, len(cfg.LC))
	for i, lc := range cfg.LC {
		names[i] = lc.Name
	}
	return names
}

// TestBudgetConfigValidation: every bad budget or brownout setting fails
// the run before anything is simulated, so the traced run records no
// event past time 0 (bringing the managers up records their first control
// tick there).
func TestBudgetConfigValidation(t *testing.T) {
	cfg := fixture(t)
	placement := PlaceRandom(cfg.LC, cfg.BE, 1)
	names := lcNames(cfg)
	racks := fmt.Sprintf("dc:600{rack1:300{%s,%s},rack2:300{%s,%s}}", names[0], names[1], names[2], names[3])
	duration := workload.UniformSweep(cfg.Dwell).Duration()
	for name, bc := range map[string]*BudgetConfig{
		"no total or tree":      {},
		"negative period":       {TotalW: 500, Period: -time.Second},
		"bad frac":              {Tree: "dc:500{x}", BrownoutFrac: 1.5},
		"flat brownout":         {TotalW: 500, BrownoutFrac: 0.3},
		"negative at":           {Tree: "dc:500{x}", BrownoutFrac: 0.3, BrownoutAt: -time.Second},
		"bad tree":              {Tree: "dc:{"},
		"wrong leaves":          {Tree: "dc:500{nothere,nope}"},
		"at without fraction":   {Tree: racks, BrownoutAt: duration / 3},
		"node without fraction": {Tree: racks, BrownoutNode: "rack1"},
		"unknown node":          {Tree: racks, BrownoutFrac: 0.3, BrownoutNode: "nosuch"},
		"unbudgeted leaf":       {Tree: racks, BrownoutFrac: 0.3, BrownoutNode: names[0]},
		"cut at the end":        {Tree: racks, BrownoutFrac: 0.3, BrownoutAt: duration},
		"cut past the end":      {Tree: racks, BrownoutFrac: 0.3, BrownoutAt: 10 * duration},
	} {
		c := cfg
		c.Budget = bc
		c.Trace = trace.NewSet(0)
		if _, err := RunPlacement(c, placement, servermgr.PowerOptimized); err == nil {
			t.Errorf("%s: budgeted run unexpectedly succeeded", name)
		}
		for _, ev := range c.Trace.Events() {
			if ev.TNS > 0 {
				t.Errorf("%s: failed only after simulating to %v", name, time.Duration(ev.TNS))
				break
			}
		}
	}
	// Brownout flags without a budget are refused too.
	if _, err := ParseBudgetFlags(0, "", "", 0, 0, time.Second, "rack1"); err == nil {
		t.Error("ParseBudgetFlags accepted a brownout time and node without a budget")
	}
}

// TestRunBudgetedOverBudgetPerChunk: each side of a brownout counts
// against its own root budget. A 70 % cut takes the root below the
// servers' summed idle draw, so every tick after it is over budget, and
// the ticks before it count as in an uncut run of that length.
func TestRunBudgetedOverBudgetPerChunk(t *testing.T) {
	cfg := fixture(t)
	placement := PlaceRandom(cfg.LC, cfg.BE, 1)
	loads := map[string]float64{}
	for i, name := range lcNames(cfg) {
		loads[name] = 0.2 + 0.2*float64(i)
	}
	spec := fmt.Sprintf("dc:%g{%s}", 0.85*provisionedW(cfg), strings.Join(lcNames(cfg), ","))
	const half = 10 * time.Second
	cfg.Budget = &BudgetConfig{Tree: spec, Period: 2 * time.Second}
	uncut, err := RunBudgeted(cfg, placement, loads, half)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = &BudgetConfig{Tree: spec, Period: 2 * time.Second, BrownoutFrac: 0.7}
	cut, err := RunBudgeted(cfg, placement, loads, 2*half)
	if err != nil {
		t.Fatal(err)
	}
	ticks := float64(half / servermgr.CapPeriod)
	before := math.Round(uncut.Budget.OverBudgetFrac * ticks)
	if want := (before + ticks) / (2 * ticks); cut.Budget.OverBudgetFrac != want {
		t.Errorf("over budget %v of the cut run, want %v (%v of %v ticks over before the cut, all after)",
			cut.Budget.OverBudgetFrac, want, before, ticks)
	}
	if cut.Budget.Cuts != 1 {
		t.Errorf("Cuts = %d, want 1", cut.Budget.Cuts)
	}
}

// TestRunBudgetedErrors: RunBudgeted refuses a missing budget, duration
// or load, a placed name that is not a BE app, and the placements the
// sweep layout refuses.
func TestRunBudgetedErrors(t *testing.T) {
	cfg := fixture(t)
	names := lcNames(cfg)
	loads := map[string]float64{}
	for _, name := range names {
		loads[name] = 0.5
	}
	budgeted := cfg
	budgeted.Budget = &BudgetConfig{TotalW: 0.85 * provisionedW(cfg)}
	for name, tc := range map[string]struct {
		cfg       Config
		placement map[string]string
		loads     map[string]float64
		dur       time.Duration
	}{
		"no budget":        {cfg, map[string]string{}, loads, time.Second},
		"no duration":      {budgeted, map[string]string{}, loads, 0},
		"missing load":     {budgeted, map[string]string{}, map[string]float64{names[0]: 0.5}, time.Second},
		"LC app placed":    {budgeted, map[string]string{names[1]: names[0]}, loads, time.Second},
		"unknown app":      {budgeted, map[string]string{"nosuch": names[0]}, loads, time.Second},
		"not an LC server": {budgeted, map[string]string{"graph": "nowhere"}, loads, time.Second},
		"two on a server":  {budgeted, map[string]string{"graph": names[0], "lstm": names[0]}, loads, time.Second},
	} {
		if _, err := RunBudgeted(tc.cfg, tc.placement, tc.loads, tc.dur); err == nil {
			t.Errorf("%s: run unexpectedly succeeded", name)
		}
	}
}

// TestBudgetedRunFlat exercises the flat budgeter through the cluster
// layer: shares land in the result and the run bypasses the memo.
func TestBudgetedRunFlat(t *testing.T) {
	cfg := fixture(t)
	cfg.Dwell = 500 * time.Millisecond
	cfg.Budget = &BudgetConfig{
		TotalW: 0.8 * provisionedW(cfg),
		Policy: budget.DemandProportional,
		Period: 2 * time.Second,
	}
	res, err := Run(cfg, POColo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget == nil {
		t.Fatal("budgeted run returned no budget result")
	}
	if len(res.Budget.Shares) != len(cfg.LC) {
		t.Errorf("%d shares for %d servers", len(res.Budget.Shares), len(cfg.LC))
	}
	var sum float64
	for _, s := range res.Budget.Shares {
		sum += s
	}
	if sum > cfg.Budget.TotalW+1e-6 {
		t.Errorf("shares sum %v exceed the budget %v", sum, cfg.Budget.TotalW)
	}
	if res.Budget.Rebalances < 1 {
		t.Error("no rebalances recorded")
	}
}

// TestBudgetedBrownoutEndToEnd is the tentpole e2e: a tree-budgeted
// cluster run with invariants on takes a 30% DC budget cut mid-run and
// must degrade gracefully — zero invariant violations (including the
// tree-conservation checker), caps converged inside the cut budget, and
// BudgetCut/BudgetShift events in a replayable trace.
func TestBudgetedBrownoutEndToEnd(t *testing.T) {
	run := func() (Result, []trace.Event, *BudgetConfig, Config) {
		cfg := fixture(t)
		cfg.Dwell = 2 * time.Second
		cfg.Invariants = true
		cfg.Trace = trace.NewSet(0)
		duration := workload.UniformSweep(cfg.Dwell).Duration()
		var rack1, rack2 string
		half := len(cfg.LC) / 2
		for i, lc := range cfg.LC {
			if i < half {
				if rack1 != "" {
					rack1 += ","
				}
				rack1 += lc.Name
			} else {
				if rack2 != "" {
					rack2 += ","
				}
				rack2 += lc.Name
			}
		}
		dcW := 0.9 * provisionedW(cfg)
		spec := fmt.Sprintf("dc:%g{rack1:%g{%s},rack2:%g{%s}}",
			dcW, dcW/2, rack1, dcW/2, rack2)
		bc := &BudgetConfig{
			Tree:         spec,
			Period:       2 * time.Second,
			BrownoutFrac: 0.3,
			BrownoutAt:   duration / 2,
		}
		cfg.Budget = bc
		res, err := Run(cfg, POColo)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Trace.Events(), bc, cfg
	}

	res, events, bc, cfg := run()
	if res.Budget == nil {
		t.Fatal("no budget result")
	}
	if res.Budget.Cuts != 1 {
		t.Errorf("Cuts = %d, want 1", res.Budget.Cuts)
	}
	// The run survived with invariants on (Run would have failed
	// otherwise); the caps must have converged inside the cut budget.
	cutW := res.Budget.NodeBudgets["dc"]
	wantCut := 0.9 * provisionedW(cfg) * (1 - bc.BrownoutFrac)
	if diff := cutW - wantCut; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("post-brownout dc budget %v, want %v", cutW, wantCut)
	}
	var sum float64
	for _, s := range res.Budget.Shares {
		sum += s
	}
	if sum > cutW+1e-6 {
		t.Errorf("final shares sum %v exceed the cut budget %v", sum, cutW)
	}

	var cuts, shifts int
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindBudgetCut:
			cuts++
			if ev.Budget.Reason != "brownout" || ev.Budget.Node != "dc" {
				t.Errorf("bad cut event: %+v", ev.Budget)
			}
		case trace.KindBudgetShift:
			shifts++
		}
	}
	if cuts != 1 {
		t.Errorf("%d BudgetCut events, want 1", cuts)
	}
	if shifts < len(cfg.LC) {
		t.Errorf("only %d BudgetShift events", shifts)
	}

	// Determinism: the same seeded run exports a byte-identical canonical
	// trace.
	_, events2, _, _ := run()
	var a, b bytes.Buffer
	trace.SortEvents(events)
	trace.SortEvents(events2)
	if err := trace.WriteJSONL(&a, events, false); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&b, events2, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("seeded brownout runs exported different traces")
	}
}

// TestBudgetedBrownoutBelowFloors cuts the DC budget 70 %, below the
// servers' summed idle floors: the run still divides, holding every
// server at its floor, and with invariants on the tree-conservation
// check reports the breach.
func TestBudgetedBrownoutBelowFloors(t *testing.T) {
	run := func(invariants bool) (Result, error) {
		cfg := fixture(t)
		cfg.Dwell = 2 * time.Second
		cfg.Invariants = invariants
		names := make([]string, len(cfg.LC))
		for i, lc := range cfg.LC {
			names[i] = lc.Name
		}
		cfg.Budget = &BudgetConfig{
			Tree:         fmt.Sprintf("dc:%g{%s}", 0.85*provisionedW(cfg), strings.Join(names, ",")),
			Period:       2 * time.Second,
			BrownoutFrac: 0.7,
		}
		return Run(cfg, POColo)
	}
	res, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	floor := fixture(t).Machine.IdlePowerW + 1
	for name, s := range res.Budget.Shares {
		if math.Abs(s-floor) > 1e-9 {
			t.Errorf("%s share %v W after the cut, want its %v W floor", name, s, floor)
		}
	}
	if _, err := run(true); err == nil || !strings.Contains(err.Error(), "tree-conservation") {
		t.Fatalf("err = %v, want a tree-conservation violation", err)
	}
}
