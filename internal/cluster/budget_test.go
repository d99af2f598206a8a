package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pocolo/internal/budget"
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

func TestBudgetConfigValidation(t *testing.T) {
	cfg := fixture(t)
	placement := PlaceRandom(cfg.LC, cfg.BE, 1)
	for name, bc := range map[string]*BudgetConfig{
		"no total or tree": {},
		"negative period":  {TotalW: 500, Period: -time.Second},
		"bad frac":         {Tree: "dc:500{x}", BrownoutFrac: 1.5},
		"flat brownout":    {TotalW: 500, BrownoutFrac: 0.3},
		"negative at":      {Tree: "dc:500{x}", BrownoutFrac: 0.3, BrownoutAt: -time.Second},
		"bad tree":         {Tree: "dc:{"},
		"wrong leaves":     {Tree: "dc:500{nothere,nope}"},
	} {
		c := cfg
		c.Budget = bc
		if _, err := RunPlacement(c, placement, 1); err == nil {
			t.Errorf("%s: budgeted run unexpectedly succeeded", name)
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
