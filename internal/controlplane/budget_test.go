package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/trace"
)

// postCapHTTP posts a cap to an agent server and returns the HTTP status.
func postCapHTTP(t *testing.T, url string, capW float64) int {
	t.Helper()
	resp, err := http.Post(url+RouteCap, "application/json",
		strings.NewReader(fmt.Sprintf(`{"cap_w": %g}`, capW)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAgentCapOverHTTP drives the /v1/cap endpoint: install, reject
// below the idle floor, clear, and refuse unphysical values.
func TestAgentCapOverHTTP(t *testing.T) {
	a := newTestAgent(t, "agent-img-dnn", "img-dnn", "graph")
	srv := serveAgent(t, a)
	idle := machine.XeonE52650().IdlePowerW
	prov := spec(t, "img-dnn").ProvisionedPowerW

	if got := a.CapW(); got != prov {
		t.Fatalf("default CapW = %v, want provisioned %v", got, prov)
	}
	capW := idle + 30
	if code := postCapHTTP(t, srv.URL, capW); code != http.StatusOK {
		t.Fatalf("cap install returned %d", code)
	}
	if got := a.CapW(); got != capW {
		t.Fatalf("CapW = %v after install, want %v", got, capW)
	}
	if got := a.Stats().CapW; got != capW {
		t.Fatalf("stats CapW = %v, want %v", got, capW)
	}
	// Below the idle floor: rejected, cap unchanged.
	if code := postCapHTTP(t, srv.URL, idle-5); code != http.StatusBadRequest {
		t.Fatalf("sub-idle cap returned %d, want 400", code)
	}
	if got := a.CapW(); got != capW {
		t.Fatalf("CapW = %v after rejected install, want %v", got, capW)
	}
	// Zero clears the override.
	if code := postCapHTTP(t, srv.URL, 0); code != http.StatusOK {
		t.Fatalf("cap clear returned %d", code)
	}
	if got := a.CapW(); got != prov {
		t.Fatalf("CapW = %v after clear, want provisioned %v", got, prov)
	}
	// Unphysical caps never reach the manager.
	if err := a.SetCap(math.NaN()); err == nil {
		t.Fatal("NaN cap accepted")
	}
	if err := a.SetCap(-1); err == nil {
		t.Fatal("negative cap accepted")
	}
	resp, err := http.Get(srv.URL + RouteCap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET cap returned %d, want 405", resp.StatusCode)
	}
}

// TestControllerBudgetRebalance runs a budgeted controller over live
// agents: every round divides the tree over reported demand and the
// installed caps must match the controller's shares and respect the
// budget. The budget metric families join the exposition and lint.
func TestControllerBudgetRebalance(t *testing.T) {
	if _, err := NewController(ControllerConfig{
		AgentURLs:  []string{"http://a"},
		BudgetTree: "dc:{",
	}); err == nil {
		t.Fatal("unparseable budget tree accepted")
	}

	lcs := []string{"img-dnn", "sphinx"}
	total := 0.0
	for _, lc := range lcs {
		total += spec(t, lc).ProvisionedPowerW
	}
	budgetW := 0.8 * total
	treeSpec := fmt.Sprintf("dc:%g{agent-img-dnn,agent-sphinx}", budgetW)
	tc := newTestCluster(t, lcs, nil, func(cfg *ControllerConfig) { cfg.BudgetTree = treeSpec })
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		tc.advanceAll(t, time.Second)
		tc.ctl.Round(ctx)
	}
	st := tc.ctl.Status()
	if st.Budget == nil {
		t.Fatal("no budget status on a budgeted controller")
	}
	if st.Budget.Rebalances < 4 {
		t.Fatalf("Rebalances = %d, want >= 4", st.Budget.Rebalances)
	}
	if got := st.Budget.NodeBudgets["dc"]; got != budgetW {
		t.Fatalf("dc budget = %v, want %v", got, budgetW)
	}
	sum := 0.0
	for i, a := range tc.agents {
		name := "agent-" + lcs[i]
		share, ok := st.Budget.Shares[name]
		if !ok {
			t.Fatalf("no share for %s", name)
		}
		if got := a.CapW(); math.Abs(got-share) > 1e-9 {
			t.Fatalf("%s enforces %v W, controller wants %v W", name, got, share)
		}
		if share > spec(t, lcs[i]).ProvisionedPowerW+1e-9 {
			t.Fatalf("%s share %v W above provisioned capacity", name, share)
		}
		sum += share
	}
	if sum > budgetW+1e-6 {
		t.Fatalf("shares sum %v W over the %v W budget", sum, budgetW)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	tc.ctl.MetricsHandler(rec, req)
	body := rec.Body.String()
	if err := lintExposition(body); err != nil {
		t.Fatalf("budgeted controller exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`pocolo_budget_node_watts{node="dc"}`,
		"pocolo_budget_rebalances_total",
		"pocolo_budget_brownouts_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %s:\n%s", want, body)
		}
	}
}

// TestCampaignBrownoutEndToEnd is the acceptance scenario: a −30% DC
// budget cut mid-campaign, applied through the controller against live
// agents, must degrade gracefully — zero invariant violations (the
// tree-conservation checker rides every agent tick), a cut-and-restore
// pair in the controller trace, and a byte-identical timeline on replay.
func TestCampaignBrownoutEndToEnd(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "tpcc", "xapian"}
	bes := []string{"graph", "lstm"}
	prov := func(lc string) float64 { return spec(t, lc).ProvisionedPowerW }
	rack1 := 0.9 * (prov("img-dnn") + prov("sphinx"))
	rack2 := 0.9 * (prov("tpcc") + prov("xapian"))
	dc := 0.85 * (prov("img-dnn") + prov("sphinx") + prov("tpcc") + prov("xapian"))
	treeSpec := fmt.Sprintf(
		"dc:%g{rack1:%g{agent-img-dnn,agent-sphinx},rack2:%g{agent-tpcc,agent-xapian}}",
		dc, rack1, rack2)

	run := func() (*CampaignReport, Status, []trace.Event) {
		// The delta-cell memo is process-wide: clear it so both runs trace
		// the same computed/reused cell counts.
		cluster.ResetMemo()
		camp, err := NewCampaign(CampaignConfig{
			ControllerConfig: ControllerConfig{
				BE:         bes,
				BudgetTree: treeSpec,
				Seed:       5,
				Trace:      trace.New("controller", 4096),
			},
			Agents: campaignAgentConfigs(t, lcs, bes),
			Faults: []FaultEvent{{
				At:       8 * time.Second,
				Kind:     FaultBrownout,
				Level:    0.3,
				Duration: 6 * time.Second,
			}},
			Duration: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := camp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return report, camp.Controller().Status(), camp.Controller().Tracer().Events()
	}

	report, st, events := run()
	if err := report.Err(); err != nil {
		t.Fatalf("brownout campaign not graceful: %v", err)
	}
	if st.Budget == nil {
		t.Fatal("no budget status")
	}
	if st.Budget.Brownouts != 1 {
		t.Fatalf("Brownouts = %d, want 1", st.Budget.Brownouts)
	}
	if st.Budget.Rebalances < 15 {
		t.Fatalf("Rebalances = %d, want one per round", st.Budget.Rebalances)
	}
	// The fault expired: the DC budget is back at its spec value.
	if got := st.Budget.NodeBudgets["dc"]; math.Abs(got-dc) > 1e-9 {
		t.Fatalf("dc budget = %v after restore, want %v", got, dc)
	}
	var cuts []trace.Event
	shifts := 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindBudgetCut:
			cuts = append(cuts, ev)
		case trace.KindBudgetShift:
			shifts++
		}
	}
	if len(cuts) != 2 {
		t.Fatalf("BudgetCut events = %d, want cut+restore", len(cuts))
	}
	if cuts[0].Budget.Reason != "brownout" || cuts[0].Budget.Node != "dc" ||
		math.Abs(cuts[0].Budget.ToW-0.7*dc) > 1e-9 {
		t.Fatalf("cut event = %+v, want dc to %v W for brownout", cuts[0].Budget, 0.7*dc)
	}
	if cuts[1].Budget.Reason != "restore" || math.Abs(cuts[1].Budget.ToW-dc) > 1e-9 {
		t.Fatalf("restore event = %+v, want dc back to %v W", cuts[1].Budget, dc)
	}
	if shifts < len(lcs) {
		t.Fatalf("BudgetShift events = %d, want at least one per agent", shifts)
	}

	// Byte-identical replay: a second identical campaign produces the
	// same controller timeline, brownout and all.
	_, _, events2 := run()
	var b1, b2 bytes.Buffer
	trace.SortEvents(events)
	trace.SortEvents(events2)
	if err := trace.WriteJSONL(&b1, events, false); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&b2, events2, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("controller brownout timeline not byte-identical across identical campaigns")
	}
}

// TestCampaignBrownoutValidation rejects malformed brownout schedules.
func TestCampaignBrownoutValidation(t *testing.T) {
	cfgs := campaignAgentConfigs(t, []string{"img-dnn"}, nil)
	base := CampaignConfig{Agents: cfgs, Duration: 5 * time.Second}

	bad := base
	bad.Faults = []FaultEvent{{Kind: FaultBrownout, Level: 0.3, Duration: time.Second}}
	if _, err := NewCampaign(bad); err == nil {
		t.Error("brownout without BudgetTree accepted")
	}

	bad = base
	bad.BudgetTree = "dc:400{agent-img-dnn}"
	bad.Faults = []FaultEvent{{Kind: FaultBrownout, Level: 1.5, Duration: time.Second}}
	if _, err := NewCampaign(bad); err == nil {
		t.Error("brownout level 1.5 accepted")
	}

	bad = base
	bad.BudgetTree = "dc:{"
	if _, err := NewCampaign(bad); err == nil {
		t.Error("unparseable budget tree accepted")
	}
}

// TestCampaignBrownoutBelowFloors cuts the DC budget 70 %, below the
// four agents' summed idle floors, for ten rounds. Division never
// suspends: every agent is held at its floor, the controller logs the
// shortfall once, and the tree-conservation check reports the breach
// once the convergence grace ends.
func TestCampaignBrownoutBelowFloors(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "tpcc", "xapian"}
	var prov float64
	names := make([]string, len(lcs))
	for i, lc := range lcs {
		prov += spec(t, lc).ProvisionedPowerW
		names[i] = "agent-" + lc
	}
	dc := 0.85 * prov
	floor := machine.XeonE52650().IdlePowerW + 1
	var mu sync.Mutex
	var logs []string
	atFloors := 0
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BudgetTree: fmt.Sprintf("dc:%g{%s}", dc, strings.Join(names, ",")),
			Seed:       5,
			Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				logs = append(logs, fmt.Sprintf(format, args...))
			},
		},
		Agents: campaignAgentConfigs(t, lcs, nil),
		Faults: []FaultEvent{{
			At: 6 * time.Second, Kind: FaultBrownout, Level: 0.7, Duration: 10 * time.Second,
		}},
		Duration: 20 * time.Second,
		OnRound: func(_ int, st Status) {
			if st.Budget.NodeBudgets["dc"] >= 4*floor {
				return
			}
			for _, name := range names {
				if math.Abs(st.Budget.Shares[name]-floor) > 1e-9 {
					return
				}
			}
			atFloors++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if atFloors != 10 {
		t.Errorf("agents held at their %v W floors in %d rounds of the cut, want 10", floor, atFloors)
	}
	if len(report.Violations) == 0 {
		t.Fatal("tree-conservation reported nothing while the cut sat below the floors")
	}
	for _, v := range report.Violations {
		if v.Checker != "tree-conservation" {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
	short := 0
	for _, l := range logs {
		if strings.Contains(l, "short of the floors") && strings.Contains(l, `"dc"`) {
			short++
		}
	}
	if short != 1 {
		t.Errorf("%d shortfall log lines naming dc, want 1 per episode:\n%s", short, strings.Join(logs, "\n"))
	}
	st := report.Status.Budget
	if st.Brownouts != 1 || math.Abs(st.NodeBudgets["dc"]-dc) > 1e-9 {
		t.Errorf("after restore: Brownouts %d, dc %v W; want 1 and %v W", st.Brownouts, st.NodeBudgets["dc"], dc)
	}
}

// TestBudgetUnboundLeafLogged covers a tree leaf that names no agent:
// division waits for it, and once every agent has reported the
// controller says which leaf it waits for, once.
func TestBudgetUnboundLeafLogged(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	tc := newTestCluster(t, []string{"img-dnn", "sphinx"}, nil, func(cfg *ControllerConfig) {
		cfg.BudgetTree = "dc:252{agent-img-dnn,agent-sphinx-typo}"
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})
	for i := 0; i < 6; i++ {
		tc.advanceAll(t, time.Second)
		tc.ctl.Round(context.Background())
	}
	if n := tc.ctl.Status().Budget.Rebalances; n != 0 {
		t.Errorf("Rebalances = %d with a leaf unbound, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	named := 0
	for _, l := range logs {
		if strings.Contains(l, `"agent-sphinx-typo"`) {
			named++
		}
	}
	if named != 1 {
		t.Errorf("%d log lines name the unbound leaf, want 1:\n%s", named, strings.Join(logs, "\n"))
	}
}

// TestBudgetLeafRebindsAfterRename: the controller rebuilds its budget
// bindings only after the liveness fold discovers or renames an agent, so
// a leaf that names no agent binds in the round after an agent restarts
// under its name, and unbinds in the round after that agent takes another
// name.
func TestBudgetLeafRebindsAfterRename(t *testing.T) {
	tr := newEchoTransport()
	ctl, urls, tick := streamTestController(t, 3, 4, func(cfg *ControllerConfig) {
		cfg.BudgetTree = "dc:900{agent-0,agent-1,agent-2}"
		cfg.Client = &http.Client{Transport: tr}
	})
	encs := make([]*HeartbeatEncoder, len(urls))
	rounds := 0
	round := func(names ...string) *BudgetStatus {
		t.Helper()
		rounds++
		for i, name := range names {
			if encs[i] == nil || encs[i].agent != name {
				encs[i] = NewHeartbeatEncoder(name, urls[i]) // a restart under name
			}
			// A restarted sender's first frame may be behind the agent's
			// last; its resync ack carries the seq to continue from.
			for attempt := 0; ; attempt++ {
				frame, err := encs[i].Encode(streamTestStats(t, name), 1)
				if err != nil {
					t.Fatal(err)
				}
				ack := ctl.IngestHeartbeat(frame)
				encs[i].Ack(ack)
				if !ack.Reject && !ack.Resync {
					break
				}
				if attempt > 0 {
					t.Fatalf("round %d: %s's frame: %+v", rounds, name, ack)
				}
			}
		}
		tick()
		ctl.Round(context.Background())
		return ctl.Status().Budget
	}
	if b := round("agent-0", "agent-1", "agent-2-old"); b.Rebalances != 0 {
		t.Fatalf("divided %d times with leaf agent-2 naming no agent", b.Rebalances)
	}
	b := round("agent-0", "agent-1", "agent-2")
	if b.Rebalances != 1 {
		t.Fatalf("%d divisions in the round after an agent was renamed agent-2, want 1", b.Rebalances)
	}
	tr.mu.Lock()
	capW, pushed := tr.caps[urls[2]]
	tr.mu.Unlock()
	if share := b.Shares["agent-2"]; !pushed || capW != share {
		t.Fatalf("renamed agent's cap %v (pushed %v), want its leaf's share %v", capW, pushed, share)
	}
	if b := round("agent-0", "agent-1", "agent-2-new"); b.Rebalances != 1 {
		t.Fatalf("divided again (%d divisions) once agent-2 took another name", b.Rebalances)
	}
}
