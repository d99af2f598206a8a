package controlplane

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

func TestNewAgentValidation(t *testing.T) {
	models := fixtureModels(t)
	trace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	base := AgentConfig{
		Name:    "a1",
		Machine: machine.XeonE52650(),
		LC:      spec(t, "xapian"),
		LCModel: models["xapian"],
		Trace:   trace,
	}
	cases := []struct {
		name   string
		mutate func(*AgentConfig)
	}{
		{"missing name", func(c *AgentConfig) { c.Name = "" }},
		{"missing lc", func(c *AgentConfig) { c.LC = nil }},
		{"missing model", func(c *AgentConfig) { c.LCModel = nil }},
		{"missing trace", func(c *AgentConfig) { c.Trace = nil }},
		{"negative tick", func(c *AgentConfig) { c.SimTick = -time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := NewAgent(cfg); err == nil {
				t.Error("expected a config error")
			}
		})
	}
	if _, err := NewAgent(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAgentAssignEvictOverHTTP(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian", "graph", "lstm")
	srv := serveAgent(t, a)
	advance(t, a, 5*time.Second)

	// Nothing assigned yet: BE throughput must be zero.
	var stats StatsResponse
	getJSONT(t, srv.URL+RouteStats, &stats)
	if stats.AssignedBE != "" || stats.BEThroughput != 0 {
		t.Fatalf("fresh agent should be parked, got %+v", stats)
	}
	if stats.LC != "xapian" || stats.LCModel == nil || len(stats.BECandidates) != 2 {
		t.Errorf("stats incomplete: %+v", stats)
	}

	// Assign graph, advance, and expect throughput.
	postAssignT(t, srv.URL, "graph", http.StatusOK)
	advance(t, a, 10*time.Second)
	getJSONT(t, srv.URL+RouteStats, &stats)
	if stats.AssignedBE != "graph" {
		t.Fatalf("AssignedBE = %q, want graph", stats.AssignedBE)
	}
	if stats.BEThroughput <= 0 {
		t.Errorf("assigned BE throughput = %v, want > 0", stats.BEThroughput)
	}
	if stats.BEOpsBy["graph"] <= 0 {
		t.Errorf("graph ops = %v, want > 0", stats.BEOpsBy["graph"])
	}

	// Reassign to lstm: graph parks, lstm runs.
	postAssignT(t, srv.URL, "lstm", http.StatusOK)
	before := stats.BEOpsBy["graph"]
	advance(t, a, 10*time.Second)
	getJSONT(t, srv.URL+RouteStats, &stats)
	if stats.AssignedBE != "lstm" {
		t.Fatalf("AssignedBE = %q, want lstm", stats.AssignedBE)
	}
	if stats.BEOpsBy["lstm"] <= 0 {
		t.Errorf("lstm accrued no work after reassignment")
	}
	if got := stats.BEOpsBy["graph"]; got > before*1.01+1 {
		t.Errorf("graph kept accruing after eviction: %v -> %v", before, got)
	}

	// Evict entirely.
	postAssignT(t, srv.URL, "", http.StatusOK)
	advance(t, a, 2*time.Second)
	getJSONT(t, srv.URL+RouteStats, &stats)
	if stats.AssignedBE != "" || stats.BEThroughput != 0 {
		t.Errorf("evicted agent should be parked, got %+v", stats)
	}

	// Unknown candidate is a 400 and leaves the state alone.
	postAssignT(t, srv.URL, "no-such-app", http.StatusBadRequest)
	if got := a.Assigned(); got != "" {
		t.Errorf("failed assign changed state to %q", got)
	}
}

func TestAgentHealthzAndMethodChecks(t *testing.T) {
	a := newTestAgent(t, "a1", "img-dnn", "graph")
	srv := serveAgent(t, a)
	advance(t, a, time.Second)

	var h HealthResponse
	getJSONT(t, srv.URL+RouteHealthz, &h)
	if !h.OK || h.Agent != "a1" || h.SimSec < 1 {
		t.Errorf("healthz = %+v", h)
	}

	// Wrong methods are rejected.
	resp, err := http.Get(srv.URL + RouteAssign)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET assign = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+RouteStats, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST stats = %d, want 405", resp.StatusCode)
	}
}

func TestAgentMetricsExposition(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian", "graph")
	srv := serveAgent(t, a)
	if err := a.Assign("graph"); err != nil {
		t.Fatal(err)
	}
	advance(t, a, 10*time.Second)

	resp, err := http.Get(srv.URL + RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE pocolo_up gauge",
		`pocolo_up{agent="a1",lc="xapian"} 1`,
		"# TYPE pocolo_lc_ops_total counter",
		`pocolo_be_assigned{agent="a1",lc="xapian",be="graph"} 1`,
		"pocolo_power_watts",
		"pocolo_sim_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestAgentOnRefusedPlanReportsExact runs an agent on a platform whose
// cores × ways grid exceeds utility.MaxPlanPoints. utility.Plans refuses
// the grid, so the manager serves every lookup from the exact search,
// and /v1/stats and /metrics must report the path it resolved.
func TestAgentOnRefusedPlanReportsExact(t *testing.T) {
	models := fixtureModels(t)
	loadTrace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.XeonE52650()
	mc.Name, mc.Cores, mc.LLCWays = "huge-grid", 260, 260
	if mc.Cores*mc.LLCWays <= utility.MaxPlanPoints {
		t.Fatalf("grid %dx%d fits the planner's %d points", mc.Cores, mc.LLCWays, utility.MaxPlanPoints)
	}
	a, err := NewAgent(AgentConfig{
		Name:    "huge",
		Machine: mc,
		LC:      spec(t, "xapian"),
		LCModel: models["xapian"],
		Trace:   loadTrace,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, a, 3*time.Second)
	srv := serveAgent(t, a)

	resp, err := http.Get(srv.URL + RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"planner_on":false`)) {
		t.Errorf("stats do not report planner_on false:\n%s", body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PlannerHits != 0 || st.PlannerWarm != 0 || st.PlannerFallbacks == 0 {
		t.Errorf("refused plan: hits=%d warm=%d fallbacks=%d, want only fallbacks", st.PlannerHits, st.PlannerWarm, st.PlannerFallbacks)
	}

	text := scrapeHandler(t, a.handleMetrics)
	if want := `pocolo_planner_mode{agent="huge",lc="xapian",mode="exact"} 1`; !strings.Contains(text, want) {
		t.Errorf("metrics lack %q\n%s", want, text)
	}
	if strings.Contains(text, `mode="planner"`) {
		t.Errorf("metrics report the planner path for a refused plan\n%s", text)
	}
}

func TestAgentPacingLoopAdvancesSimTime(t *testing.T) {
	a := newTestAgent(t, "a1", "tpcc")
	a.Start()
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Stats().SimSec >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pacing loop advanced only %v simulated seconds", a.Stats().SimSec)
}

func TestAgentStopIdempotentWithoutStart(t *testing.T) {
	a := newTestAgent(t, "a1", "sphinx")
	a.Stop()
	a.Stop()
}

func TestBoundedTelemetryOnLongRun(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian", "graph")
	// 4096-point default cap at 10 ticks/s: one simulated hour would hold
	// 36k points unbounded.
	advance(t, a, time.Hour)
	if got := a.host.PowerSeries().Len(); got != 4096 {
		t.Errorf("power series holds %d points, want capped at 4096", got)
	}
}

// getJSONT fetches a JSON body or fails the test.
func getJSONT(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// postAssignT posts an assignment and checks the status code.
func postAssignT(t *testing.T, baseURL, be string, wantStatus int) {
	t.Helper()
	body, err := json.Marshal(AssignRequest{BE: be})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+RouteAssign, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST assign %q = %d (%s), want %d", be, resp.StatusCode, msg, wantStatus)
	}
}
