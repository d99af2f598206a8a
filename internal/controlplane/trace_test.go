package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
	"pocolo/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAgentTraceEndpoint pages the full decision trace out of a live
// agent over /v1/trace and requires the paged stream to reproduce the
// ring exactly, validate against the event schema, and reject malformed
// cursors.
func TestAgentTraceEndpoint(t *testing.T) {
	a := newTestAgent(t, "agent-td", "img-dnn", "graph")
	if err := a.Assign("graph"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv := serveAgent(t, a)

	getPage := func(since uint64, limit int) TraceResponse {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s%s?since=%d&limit=%d", srv.URL, RouteTrace, since, limit))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", RouteTrace, resp.Status)
		}
		var page TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	var paged []trace.Event
	since := uint64(0)
	for {
		page := getPage(since, 7)
		if page.Agent != "agent-td" {
			t.Fatalf("page agent = %q", page.Agent)
		}
		if len(page.Events) == 0 {
			break
		}
		if len(page.Events) > 7 {
			t.Fatalf("page of %d events exceeds limit 7", len(page.Events))
		}
		paged = append(paged, page.Events...)
		since = page.Next
	}
	direct := a.Tracer().Events()
	if len(direct) == 0 {
		t.Fatal("agent recorded no events")
	}
	if len(paged) != len(direct) {
		t.Fatalf("paged %d events, ring holds %d", len(paged), len(direct))
	}
	controls := 0
	for i, ev := range paged {
		if ev.Seq != direct[i].Seq || ev.Kind != direct[i].Kind || ev.TNS != direct[i].TNS {
			t.Fatalf("paged[%d] = %+v, ring holds %+v", i, ev, direct[i])
		}
		if ev.Kind == trace.KindControl {
			controls++
		}
	}
	if controls < 5 {
		t.Fatalf("%d control decisions over 5 simulated seconds, want one per control tick", controls)
	}
	if err := trace.Validate(paged); err != nil {
		t.Fatalf("paged trace fails validation: %v", err)
	}

	// A cursor past the end returns an empty page with the cursor held.
	if page := getPage(since, 7); len(page.Events) != 0 || page.Next != since {
		t.Fatalf("past-the-end page = %d events, next %d (cursor was %d)", len(page.Events), page.Next, since)
	}

	for _, bad := range []string{"?since=xyz", "?limit=0", "?limit=-2", "?limit=abc"} {
		resp, err := http.Get(srv.URL + RouteTrace + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s%s: %s, want 400", RouteTrace, bad, resp.Status)
		}
	}
}

// TestAgentTraceDisabled builds an agent with tracing off: the manager
// runs untraced and /v1/trace serves empty pages rather than erroring.
func TestAgentTraceDisabled(t *testing.T) {
	models := fixtureModels(t)
	loadTrace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{
		Name:        "agent-off",
		Machine:     machine.XeonE52650(),
		LC:          spec(t, "img-dnn"),
		LCModel:     models["img-dnn"],
		Trace:       loadTrace,
		SimTick:     100 * time.Millisecond,
		Seed:        3,
		TraceEvents: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tracer() != nil {
		t.Fatal("TraceEvents < 0 should disable the tracer")
	}
	if err := a.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.handleTrace(rec, httptest.NewRequest(http.MethodGet, RouteTrace, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("disabled-trace GET = %d", rec.Code)
	}
	var page TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Dropped != 0 {
		t.Fatalf("disabled tracer served %d events, dropped %d", len(page.Events), page.Dropped)
	}
}

// TestMetricsExpositionLints drives a traced agent, scrapes /metrics, and
// lints the complete exposition — stats gauges and counters plus the
// tick-duration and slack histograms — then does the same for an
// observed controller's exposition.
func TestMetricsExpositionLints(t *testing.T) {
	a := newTestAgent(t, "agent-lint", "img-dnn", "graph")
	if err := a.Assign("graph"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.handleMetrics(rec, httptest.NewRequest(http.MethodGet, RouteMetrics, nil))
	body := rec.Body.String()
	if err := lintExposition(body); err != nil {
		t.Fatalf("agent exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"pocolo_be_throttles_total",
		"pocolo_be_restores_total",
		`pocolo_planner_mode{agent="agent-lint",lc="img-dnn",mode="planner"} 1`,
		"# TYPE pocolo_tick_duration_seconds histogram",
		`phase="control_tick"`,
		"pocolo_tick_duration_seconds_bucket",
		"pocolo_lc_slack_ratio_distribution_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("agent exposition lacks %q", want)
		}
	}

	srv := serveAgent(t, a)
	ctl, err := NewController(ControllerConfig{
		AgentURLs: []string{srv.URL},
		BE:        []string{"graph"},
		Heartbeat: 10 * time.Millisecond,
		Timeout:   2 * time.Second,
		Seed:      1,
		Trace:     trace.New("controller", 0),
		Obs:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Round(context.Background())
	rec = httptest.NewRecorder()
	ctl.MetricsHandler(rec, httptest.NewRequest(http.MethodGet, RouteMetrics, nil))
	body = rec.Body.String()
	if err := lintExposition(body); err != nil {
		t.Fatalf("controller exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{"pocolo_controller_solves_total", `phase="solve"`, `phase="build_matrix"`} {
		if !strings.Contains(body, want) {
			t.Errorf("controller exposition lacks %q", want)
		}
	}
}

// TestAgentMetricsGolden pins the exact exposition bytes for a synthetic
// snapshot with escaping-hostile label values. Regenerate with
// go test ./internal/controlplane -run Golden -update.
func TestAgentMetricsGolden(t *testing.T) {
	s := StatsResponse{
		Agent:             "node-\"1\"\\\ntail",
		LC:                "img-dnn",
		PeakLoad:          500,
		ProvisionedPowerW: 120,
		OfferedLoad:       250.5,
		Slack:             0.125,
		P99Ms:             3.25,
		PowerW:            96.5,
		CapW:              120,
		BEThroughput:      42.75,
		AssignedBE:        "graph",
		LCOps:             100000,
		BEOps:             2048,
		BEOpsBy:           map[string]float64{"graph": 2000, `we"ird\be`: 48},
		ControlTicks:      300,
		CapThrottles:      12,
		CapRestores:       9,
		PlannerHits:       250,
		PlannerWarm:       40,
		PlannerFallbacks:  10,
		BEThrottles:       11,
		BERestores:        8,
		PlannerOn:         true,
		SimSec:            300,
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, agentMetrics(s, obs.Snapshot{})); err != nil {
		t.Fatal(err)
	}
	if err := lintExposition(buf.String()); err != nil {
		t.Fatalf("golden exposition fails lint: %v", err)
	}
	golden := filepath.Join("testdata", "agent_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestLintExpositionRejects feeds the linter the violations it exists to
// catch.
func TestLintExpositionRejects(t *testing.T) {
	histHeader := "# HELP pocolo_h h\n# TYPE pocolo_h histogram\n"
	cases := map[string]string{
		"sample before headers":    "pocolo_x 1\n",
		"missing TYPE":             "# HELP pocolo_x h\npocolo_x 1\n",
		"missing HELP":             "# TYPE pocolo_x gauge\npocolo_x 1\n",
		"counter without _total":   "# HELP pocolo_x h\n# TYPE pocolo_x counter\npocolo_x 1\n",
		"unknown type":             "# HELP pocolo_x h\n# TYPE pocolo_x countttter\npocolo_x 1\n",
		"duplicate HELP":           "# HELP pocolo_x h\n# HELP pocolo_x h\n",
		"bad escape":               "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x{a=\"\\q\"} 1\n",
		"unquoted label value":     "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x{a=b} 1\n",
		"unterminated label block": "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x{a=\"b\" 1\n",
		"bad label name":           "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x{9a=\"b\"} 1\n",
		"unparsable value":         "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x one\n",
		"sample outside family":    "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x 1\npocolo_y 2\n",
		"bucket without le":        histHeader + "pocolo_h_bucket{a=\"b\"} 1\npocolo_h_sum 1\npocolo_h_count 1\n",
		"decreasing buckets": histHeader +
			"pocolo_h_bucket{le=\"1\"} 5\npocolo_h_bucket{le=\"2\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1\npocolo_h_count 5\n",
		"no +Inf bucket": histHeader +
			"pocolo_h_bucket{le=\"1\"} 5\npocolo_h_sum 1\npocolo_h_count 5\n",
		"+Inf != _count": histHeader +
			"pocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1\npocolo_h_count 4\n",
		"histogram without _count": histHeader +
			"pocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1\n",
		"equal le bounds": histHeader +
			"pocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1\npocolo_h_count 5\n",
		"descending le bounds": histHeader +
			"pocolo_h_bucket{le=\"2\"} 3\npocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1\npocolo_h_count 5\n",
		"descending le across label sets": histHeader +
			"pocolo_h_bucket{pod=\"a\",le=\"1\"} 1\npocolo_h_bucket{pod=\"a\",le=\"+Inf\"} 1\n" +
			"pocolo_h_sum{pod=\"a\"} 1\npocolo_h_count{pod=\"a\"} 1\n" +
			"pocolo_h_bucket{pod=\"b\",le=\"2\"} 1\npocolo_h_bucket{pod=\"b\",le=\"1\"} 1\npocolo_h_bucket{pod=\"b\",le=\"+Inf\"} 1\n" +
			"pocolo_h_sum{pod=\"b\"} 1\npocolo_h_count{pod=\"b\"} 1\n",
		"content after EOF": "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x 1\n# EOF\npocolo_x 2\n",
		"HELP after EOF":    "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x 1\n# EOF\n# HELP pocolo_y h\n",
	}
	for name, text := range cases {
		if err := lintExposition(text); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, text)
		}
	}
	goods := map[string]string{
		"valid histogram": histHeader +
			"pocolo_h_bucket{le=\"1\"} 3\npocolo_h_bucket{le=\"+Inf\"} 5\npocolo_h_sum 1.5\npocolo_h_count 5\n",
		"EOF terminator": "# HELP pocolo_x h\n# TYPE pocolo_x gauge\npocolo_x 1\n# EOF\n",
		"per-label-set le ladders restart": histHeader +
			"pocolo_h_bucket{pod=\"a\",le=\"1\"} 1\npocolo_h_bucket{pod=\"a\",le=\"+Inf\"} 1\n" +
			"pocolo_h_sum{pod=\"a\"} 1\npocolo_h_count{pod=\"a\"} 1\n" +
			"pocolo_h_bucket{pod=\"b\",le=\"1\"} 1\npocolo_h_bucket{pod=\"b\",le=\"+Inf\"} 1\n" +
			"pocolo_h_sum{pod=\"b\"} 1\npocolo_h_count{pod=\"b\"} 1\n",
	}
	for name, text := range goods {
		if err := lintExposition(text); err != nil {
			t.Errorf("%s: lint rejected valid exposition: %v\n%s", name, err, text)
		}
	}
}

// TestControllerCollectTrace merges agent rings with the controller's own
// events over /v1/trace: the combined timeline must carry decisions from
// every host, pass schema validation (which also proves no event was
// fetched twice — duplicate sequence numbers fail it), and be stable
// across repeated collections.
func TestControllerCollectTrace(t *testing.T) {
	a1 := newTestAgent(t, "agent-1", "img-dnn", "graph", "lstm")
	a2 := newTestAgent(t, "agent-2", "sphinx", "graph", "lstm")
	s1, s2 := serveAgent(t, a1), serveAgent(t, a2)
	ctl, err := NewController(ControllerConfig{
		AgentURLs: []string{s1.URL, s2.URL},
		BE:        []string{"graph"},
		Heartbeat: 10 * time.Millisecond,
		Timeout:   2 * time.Second,
		Seed:      1,
		Trace:     trace.New("controller", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ctl.Round(ctx)
	for i := 0; i < 3; i++ {
		if err := a1.Advance(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := a2.Advance(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		ctl.Round(ctx)
	}

	events := ctl.CollectTrace(ctx)
	byHost := make(map[string]int)
	byKind := make(map[trace.Kind]int)
	for _, ev := range events {
		byHost[ev.Host]++
		byKind[ev.Kind]++
	}
	for _, host := range []string{"agent-1", "agent-2", "controller"} {
		if byHost[host] == 0 {
			t.Errorf("merged timeline has no events from %s (hosts: %v)", host, byHost)
		}
	}
	if byKind[trace.KindControl] == 0 || byKind[trace.KindPlacement] == 0 || byKind[trace.KindSolve] == 0 {
		t.Fatalf("merged timeline kind counts %v, want control, placement, and solve events", byKind)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("merged timeline fails validation: %v", err)
	}

	// Collecting again without new work must not duplicate agent events.
	again := ctl.CollectTrace(ctx)
	if err := trace.Validate(again); err != nil {
		t.Fatalf("re-collected timeline fails validation (duplicate fetch?): %v", err)
	}
	agentEvents := func(evs []trace.Event) int {
		n := 0
		for _, ev := range evs {
			if ev.Host != "controller" {
				n++
			}
		}
		return n
	}
	if agentEvents(again) != agentEvents(events) {
		t.Fatalf("agent events grew from %d to %d with no new work", agentEvents(events), agentEvents(again))
	}

	// The HTTP surface serves the same merged timeline.
	rec := httptest.NewRecorder()
	ctl.TraceHandler(rec, httptest.NewRequest(http.MethodGet, RouteTrace, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("TraceHandler = %d", rec.Code)
	}
	var page TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Agent != "controller" || len(page.Events) < len(events) {
		t.Fatalf("TraceHandler served %d events for %q, want >= %d for controller", len(page.Events), page.Agent, len(events))
	}
}

// traceTransport serves each agent's decision trace over /v1/trace from
// its ring, keyed by base URL, paged by the since cursor.
type traceTransport map[string]*trace.Tracer

func (rings traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := rings[req.URL.Scheme+"://"+req.URL.Host]
	since, err := strconv.ParseUint(req.URL.Query().Get("since"), 10, 64)
	if err != nil {
		return nil, err
	}
	events, next := tr.EventsSince(since, 4096)
	body, err := json.Marshal(TraceResponse{Agent: tr.Host(), Events: events, Next: next})
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header), Body: httpBody(body), Request: req}, nil
}

// TestCollectTraceStalledAgents: with every live agent but agents 3 and 7
// holding its trace request open for the full timeout, 8 of 10 or 40 of
// 42, CollectTrace pages every agent at once, each stall on a worker of
// its own, so it returns within one and a half timeouts, where
// maxRPCWorkers workers would need two for the 40 stalls. The fast
// agents' events are merged and their cursors advance; each stalled
// agent's failure is logged after the join, in agent order, and its
// cursor stays where it was.
func TestCollectTraceStalledAgents(t *testing.T) {
	for _, n := range []int{10, 42} {
		t.Run(fmt.Sprintf("%d-agents", n), func(t *testing.T) { checkCollectTraceStalled(t, n) })
	}
}

func checkCollectTraceStalled(t *testing.T, n int) {
	const timeout = 200 * time.Millisecond
	fast := make(traceTransport) // the agents that answer; the others stall
	tr := &stallTransport{stall: func(base string) bool { return fast[base] == nil }, inner: fast}
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://trace-agent-%d", i)
	}
	var logs []string
	ctl, err := NewController(ControllerConfig{
		AgentURLs: urls,
		Timeout:   timeout,
		Client:    &http.Client{Transport: tr},
		Logf:      func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string // the stalled agents, in agent order
	for i, a := range ctl.agents {
		a.alive, a.everSeen, a.name = true, true, fmt.Sprintf("agent-%d", i)
		if i == 3 || i == 7 {
			agentTrace := trace.New(a.name, 0)
			agentTrace.Degradation(time.Unix(int64(i), 0), "first")
			agentTrace.Degradation(time.Unix(int64(i), 1), "second")
			fast[a.url] = agentTrace
		} else {
			want = append(want, a.url)
		}
	}

	start := time.Now()
	events := ctl.CollectTrace(context.Background())
	if elapsed, bound := time.Since(start), timeout+timeout/2; elapsed > bound {
		t.Fatalf("CollectTrace took %v with %d stalled agents (timeout %v), over the %v bound", elapsed, len(want), timeout, bound)
	}
	byHost := make(map[string]int)
	for _, ev := range events {
		byHost[ev.Host]++
	}
	if want := map[string]int{"agent-3": 2, "agent-7": 2}; !reflect.DeepEqual(byHost, want) {
		t.Fatalf("merged timeline events by host %v, want %v", byHost, want)
	}
	for _, u := range urls {
		want := uint64(0)
		if fast[u] != nil {
			want = 2
		}
		if ctl.cursors[u] != want {
			t.Errorf("%s cursor %d, want %d", u, ctl.cursors[u], want)
		}
	}
	var failed []string
	for _, line := range logs {
		if u, _, ok := strings.Cut(strings.TrimPrefix(line, "trace fetch from "), " failed: "); ok {
			failed = append(failed, u)
		}
	}
	if !reflect.DeepEqual(failed, want) {
		t.Fatalf("logged trace fetch failures for %v, want %v (agent order)", failed, want)
	}
}

// TestCampaignTraceMatchesControllerLog is the fault-campaign decision
// audit: every migration and degradation line in the controller's log
// must have exactly one matching trace event, and the campaign must
// provoke at least one of each.
func TestCampaignTraceMatchesControllerLog(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	hb := time.Second
	tr := trace.New("controller", 0)
	var mu sync.Mutex
	migrated, degraded := 0, 0
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case strings.HasPrefix(format, "migrated "):
			migrated++
		case strings.HasPrefix(format, "degraded: "):
			degraded++
		}
	}
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:        bes,
			Heartbeat: hb,
			DeadAfter: 2,
			Seed:      7,
			Logf:      logf,
			Trace:     tr,
		},
		Agents: campaignAgentConfigs(t, lcs, bes),
		Faults: []FaultEvent{
			// Solo crashes force a migration off whichever agents host BEs;
			// the simultaneous pair leaves a minority alive, forcing a
			// degradation.
			{At: 4 * hb, Agent: 0, Kind: FaultCrash, Duration: 3 * hb},
			{At: 12 * hb, Agent: 1, Kind: FaultCrash, Duration: 3 * hb},
			{At: 20 * hb, Agent: 2, Kind: FaultCrash, Duration: 3 * hb},
			{At: 28 * hb, Agent: 0, Kind: FaultCrash, Duration: 3 * hb},
			{At: 28 * hb, Agent: 1, Kind: FaultCrash, Duration: 3 * hb},
		},
		Duration: 40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}

	byKind := make(map[trace.Kind]int)
	for _, ev := range tr.Events() {
		byKind[ev.Kind]++
		if ev.Kind == trace.KindMigration {
			if ev.Place.BE == "" || ev.Place.From == "" || ev.Place.Node == "" || ev.Place.From == ev.Place.Node {
				t.Errorf("malformed migration event: %+v", ev.Place)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if migrated == 0 {
		t.Fatal("campaign provoked no migrations")
	}
	if degraded == 0 {
		t.Fatal("campaign provoked no degradations")
	}
	if byKind[trace.KindMigration] != migrated {
		t.Fatalf("%d migration events but %d migration log lines", byKind[trace.KindMigration], migrated)
	}
	if byKind[trace.KindDegradation] != degraded {
		t.Fatalf("%d degradation events but %d degradation log lines", byKind[trace.KindDegradation], degraded)
	}
	if err := trace.Validate(tr.Events()); err != nil {
		t.Fatalf("controller campaign trace fails validation: %v", err)
	}
}

// TestAgentTracePaginationAcrossWrap holds a /v1/trace cursor while the
// agent's small ring wraps and grows underneath: pages fetched before
// and after the wrap must never duplicate a sequence, must stay
// strictly ascending, and must resume at the oldest retained event once
// eviction has overtaken the cursor.
func TestAgentTracePaginationAcrossWrap(t *testing.T) {
	models := fixtureModels(t)
	loadTrace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{
		Name:        "agent-wrap",
		Machine:     machine.XeonE52650(),
		LC:          spec(t, "img-dnn"),
		LCModel:     models["img-dnn"],
		Trace:       loadTrace,
		SimTick:     100 * time.Millisecond,
		Seed:        5,
		TraceEvents: 16, // below ringSeed: wraps after 16 control ticks
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveAgent(t, a)

	getPage := func(since uint64, limit int) TraceResponse {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s%s?since=%d&limit=%d", srv.URL, RouteTrace, since, limit))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", RouteTrace, resp.Status)
		}
		var page TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// First page before any eviction.
	if err := a.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	page := getPage(0, 4)
	if len(page.Events) != 4 {
		t.Fatalf("first page = %d events", len(page.Events))
	}
	got = append(got, page.Events...)
	cursor := page.Next

	// Wrap the ring well past the held cursor, then drain.
	if err := a.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for {
		page = getPage(cursor, 4)
		if len(page.Events) == 0 {
			if page.Next != cursor {
				t.Fatalf("empty page moved cursor %d -> %d", cursor, page.Next)
			}
			break
		}
		got = append(got, page.Events...)
		cursor = page.Next
	}
	if page.Dropped == 0 {
		t.Fatal("ring never wrapped; the test lost its subject")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("paged seq %d after %d: duplicate or regression across wrap", got[i].Seq, got[i-1].Seq)
		}
	}
	// The drained tail must match the ring's retained suffix exactly.
	direct := a.Tracer().Events()
	if len(direct) != 16 {
		t.Fatalf("ring holds %d events, want capacity 16", len(direct))
	}
	tail := got[len(got)-16:]
	for i := range tail {
		if tail[i].Seq != direct[i].Seq {
			t.Fatalf("drained tail[%d] seq %d, ring holds %d", i, tail[i].Seq, direct[i].Seq)
		}
	}
}
