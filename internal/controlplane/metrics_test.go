package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// The family contract: every family an operator scrapes, with its TYPE
// and label keys in order (le omitted). Each line was captured from the
// expositions of the hand-rolled writer this package used before every
// /metrics line moved onto obs.WriteProm, so a rename, a dropped family,
// or a reordered label set fails here.
var (
	// A default agent: tracing on, a best-effort app assigned.
	agentFamilies = []string{
		"pocolo_be_assigned gauge agent,lc,be",
		"pocolo_be_ops_by_total counter agent,lc,be",
		"pocolo_be_ops_total counter agent,lc",
		"pocolo_be_restores_total counter agent,lc",
		"pocolo_be_throttles_total counter agent,lc",
		"pocolo_be_throughput_ops gauge agent,lc",
		"pocolo_cap_restores_total counter agent,lc",
		"pocolo_cap_throttles_total counter agent,lc",
		"pocolo_control_ticks_total counter agent,lc",
		"pocolo_lc_offered_load_rps gauge agent,lc",
		"pocolo_lc_ops_total counter agent,lc",
		"pocolo_lc_p99_ms gauge agent,lc",
		"pocolo_lc_slack_ratio gauge agent,lc",
		"pocolo_lc_slack_ratio_distribution histogram agent,lc",
		"pocolo_planner_fallbacks_total counter agent,lc",
		"pocolo_planner_hits_total counter agent,lc",
		"pocolo_planner_mode gauge agent,lc,mode",
		"pocolo_planner_warm_total counter agent,lc",
		"pocolo_power_cap_watts gauge agent,lc",
		"pocolo_power_watts gauge agent,lc",
		"pocolo_sim_seconds_total counter agent,lc",
		"pocolo_tick_duration_seconds histogram agent,lc,phase",
		"pocolo_up gauge agent,lc",
	}
	// A stream controller with a budget tree, a tracer and a registry,
	// after one re-solve.
	controllerFamilies = []string{
		"pocolo_budget_brownouts_total counter",
		"pocolo_budget_node_watts gauge node",
		"pocolo_budget_rebalances_total counter",
		"pocolo_budget_share_watts gauge agent",
		"pocolo_controller_agent_up gauge agent,url",
		"pocolo_controller_agents gauge state",
		"pocolo_controller_deaths_total counter",
		"pocolo_controller_degraded gauge",
		"pocolo_controller_heartbeat_bytes_total counter",
		"pocolo_controller_heartbeat_frames_total counter type",
		"pocolo_controller_heartbeat_rejects_total counter",
		"pocolo_controller_heartbeat_resyncs_total counter",
		"pocolo_controller_heartbeat_stale_total counter",
		"pocolo_controller_placement gauge be,agent",
		"pocolo_controller_rejoins_total counter",
		"pocolo_controller_rounds_total counter",
		"pocolo_controller_solves_total counter",
		"pocolo_controller_unplaced_be gauge",
		"pocolo_obs_batch_augments_total counter pod",
		"pocolo_obs_batch_dirty_total counter pod",
		"pocolo_obs_batch_rounds_total counter pod",
		"pocolo_obs_budget_headroom_watts gauge host",
		"pocolo_obs_budget_rebalance_seconds histogram",
		"pocolo_obs_heartbeat_decode_seconds histogram",
		"pocolo_obs_heartbeat_frames_total counter verdict",
		"pocolo_obs_pod_solve_seconds histogram pod",
		"pocolo_obs_round_seconds histogram",
		"pocolo_obs_slo_breach_total counter slo",
		"pocolo_obs_slo_burn gauge slo",
		"pocolo_obs_slo_good_total counter slo",
		"pocolo_obs_slo_target_seconds gauge slo",
		"pocolo_obs_stream_staleness_seconds gauge pod",
		"pocolo_tick_duration_seconds histogram agent,phase",
	}
	// The slack distribution's bucket bounds, +Inf included.
	slackLE = []string{"-0.5", "-0.25", "-0.1", "-0.05", "0", "0.05", "0.1", "0.15", "0.2", "0.3", "0.5", "+Inf"}
)

// TestMetricsFamilyContract scrapes the contract's agent and controller
// and requires exactly the contract's families, and the slack
// distribution's eleven bounds.
func TestMetricsFamilyContract(t *testing.T) {
	agentText := scrapeHandler(t, contractAgent(t).handleMetrics)
	if got := exposedFamilies(agentText); !reflect.DeepEqual(got, agentFamilies) {
		t.Errorf("agent families drifted from the contract:\n got %q\nwant %q", got, agentFamilies)
	}
	var le []string
	for _, s := range decodeSamples(t, agentText) {
		if s.name == "pocolo_lc_slack_ratio_distribution_bucket" {
			le = append(le, s.labels["le"])
		}
	}
	if !reflect.DeepEqual(le, slackLE) {
		t.Errorf("slack distribution bounds = %q, want %q", le, slackLE)
	}
	ctlText := scrapeHandler(t, contractController(t).MetricsHandler)
	if got := exposedFamilies(ctlText); !reflect.DeepEqual(got, controllerFamilies) {
		t.Errorf("controller families drifted from the contract:\n got %q\nwant %q", got, controllerFamilies)
	}
}

// TestExpositionLabelEscaping puts each character the exposition format
// treats specially — the three it escapes, a tab it must leave literal,
// and a multi-byte rune — into an agent name, a best-effort app that has
// run on that agent, and the controller's agent name, best-effort app and
// budget node. Both handlers' scrapes must lint, and every such label
// must decode to the original value.
func TestExpositionLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ name, v string }{
		{"quote", `"`},
		{"backslash", `\`},
		{"newline", "\n"},
		{"tab", "\t"},
		{"utf8", "é"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agentName, beName, node := "agent"+tc.v+"1", "be"+tc.v+"x", "dc"+tc.v

			a := hostileAgent(t, agentName, beName)
			samples := decodeSamples(t, scrapeHandler(t, a.handleMetrics))
			for _, s := range samples {
				if got := s.labels["agent"]; got != agentName {
					t.Fatalf("%s: agent label %q, want %q", s.name, got, agentName)
				}
			}
			requireLabel(t, samples, "pocolo_be_ops_by_total", "be", beName)
			requireLabel(t, samples, "pocolo_be_assigned", "be", beName)

			samples = decodeSamples(t, scrapeHandler(t, hostileController(t, agentName, beName, node).MetricsHandler))
			requireLabel(t, samples, "pocolo_controller_agent_up", "agent", agentName)
			requireLabel(t, samples, "pocolo_controller_placement", "be", beName)
			requireLabel(t, samples, "pocolo_controller_placement", "agent", agentName)
			requireLabel(t, samples, "pocolo_budget_node_watts", "node", node)
			requireLabel(t, samples, "pocolo_budget_share_watts", "agent", agentName)
			requireLabel(t, samples, "pocolo_obs_budget_headroom_watts", "host", agentName)
		})
	}
}

// contractAgent is a default agent — tracing on — with a best-effort app
// assigned and a few simulated seconds run.
func contractAgent(t *testing.T) *Agent {
	t.Helper()
	a := newTestAgent(t, "agent-contract", "img-dnn", "graph")
	if err := a.Assign("graph"); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	return a
}

// contractController is a stream controller over four agents under one
// budget node, with a tracer and a registry, after its first round has
// placed both best-effort apps and divided the budget.
func contractController(t *testing.T) *Controller {
	t.Helper()
	const n = 4
	stats := make([]StatsResponse, n)
	names := make([]string, n)
	budget := 0.0
	for i := range stats {
		stats[i] = streamTestStats(t, fmt.Sprintf("agent-%d", i), "graph", "lstm")
		names[i] = stats[i].Agent
		budget += 0.9 * stats[i].ProvisionedPowerW
	}
	ctl := streamedController(t, stats, func(cfg *ControllerConfig) {
		cfg.BE = []string{"graph", "lstm"}
		cfg.BudgetTree = fmt.Sprintf("dc:%g{%s}", budget, strings.Join(names, ","))
	})
	if st := ctl.Status(); st.Solves != 1 || len(st.Placement) != 2 || st.Budget == nil {
		t.Fatalf("contract controller did not solve and divide: %+v", st)
	}
	return ctl
}

// streamedController builds a stream controller (tracer, registry,
// in-memory pushes) over agents reporting stats, ingests one full frame
// from each, and runs one round.
func streamedController(t *testing.T, stats []StatsResponse, mut func(*ControllerConfig)) *Controller {
	t.Helper()
	ctl, urls, _ := streamTestController(t, len(stats), 2, func(cfg *ControllerConfig) {
		cfg.Trace = trace.New("controller", 0)
		cfg.Obs = obs.NewRegistry()
		cfg.Client = &http.Client{Transport: &benchTransport{}}
		mut(cfg)
	})
	frames := make([][]byte, len(stats))
	for i := range stats {
		frame, err := NewHeartbeatEncoder(stats[i].Agent, urls[i]).Encode(stats[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	for i, ack := range ctl.IngestBatch(frames) {
		if ack.Reject || ack.Resync {
			t.Fatalf("frame %d ack %+v", i, ack)
		}
	}
	ctl.Round(context.Background())
	return ctl
}

// hostileAgent is an agent named agentName running a copy of graph
// renamed beName.
func hostileAgent(t *testing.T, agentName, beName string) *Agent {
	t.Helper()
	models := fixtureModels(t)
	be := *spec(t, "graph")
	be.Name = beName
	load, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(AgentConfig{
		Name:         agentName,
		Machine:      machine.XeonE52650(),
		LC:           spec(t, "img-dnn"),
		LCModel:      models["img-dnn"],
		BECandidates: []*workload.Spec{&be},
		BEModels:     map[string]*utility.Model{beName: models["graph"]},
		Trace:        load,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(beName); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	return a
}

// hostileController is a stream controller whose one agent, one
// best-effort app and budget root carry the given names.
func hostileController(t *testing.T, agentName, beName, node string) *Controller {
	t.Helper()
	st := streamTestStats(t, agentName, "graph")
	st.BECandidates = []string{beName}
	st.BEModels = map[string]*utility.Model{beName: st.BEModels["graph"]}
	tree, err := json.Marshal(map[string]any{
		"name": node, "watts": 0.9 * st.ProvisionedPowerW,
		"children": []map[string]any{{"name": agentName}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return streamedController(t, []StatsResponse{st}, func(cfg *ControllerConfig) {
		cfg.BE = []string{beName}
		cfg.BudgetTree = string(tree)
	})
}

// scrapeHandler serves one GET /metrics through handler.
func scrapeHandler(t *testing.T, handler http.HandlerFunc) string {
	t.Helper()
	rec := httptest.NewRecorder()
	handler(rec, httptest.NewRequest(http.MethodGet, RouteMetrics, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", RouteMetrics, rec.Code)
	}
	return rec.Body.String()
}

type sample struct {
	name   string
	labels map[string]string
}

// decodeSamples lints an exposition and decodes its sample lines.
func decodeSamples(t testing.TB, text string) []sample {
	t.Helper()
	if err := lintExposition(text); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	var out []sample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _, err := parseSample(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sample{name, labels})
	}
	return out
}

// requireLabel fails unless some sample of family carries key=want.
func requireLabel(t *testing.T, samples []sample, family, key, want string) {
	t.Helper()
	var got []string
	for _, s := range samples {
		if s.name == family {
			if s.labels[key] == want {
				return
			}
			got = append(got, s.labels[key])
		}
	}
	t.Fatalf("%s: no sample with %s=%q; decoded %q", family, key, want, got)
}

// exposedFamilies lists an exposition's families as "name type keys",
// sorted, where keys are the label keys in order of appearance, le
// omitted.
func exposedFamilies(text string) []string {
	types := make(map[string]string)
	keys := make(map[string][]string)
	current := ""
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			types[f[0]], current = f[1], f[0]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, k := range sampleLabelKeys(line) {
			if k != "le" && !slices.Contains(keys[current], k) {
				keys[current] = append(keys[current], k)
			}
		}
	}
	out := make([]string, 0, len(types))
	for name, typ := range types {
		out = append(out, strings.TrimSpace(name+" "+typ+" "+strings.Join(keys[name], ",")))
	}
	sort.Strings(out)
	return out
}

// sampleLabelKeys returns one sample line's label keys in order. The
// line must be well formed (decodeSamples lints first).
func sampleLabelKeys(line string) []string {
	open := strings.IndexByte(line, '{')
	if open < 0 || open > strings.IndexByte(line, ' ') {
		return nil
	}
	var keys []string
	for i := open + 1; line[i] != '}'; {
		eq := strings.IndexByte(line[i:], '=')
		keys = append(keys, line[i:i+eq])
		i += eq + 2 // past `="`
		for line[i] != '"' {
			if line[i] == '\\' {
				i++
			}
			i++
		}
		i++ // closing quote
		if line[i] == ',' {
			i++
		}
	}
	return keys
}
