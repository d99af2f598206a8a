package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
)

// TestObsExpositionGolden pins the exact exposition bytes obs.WriteProm
// produces for a synthetic registry with escaping-hostile label values,
// multi-series histogram families, and an OpenMetrics terminator, and
// requires the result to pass the control plane's linter. Regenerate
// with go test ./internal/controlplane -run Golden -update.
func TestObsExpositionGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pocolo_obs_heartbeat_frames_total", "Heartbeat frames by ingest verdict.",
		obs.Label{Key: "verdict", Value: "delta"}).Add(40)
	reg.Counter("pocolo_obs_heartbeat_frames_total", "Heartbeat frames by ingest verdict.",
		obs.Label{Key: "verdict", Value: "full"}).Add(2)
	reg.Gauge("pocolo_obs_budget_headroom_watts", "Installed budget share minus reported power draw per agent.",
		obs.Label{Key: "host", Value: "agent-\"0\"\\\ntail"}).Set(12.5)
	reg.Gauge("pocolo_obs_stream_staleness_seconds", "Max staleness per pod.",
		obs.Label{Key: "pod", Value: "pod-0"}).Set(1.25)
	for pod, observes := range map[string][]float64{
		"pod-0": {0.001, 0.002, 0.002, 0.008, 0.13},
		"pod-1": {0.004},
	} {
		h := reg.Histogram("pocolo_obs_pod_solve_seconds", "Wall-clock duration of per-pod batch re-solves.",
			obs.Label{Key: "pod", Value: pod})
		for _, v := range observes {
			h.Observe(v)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("# EOF\n")
	if err := lintExposition(buf.String()); err != nil {
		t.Fatalf("obs exposition fails lint: %v", err)
	}

	golden := filepath.Join("testdata", "obs_metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("obs exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestControllerObsMetricsAndTop runs an observed demo campaign end to
// end, then requires (a) the controller's /metrics exposition to carry
// the obs families, pass the linter, and end with the OpenMetrics
// terminator, and (b) the /v1/top fleet view to be fully populated:
// per-pod solve quantiles, round quantiles, and agent rollups.
func TestControllerObsMetricsAndTop(t *testing.T) {
	reg := obs.NewRegistry()
	camp, err := NewStreamDemo(StreamDemoConfig{Agents: 32, PodSize: 16, Rounds: 6, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	report, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("demo campaign did not converge: %v", err)
	}
	ctl := camp.Controller()

	rr := httptest.NewRecorder()
	ctl.MetricsHandler(rr, httptest.NewRequest(http.MethodGet, RouteMetrics, nil))
	text := rr.Body.String()
	if err := lintExposition(text); err != nil {
		t.Fatalf("observed controller exposition fails lint: %v\n%s", err, text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition does not end with the OpenMetrics terminator:\n...%s", text[max(0, len(text)-120):])
	}
	for _, want := range []string{
		"# TYPE pocolo_obs_round_seconds histogram",
		"pocolo_obs_round_seconds_count",
		`pocolo_obs_pod_solve_seconds_bucket{pod="pod-0",le=`,
		`pocolo_obs_pod_solve_seconds_bucket{pod="pod-1",le=`,
		`pocolo_controller_heartbeat_frames_total{type="delta"}`,
		`pocolo_controller_heartbeat_frames_total{type="full"}`,
		`pocolo_obs_slo_burn{slo="round"}`,
		`pocolo_obs_slo_burn{slo="staleness"}`,
		`pocolo_obs_stream_staleness_seconds{pod="pod-0"}`,
		"pocolo_obs_budget_headroom_watts",
		"pocolo_obs_budget_rebalance_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("observed exposition missing %q", want)
		}
	}

	top := ctl.Top()
	if top.Transport != TransportStream {
		t.Fatalf("top.Transport = %q", top.Transport)
	}
	if top.Rounds < 6 {
		t.Fatalf("top.Rounds = %d, want >= 6", top.Rounds)
	}
	if top.RoundP99Ms <= 0 || top.RoundP99Ms < top.RoundP50Ms {
		t.Fatalf("round quantiles p50=%.3f p99=%.3f", top.RoundP50Ms, top.RoundP99Ms)
	}
	if len(top.Pods) != 2 {
		t.Fatalf("top has %d pods, want 2", len(top.Pods))
	}
	for _, p := range top.Pods {
		if p.Agents != 16 || p.Alive != 16 {
			t.Errorf("pod %s: agents=%d alive=%d, want 16/16", p.Pod, p.Agents, p.Alive)
		}
		if p.SolveP50Ms <= 0 || p.SolveP99Ms < p.SolveP50Ms {
			t.Errorf("pod %s: solve quantiles p50=%.3f p99=%.3f", p.Pod, p.SolveP50Ms, p.SolveP99Ms)
		}
	}

	// The JSON handler serves the same snapshot.
	rr = httptest.NewRecorder()
	ctl.TopHandler(rr, httptest.NewRequest(http.MethodGet, RouteTop, nil))
	var viaHTTP TopSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &viaHTTP); err != nil {
		t.Fatalf("decoding /v1/top: %v", err)
	}
	if len(viaHTTP.Pods) != len(top.Pods) || viaHTTP.Transport != top.Transport {
		t.Fatalf("/v1/top disagrees with Top(): %+v vs %+v", viaHTTP, top)
	}
}

// TestStreamDemoFlightBundle breaches the round deadline once with
// injected latency and requires exactly one flight bundle whose parts
// all parse and cross-check, and whose event log is byte-identical
// across two runs of the same seed — the recorder's determinism
// contract (only meta.json's wall_ns field may differ).
func TestStreamDemoFlightBundle(t *testing.T) {
	run := func(dir string) {
		// The delta-cell memo is process-wide: clear it so both runs trace
		// the same computed/reused cell counts.
		cluster.ResetMemo()
		report, err := RunStreamDemo(context.Background(), StreamDemoConfig{
			Agents: 16, PodSize: 8, Rounds: 8, Seed: 7,
			SlowRound: 5, FlightDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Err(); err != nil {
			t.Fatalf("campaign with injected latency did not converge: %v", err)
		}
	}
	bundles := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}

	dir1, dir2 := t.TempDir(), t.TempDir()
	run(dir1)
	run(dir2)
	n1, n2 := bundles(dir1), bundles(dir2)
	if len(n1) != 1 || len(n2) != 1 {
		t.Fatalf("want exactly one bundle per run, got %v and %v", n1, n2)
	}
	if n1[0] != n2[0] {
		t.Fatalf("bundle names differ across seeded runs: %q vs %q (name must be wall-clock free)", n1[0], n2[0])
	}

	b := filepath.Join(dir1, n1[0])
	metaBytes, err := os.ReadFile(filepath.Join(b, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta obs.BundleMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Reason != "round-deadline" {
		t.Fatalf("meta.Reason = %q", meta.Reason)
	}
	if round, _ := meta.Detail["round"].(float64); int(round) != 5 {
		t.Fatalf("meta.Detail[round] = %v, want 5", meta.Detail["round"])
	}

	evBytes, err := os.ReadFile(filepath.Join(b, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseJSONL(bytes.NewReader(evBytes))
	if err != nil {
		t.Fatalf("events.jsonl: %v", err)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("bundle events invalid: %v", err)
	}
	if len(events) == 0 || len(events) != meta.Events {
		t.Fatalf("bundle has %d events, meta says %d", len(events), meta.Events)
	}

	obsBytes, err := os.ReadFile(filepath.Join(b, "obs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(obsBytes, &snap); err != nil {
		t.Fatalf("obs.json: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("obs.json snapshot empty: %d counters, %d histograms", len(snap.Counters), len(snap.Histograms))
	}

	podBytes, err := os.ReadFile(filepath.Join(b, "pods.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pods []struct {
		Agent string `json:"agent"`
		Pod   string `json:"pod"`
		Alive bool   `json:"alive"`
	}
	if err := json.Unmarshal(podBytes, &pods); err != nil {
		t.Fatalf("pods.json: %v", err)
	}
	if len(pods) != 16 {
		t.Fatalf("pods.json has %d rows, want 16", len(pods))
	}

	for _, name := range []string{"goroutine.txt", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}

	evBytes2, err := os.ReadFile(filepath.Join(dir2, n2[0], "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evBytes, evBytes2) {
		t.Fatalf("event logs differ across identical seeded runs (%d vs %d bytes)", len(evBytes), len(evBytes2))
	}
}

// TestPodStalenessIsTheOldestReport crashes two agents of one pod at
// different times, on each transport. The pod's staleness in /v1/top is
// the age of its oldest last report, not a count of misses: 12 s after
// 14 rounds for the agent silent since t=2 s. A flight bundle's per-agent
// rows carry each agent's own age.
func TestPodStalenessIsTheOldestReport(t *testing.T) {
	for _, transport := range []string{TransportPoll, TransportStream} {
		t.Run(transport, func(t *testing.T) {
			hb := time.Second
			camp, err := NewCampaign(CampaignConfig{
				ControllerConfig: ControllerConfig{
					Heartbeat: hb,
					DeadAfter: 2,
					Transport: transport,
				},
				Agents: campaignAgentConfigs(t, []string{"img-dnn", "sphinx", "xapian", "tpcc"}, nil),
				Faults: []FaultEvent{
					{At: 2 * hb, Agent: 0, Kind: FaultCrash, Duration: time.Hour},
					{At: 10 * hb, Agent: 1, Kind: FaultCrash, Duration: time.Hour},
				},
				Duration: 14 * hb,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := camp.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			ctl := camp.Controller()
			top := ctl.Top()
			if len(top.Pods) != 1 || top.Pods[0].StalenessS != 12 {
				t.Fatalf("pods %+v, want one pod at 12 s staleness", top.Pods)
			}
			want := []float64{12, 4, 0, 0}
			for i, pc := range ctl.podCounters(ctl.now()) {
				if pc.StaleS != want[i] {
					t.Errorf("agent %d staleness %.1f s, want %.1f s", i, pc.StaleS, want[i])
				}
			}
		})
	}
}

// TestFlightBundleCarriesStreamStats requires a bundle's meta.json to
// carry the controller's heartbeat ingest counters, since no registry
// series counts frames.
func TestFlightBundleCarriesStreamStats(t *testing.T) {
	dir := t.TempDir()
	report, err := RunStreamDemo(context.Background(), StreamDemoConfig{
		Agents: 8, PodSize: 4, Rounds: 5, Seed: 7, SlowRound: 3, FlightDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "bundle-*", "meta.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("want one bundle, got %v (%v)", bundles, err)
	}
	raw, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Detail struct {
			Heartbeats StreamStats `json:"heartbeats"`
		} `json:"detail"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	got := meta.Detail.Heartbeats
	if got.Bytes == 0 {
		t.Fatalf("meta.json heartbeats %+v count no bytes", got)
	}
	got.Bytes = 0
	// Three rounds of eight agents: one full frame each, then deltas.
	if want := (StreamStats{Frames: 24, Fulls: 8, Deltas: 16}); got != want {
		t.Fatalf("meta.json heartbeats %+v, want %+v", got, want)
	}
}
