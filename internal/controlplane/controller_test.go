package controlplane

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyHandler wraps an agent handler with a switchable failure mode, so
// tests can simulate an unreachable agent without tearing down the
// listener.
type flakyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	fail  bool
}

func (f *flakyHandler) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	failing := f.fail
	f.mu.Unlock()
	if failing {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// testCluster is a loopback control-plane fixture driven by explicit
// Round calls (no wall-clock heartbeats), keeping failure-detection tests
// deterministic.
type testCluster struct {
	agents  []*Agent
	servers []*httptest.Server
	flaky   []*flakyHandler
	ctl     *Controller
}

func newTestCluster(t *testing.T, lcs []string, bes []string, mutate func(*ControllerConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, len(lcs))
	for i, lc := range lcs {
		a := newTestAgent(t, "agent-"+lc, lc, bes...)
		f := &flakyHandler{inner: a.Handler()}
		srv := httptest.NewServer(f)
		t.Cleanup(srv.Close)
		tc.agents = append(tc.agents, a)
		tc.flaky = append(tc.flaky, f)
		tc.servers = append(tc.servers, srv)
		urls[i] = srv.URL
	}
	cfg := ControllerConfig{
		AgentURLs: urls,
		BE:        bes,
		Heartbeat: 10 * time.Millisecond,
		Timeout:   2 * time.Second,
		DeadAfter: 2,
		Retries:   0,
		Seed:      3,
		Logf:      t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.ctl = ctl
	return tc
}

// advanceAll steps every agent's simulation.
func (tc *testCluster) advanceAll(t *testing.T, d time.Duration) {
	t.Helper()
	for _, a := range tc.agents {
		advance(t, a, d)
	}
}

func TestNewControllerValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ControllerConfig
	}{
		{"no agents", ControllerConfig{}},
		{"empty url", ControllerConfig{AgentURLs: []string{""}}},
		{"duplicate url", ControllerConfig{AgentURLs: []string{"http://a", "http://a"}}},
		{"negative heartbeat", ControllerConfig{AgentURLs: []string{"http://a"}, Heartbeat: -time.Second}},
		{"negative dead-after", ControllerConfig{AgentURLs: []string{"http://a"}, DeadAfter: -1}},
		{"negative retries", ControllerConfig{AgentURLs: []string{"http://a"}, Retries: -1}},
		{"bad jitter", ControllerConfig{AgentURLs: []string{"http://a"}, Jitter: 1.5}},
		{"retired solver", ControllerConfig{AgentURLs: []string{"http://a"}, Solver: "lp"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewController(tc.cfg); err == nil {
				t.Error("expected a config error")
			}
		})
	}
	for _, solver := range []string{"", SolverSharded} {
		if _, err := NewController(ControllerConfig{AgentURLs: []string{"http://a"}, Solver: solver}); err != nil {
			t.Errorf("valid config (solver %q) rejected: %v", solver, err)
		}
	}
}

func TestControllerPlacesAndReconciles(t *testing.T) {
	tc := newTestCluster(t, []string{"img-dnn", "sphinx", "xapian"}, []string{"graph", "lstm"}, nil)
	ctx := context.Background()
	tc.advanceAll(t, 5*time.Second)

	// Round 1 discovers all agents and solves; pushes go out immediately.
	tc.ctl.Round(ctx)
	st := tc.ctl.Status()
	if st.Solves != 1 {
		t.Fatalf("Solves = %d, want 1", st.Solves)
	}
	if len(st.Placement) != 2 {
		t.Fatalf("placement = %v, want both BE apps placed", st.Placement)
	}
	hosts := map[string]bool{}
	for be, agentName := range st.Placement {
		if hosts[agentName] {
			t.Errorf("two BE apps on %s", agentName)
		}
		hosts[agentName] = true
		found := false
		for _, a := range tc.agents {
			if a.Name() == agentName && a.Assigned() == be {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not actually assigned on %s", be, agentName)
		}
	}

	// The placed apps do real work.
	tc.advanceAll(t, 10*time.Second)
	tc.ctl.Round(ctx)
	for _, a := range tc.ctl.Status().Agents {
		if a.AssignedBE != "" && a.PowerW <= 0 {
			t.Errorf("agent %s reports no power draw", a.Name)
		}
	}

	// A manual divergence on an agent is reconciled back.
	var victim *Agent
	for _, a := range tc.agents {
		if a.Assigned() != "" {
			victim = a
			break
		}
	}
	want := victim.Assigned()
	if err := victim.Assign(""); err != nil {
		t.Fatal(err)
	}
	tc.ctl.Round(ctx) // observes divergence, re-pushes
	if got := victim.Assigned(); got != want {
		t.Errorf("reconcile did not restore assignment: got %q, want %q", got, want)
	}
}

func TestControllerDeadAfterKMissesAndMigration(t *testing.T) {
	tc := newTestCluster(t, []string{"img-dnn", "sphinx", "xapian"}, []string{"graph", "lstm"}, nil)
	ctx := context.Background()
	tc.advanceAll(t, 5*time.Second)
	tc.ctl.Round(ctx)
	st := tc.ctl.Status()
	if len(st.Placement) != 2 {
		t.Fatalf("bootstrap placement = %v", st.Placement)
	}

	// Kill one hosting agent (fail its listener responses).
	var victimIdx int
	for i, a := range tc.agents {
		if a.Assigned() != "" {
			victimIdx = i
			break
		}
	}
	victim := tc.agents[victimIdx]
	victimBE := victim.Assigned()
	tc.flaky[victimIdx].setFail(true)

	// K-1 misses: still alive, placement unchanged.
	tc.ctl.Round(ctx)
	st = tc.ctl.Status()
	for _, a := range st.Agents {
		if a.Name == victim.Name() {
			if !a.Alive || a.Misses != 1 {
				t.Fatalf("after 1 miss: alive=%v misses=%d", a.Alive, a.Misses)
			}
		}
	}
	if st.Deaths != 0 {
		t.Fatalf("premature death at %d misses", 1)
	}

	// K-th miss: dead, BE migrated to a survivor within the same round.
	tc.ctl.Round(ctx)
	st = tc.ctl.Status()
	if st.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", st.Deaths)
	}
	newHost, ok := st.Placement[victimBE]
	if !ok || newHost == victim.Name() {
		t.Fatalf("%s not migrated: placement=%v", victimBE, st.Placement)
	}
	migrated := false
	for _, a := range tc.agents {
		if a.Name() == newHost && a.Assigned() == victimBE {
			migrated = true
		}
	}
	if !migrated {
		t.Errorf("migration not pushed to %s", newHost)
	}

	// Dead agents are probed on a capped exponential backoff, and a
	// recovery re-solves the placement again.
	tc.flaky[victimIdx].setFail(false)
	deadline := time.Now().Add(5 * time.Second)
	for tc.ctl.Status().Rejoins == 0 && time.Now().Before(deadline) {
		tc.ctl.Round(ctx)
		time.Sleep(5 * time.Millisecond)
	}
	st = tc.ctl.Status()
	if st.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", st.Rejoins)
	}
	if len(st.Placement) != 2 {
		t.Errorf("post-rejoin placement = %v", st.Placement)
	}
}

func TestControllerMajorityUnreachableDegrades(t *testing.T) {
	tc := newTestCluster(t, []string{"img-dnn", "sphinx", "xapian"}, []string{"graph"}, nil)
	ctx := context.Background()
	tc.advanceAll(t, 5*time.Second)
	tc.ctl.Round(ctx)
	before := tc.ctl.Status()
	if len(before.Placement) != 1 || before.Degraded {
		t.Fatalf("bootstrap: %+v", before)
	}

	// Take down two of three agents: only a minority remains.
	tc.flaky[0].setFail(true)
	tc.flaky[1].setFail(true)
	for i := 0; i < 3; i++ {
		tc.ctl.Round(ctx)
	}
	st := tc.ctl.Status()
	if !st.Degraded {
		t.Error("controller should be degraded with 1/3 agents reachable")
	}
	for be, host := range before.Placement {
		if st.Placement[be] != host {
			t.Errorf("degraded placement changed: %v -> %v", before.Placement, st.Placement)
		}
	}
}

func TestControllerUnplacedOverflow(t *testing.T) {
	// One server, two best-effort apps: one must wait unplaced.
	tc := newTestCluster(t, []string{"xapian"}, []string{"graph", "lstm"}, nil)
	ctx := context.Background()
	tc.advanceAll(t, 5*time.Second)
	tc.ctl.Round(ctx)
	st := tc.ctl.Status()
	if len(st.Placement) != 1 {
		t.Fatalf("placement = %v, want exactly one app placed", st.Placement)
	}
	if len(st.Unplaced) != 1 {
		t.Fatalf("Unplaced = %v, want exactly one app queued", st.Unplaced)
	}
}

func TestControllerRunLoopAndCancel(t *testing.T) {
	tc := newTestCluster(t, []string{"tpcc"}, []string{"pbzip"}, nil)
	tc.advanceAll(t, 2*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tc.ctl.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for tc.ctl.Status().Rounds < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if tc.ctl.Status().Rounds < 3 {
		t.Error("Run loop did not complete rounds")
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}

func TestControllerStatusAndMetricsHandlers(t *testing.T) {
	tc := newTestCluster(t, []string{"img-dnn"}, []string{"graph"}, nil)
	ctx := context.Background()
	tc.advanceAll(t, 5*time.Second)
	tc.ctl.Round(ctx)

	rec := httptest.NewRecorder()
	tc.ctl.StatusHandler(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"placement"`) {
		t.Errorf("status body: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	tc.ctl.MetricsHandler(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`pocolo_controller_agents{state="alive"} 1`,
		"pocolo_controller_placement{",
		"pocolo_controller_rounds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("controller metrics missing %q\n%s", want, body)
		}
	}
}

// bookkeepingController builds a controller over three live agents whose
// last reports hold distinct caps and assignments, for tests that drive
// the push bookkeeping directly.
func bookkeepingController(t *testing.T) *Controller {
	t.Helper()
	ctl, err := NewController(ControllerConfig{
		AgentURLs: []string{"http://a0", "http://a1", "http://a2"},
		BE:        []string{"graph", "lstm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ctl.agents {
		a.alive, a.everSeen = true, true
		a.last.CapW = float64(100 + i)
		a.last.AssignedBE = "old"
	}
	return ctl
}

// TestRecordPushesTouchesOnlyItsAgent pins the ack bookkeeping: an
// acknowledged push updates its own agent's book and no other, a failed
// push records nothing, and a push to an agent that died between
// derivation and record is dropped.
func TestRecordPushesTouchesOnlyItsAgent(t *testing.T) {
	ctl := bookkeepingController(t)
	a0, a1, a2 := ctl.agents[0], ctl.agents[1], ctl.agents[2]
	pushes := []pendingPush{
		{kind: pushCap, agent: a0, url: a0.url, name: a0.name, capW: 150},
		{kind: pushAssign, agent: a0, url: a0.url, name: a0.name, be: "lstm"}, // fails
		{kind: pushAssign, agent: a1, url: a1.url, name: a1.name, be: "graph"},
		{kind: pushCap, agent: a2, url: a2.url, name: a2.name, capW: 170},
	}
	a2.alive = false // declared dead after the pushes were derived
	ctl.recordPushesLocked(pushes, []bool{true, false, true, true})

	type book struct {
		capW float64
		be   string
	}
	want := []book{{150, "old"}, {101, "graph"}, {102, "old"}}
	for i, a := range ctl.agents {
		if got := (book{a.last.CapW, a.last.AssignedBE}); got != want[i] {
			t.Errorf("agent %d book = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestAssignPushesFollowPlacement checks that each agent's desired BE
// tracks every placement install — a solve and a degrade to the
// last-known-good placement — and that assign pushes go to exactly the
// live agents whose reported assignment differs from it.
func TestAssignPushesFollowPlacement(t *testing.T) {
	ctl := bookkeepingController(t)
	if got := ctl.assignPushesLocked(); got != nil {
		t.Fatalf("pushes before any placement: %+v", got)
	}
	ctl.agents[1].last.AssignedBE = "graph"
	ctl.agents[2].alive = false
	ctl.setPlacementLocked(map[string]string{"graph": "http://a1", "lstm": "http://a2"})
	assertPushes := func(want map[string]string) {
		t.Helper()
		got := map[string]string{}
		for _, p := range ctl.assignPushesLocked() {
			if p.kind != pushAssign || p.agent.url != p.url {
				t.Fatalf("malformed push %+v", p)
			}
			got[p.url] = p.be
		}
		if len(got) != len(want) {
			t.Fatalf("assign pushes %v, want %v", got, want)
		}
		for url, be := range want {
			if got[url] != be {
				t.Fatalf("assign pushes %v, want %v", got, want)
			}
		}
	}
	// a0 parks; a1 already runs graph; a2 is dead, so lstm waits.
	assertPushes(map[string]string{"http://a0": ""})

	ctl.lastGood = map[string]string{"lstm": "http://a0"}
	ctl.degradeLocked(time.Unix(0, 0), "test")
	assertPushes(map[string]string{"http://a0": "lstm", "http://a1": ""})
}
