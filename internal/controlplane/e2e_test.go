package controlplane

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestE2ELoopbackKillOneAgent is the end-to-end control-plane scenario
// from the paper's cluster level, run entirely on loopback: three agents
// simulate their servers in real time (paced 100x faster than wall
// clock), the controller places two best-effort apps, one hosting agent
// is killed mid-run, and the controller must detect the death within K
// heartbeats, migrate the orphaned app to a survivor, and the survivors'
// /metrics must reflect the new placement with recovering throughput.
func TestE2ELoopbackKillOneAgent(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}

	agents := make([]*Agent, len(lcs))
	urls := make([]string, len(lcs))
	servers := make([]*closableServer, len(lcs))
	for i, lc := range lcs {
		agents[i] = newTestAgent(t, "agent-"+lc, lc, bes...)
		agents[i].Start()
		srv := newClosableServer(t, agents[i])
		servers[i] = srv
		urls[i] = srv.URL()
	}
	defer func() {
		for _, a := range agents {
			a.Stop()
		}
	}()

	const deadAfter = 2
	ctl, err := NewController(ControllerConfig{
		AgentURLs: urls,
		BE:        bes,
		Heartbeat: 25 * time.Millisecond,
		Timeout:   2 * time.Second,
		DeadAfter: deadAfter,
		Seed:      5,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Bootstrap: one round discovers everyone and solves the placement.
	ctl.Round(ctx)
	st := ctl.Status()
	if len(st.Placement) != len(bes) {
		t.Fatalf("bootstrap placement = %v", st.Placement)
	}

	// Let the cluster run; both placed apps must make real progress.
	waitFor(t, 5*time.Second, func() error {
		for _, be := range bes {
			if opsOf(agents, be) <= 0 {
				return fmt.Errorf("%s has done no work yet", be)
			}
		}
		return nil
	})

	// Kill one hosting agent outright: stop its simulation, close its
	// listener and sever open keep-alive connections.
	victimIdx := -1
	for i, a := range agents {
		if a.Assigned() != "" {
			victimIdx = i
			break
		}
	}
	if victimIdx < 0 {
		t.Fatal("no agent hosts a best-effort app")
	}
	victim := agents[victimIdx]
	victimBE := victim.Assigned()
	victim.Stop()
	servers[victimIdx].Kill()
	victimOps := victim.Stats().BEOpsBy[victimBE] // frozen once the pacing loop halts
	t.Logf("killed %s hosting %q", victim.Name(), victimBE)

	// Within K heartbeat rounds the controller must declare the agent dead
	// and migrate its app to a survivor (the issue allows up to 3).
	for i := 0; i < deadAfter; i++ {
		ctl.Round(ctx)
	}
	st = ctl.Status()
	if st.Deaths != 1 {
		t.Fatalf("after %d rounds: Deaths = %d, want 1", deadAfter, st.Deaths)
	}
	newHost := st.Placement[victimBE]
	if newHost == "" || newHost == victim.Name() {
		t.Fatalf("%s not migrated: placement=%v", victimBE, st.Placement)
	}

	// Throughput recovers: the migrated app accrues work on its new host
	// while the dead host's counter stays frozen.
	waitFor(t, 5*time.Second, func() error {
		for i, a := range agents {
			if i == victimIdx {
				continue
			}
			if a.Name() == newHost && a.Stats().BEOpsBy[victimBE] > 0 {
				return nil
			}
		}
		return fmt.Errorf("%s has not produced work on %s yet", victimBE, newHost)
	})
	if got := victim.Stats().BEOpsBy[victimBE]; got != victimOps {
		t.Errorf("dead agent kept accruing %s ops: %v -> %v", victimBE, victimOps, got)
	}

	// Survivors' /metrics reflect the post-failure placement: each of the
	// two live servers exposes exactly one of the two apps as assigned.
	seen := map[string]bool{}
	for i, a := range agents {
		if i == victimIdx {
			continue
		}
		body := scrape(t, servers[i].URL()+RouteMetrics)
		assigned := a.Assigned()
		if assigned == "" {
			t.Errorf("survivor %s hosts nothing after migration", a.Name())
			continue
		}
		want := fmt.Sprintf("pocolo_be_assigned{agent=%q,lc=%q,be=%q} 1", a.Name(), a.LCName(), assigned)
		if !strings.Contains(body, want) {
			t.Errorf("survivor %s metrics missing %q\n%s", a.Name(), want, body)
		}
		seen[assigned] = true
	}
	for _, be := range bes {
		if !seen[be] {
			t.Errorf("%s not exposed as assigned by any survivor", be)
		}
	}
}

// closableServer wraps httptest.Server so a test can kill an agent's
// listener mid-run, severing even open keep-alive connections, the way a
// crashed server process would.
type closableServer struct {
	srv    *httptest.Server
	killed bool
}

func newClosableServer(t *testing.T, a *Agent) *closableServer {
	t.Helper()
	cs := &closableServer{srv: httptest.NewServer(a.Handler())}
	t.Cleanup(cs.Kill)
	return cs
}

func (cs *closableServer) URL() string { return cs.srv.URL }

func (cs *closableServer) Kill() {
	if cs.killed {
		return
	}
	cs.killed = true
	cs.srv.CloseClientConnections()
	cs.srv.Close()
}

// opsOf sums an app's completed operations across the cluster.
func opsOf(agents []*Agent, be string) float64 {
	total := 0.0
	for _, a := range agents {
		total += a.Stats().BEOpsBy[be]
	}
	return total
}

// waitFor polls cond until it returns nil or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var err error
	for time.Now().Before(deadline) {
		if err = cond(); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v: %v", timeout, err)
}

// scrape fetches a metrics page as text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
