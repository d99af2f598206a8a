package controlplane

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Shared fitted-model fixture: profiling sweeps are deterministic, so fit
// once per test binary and hand the same models to every test.
var (
	fitOnce   sync.Once
	fitModels map[string]*utility.Model
	fitErr    error
)

func fixtureModels(t testing.TB) map[string]*utility.Model {
	t.Helper()
	fitOnce.Do(func() {
		cat := workload.MustDefaults()
		specs := append(cat.LC(), cat.BE()...)
		fitModels, fitErr = profiler.FitAll(machine.XeonE52650(), specs, 7)
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitModels
}

func spec(t testing.TB, name string) *workload.Spec {
	t.Helper()
	s, err := workload.MustDefaults().ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestAgent builds an agent hosting lcName with the given best-effort
// candidates, paced far faster than real time (1 ms wall per 100 ms sim).
func newTestAgent(t testing.TB, name, lcName string, beNames ...string) *Agent {
	t.Helper()
	models := fixtureModels(t)
	trace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var bes []*workload.Spec
	beModels := make(map[string]*utility.Model, len(beNames))
	for _, be := range beNames {
		bes = append(bes, spec(t, be))
		beModels[be] = models[be]
	}
	a, err := NewAgent(AgentConfig{
		Name:         name,
		Machine:      machine.XeonE52650(),
		LC:           spec(t, lcName),
		LCModel:      models[lcName],
		BECandidates: bes,
		BEModels:     beModels,
		Trace:        trace,
		SimTick:      100 * time.Millisecond,
		RealTick:     time.Millisecond,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// advance drives the agent's simulation forward deterministically without
// the pacing goroutine.
func advance(t *testing.T, a *Agent, d time.Duration) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.engine.Run(d); err != nil {
		t.Fatal(err)
	}
}

// serveAgent exposes an agent on a loopback httptest server.
func serveAgent(t *testing.T, a *Agent) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	return srv
}
