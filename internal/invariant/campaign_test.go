package invariant_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/invariant"
	"pocolo/internal/profiler"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// TestFaultCampaignZeroViolations is the acceptance scenario for the
// invariant harness: a generated platform and workload catalog run the
// full networked control-plane loop — real agents, real controller, real
// HTTP codecs over the loopback fabric — through a seeded agent crash and
// a heartbeat partition. The controller must detect both, migrate and
// restore the best-effort placement, and the harness, bound to every
// agent's per-tick observe path, must record zero violations across the
// entire campaign including the crash and recovery windows.
func TestFaultCampaignZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("full control-plane campaign in -short mode")
	}
	rng := rand.New(rand.NewSource(11))
	cfg := invariant.GenMachine(rng)
	cat, err := invariant.GenCatalog(rng, cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	lcs, bes := cat.LC(), cat.BE()
	models, err := profiler.FitAll(cfg, append(cat.LC(), cat.BE()...), 11)
	if err != nil {
		t.Fatal(err)
	}
	beNames := make([]string, len(bes))
	beModels := make(map[string]*utility.Model, len(bes))
	for i, be := range bes {
		beNames[i] = be.Name
		beModels[be.Name] = models[be.Name]
	}

	agents := make([]controlplane.AgentConfig, len(lcs))
	for i, lc := range lcs {
		trace, err := workload.NewTwoPeakTrace(0.3, 0.5, 0.8, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = controlplane.AgentConfig{
			Name:         "campaign-" + lc.Name,
			Machine:      cfg,
			LC:           lc,
			LCModel:      models[lc.Name],
			BECandidates: bes,
			BEModels:     beModels,
			Trace:        trace,
			SimTick:      100 * time.Millisecond,
			Seed:         int64(101 + i),
		}
	}

	h := invariant.NewHarness()
	hb := time.Second
	camp, err := controlplane.NewCampaign(controlplane.CampaignConfig{
		ControllerConfig: controlplane.ControllerConfig{
			BE:        beNames,
			Heartbeat: hb,
			DeadAfter: 2,
			Seed:      7,
			Logf:      t.Logf,
		},
		Agents: agents,
		Faults: []controlplane.FaultEvent{
			{At: 4 * hb, Agent: 0, Kind: controlplane.FaultCrash, Duration: 4 * hb},
			{At: 11 * hb, Agent: 1, Kind: controlplane.FaultDropHeartbeats, Duration: 3 * hb},
		},
		Duration: 30 * time.Second,
		Harness:  h,
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
	if h.Count() != 0 {
		t.Fatalf("harness recorded %d violations: %v", h.Count(), h.Violations())
	}
	if report.Deaths < 2 || report.Rejoins < 2 {
		t.Fatalf("deaths = %d, rejoins = %d; want both faulted agents detected and recovered",
			report.Deaths, report.Rejoins)
	}
	if len(report.Status.Unplaced) != 0 {
		t.Fatalf("best-effort apps left unplaced after recovery: %v", report.Status.Unplaced)
	}
	if len(report.Status.Placement) != len(beNames) {
		t.Fatalf("placement %v does not cover %v", report.Status.Placement, beNames)
	}
}
