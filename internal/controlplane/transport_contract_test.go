package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/trace"
)

// contractScenario is one fault pattern both transports must survive
// with byte-identical decisions. Faults are expressed against the
// campaign heartbeat so scenarios stay readable in rounds.
type contractScenario struct {
	name       string
	lcs, bes   []string
	faults     func(hb time.Duration) []FaultEvent
	rounds     int
	budget     bool // enforce a two-rack budget tree over the fleet
	timeout    time.Duration
	minDeaths  int
	minRejoins int
}

func contractScenarios() []contractScenario {
	threeLC := []string{"img-dnn", "sphinx", "xapian"}
	fourLC := []string{"img-dnn", "sphinx", "tpcc", "xapian"}
	twoBE := []string{"graph", "lstm"}
	return []contractScenario{
		{
			name: "steady", lcs: threeLC, bes: twoBE, rounds: 10,
		},
		{
			name: "crash", lcs: threeLC, bes: twoBE, rounds: 14,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 4 * hb, Agent: 0, Kind: FaultCrash, Duration: 3 * hb}}
			},
			minDeaths: 1, minRejoins: 1,
		},
		{
			name: "heartbeat-drop", lcs: threeLC, bes: twoBE, rounds: 14,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 4 * hb, Agent: 1, Kind: FaultDropHeartbeats, Duration: 3 * hb}}
			},
			minDeaths: 1, minRejoins: 1,
		},
		{
			name: "delay", lcs: threeLC, bes: twoBE, rounds: 14,
			timeout: 50 * time.Millisecond,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 4 * hb, Agent: 0, Kind: FaultDelayResponses, Duration: 3 * hb, Delay: time.Second}}
			},
			minDeaths: 1, minRejoins: 1,
		},
		{
			name: "load-spike", lcs: threeLC, bes: twoBE, rounds: 12,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 4 * hb, Agent: 1, Kind: FaultLoadSpike, Duration: 4 * hb, Level: 0.95}}
			},
		},
		{
			name: "brownout", lcs: fourLC, bes: twoBE, rounds: 14, budget: true,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 5 * hb, Kind: FaultBrownout, Level: 0.3, Duration: 4 * hb}}
			},
		},
		{
			name: "migration-storm", lcs: fourLC, bes: twoBE, rounds: 18,
			faults: func(hb time.Duration) []FaultEvent {
				// Staggered crashes churn every placement at least once:
				// each death forces a migration, each rejoin a re-solve.
				return []FaultEvent{
					{At: 3 * hb, Agent: 0, Kind: FaultCrash, Duration: 3 * hb},
					{At: 5 * hb, Agent: 1, Kind: FaultCrash, Duration: 3 * hb},
					{At: 7 * hb, Agent: 2, Kind: FaultCrash, Duration: 3 * hb},
				}
			},
			minDeaths: 3, minRejoins: 3,
		},
		{
			name: "partition", lcs: threeLC, bes: twoBE, rounds: 14,
			faults: func(hb time.Duration) []FaultEvent {
				return []FaultEvent{{At: 4 * hb, Agent: 0, Kind: FaultPartition, Duration: 3 * hb}}
			},
			minDeaths: 1, minRejoins: 1,
		},
	}
}

// contractBudgetTree builds a two-rack tree over the scenario's agents,
// mirroring the brownout fixture: racks at 90% of provisioned, the
// datacenter root at 85%.
func contractBudgetTree(t *testing.T, lcs []string) string {
	t.Helper()
	var total float64
	prov := make([]float64, len(lcs))
	for i, lc := range lcs {
		prov[i] = spec(t, lc).ProvisionedPowerW
		total += prov[i]
	}
	mid := (len(lcs) + 1) / 2
	rack := func(lo, hi int) string {
		var w float64
		names := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			w += prov[i]
			names = append(names, "agent-"+lcs[i])
		}
		return fmt.Sprintf("%g{%s}", 0.9*w, strings.Join(names, ","))
	}
	return fmt.Sprintf("dc:%g{rack1:%s,rack2:%s}", 0.85*total, rack(0, mid), rack(mid, len(lcs)))
}

// runContractScenario executes one scenario under one transport and
// returns the report plus the per-round decision log. MaxBackoff is
// pinned to the heartbeat so the polling controller probes dead agents
// every round — matching the streaming side's immediate visibility of a
// recovered agent's next frame — which is what makes the two decision
// logs comparable byte for byte.
func runContractScenario(t *testing.T, sc contractScenario, transport string) (*CampaignReport, string) {
	t.Helper()
	hb := time.Second
	var faults []FaultEvent
	if sc.faults != nil {
		faults = sc.faults(hb)
	}
	var buf bytes.Buffer
	cfg := CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:         sc.bes,
			Heartbeat:  hb,
			Timeout:    sc.timeout,
			DeadAfter:  2,
			MaxBackoff: hb,
			Transport:  transport,
			PodSize:    2,
			Seed:       7,
		},
		Agents:   campaignAgentConfigs(t, sc.lcs, sc.bes),
		Faults:   faults,
		Duration: time.Duration(sc.rounds) * hb,
		OnRound: func(round int, st Status) {
			writeDemoRound(&buf, round, st)
		},
	}
	if sc.budget {
		cfg.BudgetTree = contractBudgetTree(t, sc.lcs)
	}
	camp, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return report, buf.String()
}

// firstDiff reports the first line where two decision logs diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  poll:   %q\n  stream: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line %d: logs have different lengths (%d vs %d lines)", n+1, len(al), len(bl))
}

// TestTransportContract is the dual-transport contract suite: every
// fault scenario runs once over polling and once over streaming with
// the same seed, and the two runs must produce byte-identical
// placement and cap decisions with zero invariant violations. The
// transports may differ in mechanism — scrape vs push, JSON vs binary
// deltas — but never in what the controller decides.
func TestTransportContract(t *testing.T) {
	for _, sc := range contractScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			pollReport, pollOut := runContractScenario(t, sc, TransportPoll)
			streamReport, streamOut := runContractScenario(t, sc, TransportStream)
			for _, tr := range []struct {
				transport string
				report    *CampaignReport
			}{{TransportPoll, pollReport}, {TransportStream, streamReport}} {
				if err := tr.report.Err(); err != nil {
					t.Errorf("%s: campaign not graceful: %v", tr.transport, err)
				}
				if len(tr.report.Violations) != 0 {
					t.Errorf("%s: %d invariant violations", tr.transport, len(tr.report.Violations))
				}
				if tr.report.Deaths < sc.minDeaths {
					t.Errorf("%s: Deaths = %d, want >= %d", tr.transport, tr.report.Deaths, sc.minDeaths)
				}
				if tr.report.Rejoins < sc.minRejoins {
					t.Errorf("%s: Rejoins = %d, want >= %d", tr.transport, tr.report.Rejoins, sc.minRejoins)
				}
				if len(tr.report.Status.Unplaced) != 0 {
					t.Errorf("%s: unplaced BEs after recovery: %v", tr.transport, tr.report.Status.Unplaced)
				}
			}
			if pollReport.Rounds != streamReport.Rounds {
				t.Errorf("rounds diverged: poll %d vs stream %d", pollReport.Rounds, streamReport.Rounds)
			}
			if pollOut != streamOut {
				t.Errorf("decision logs diverged at %s", firstDiff(pollOut, streamOut))
			}
		})
	}
}

// TestPartitionAcceptance is the acceptance test for seeded telemetry
// partitions under the streaming transport: the controller must degrade
// the partitioned agent (its pod keeps running on the survivors), pick
// it back up after the partition heals, converge with every best-effort
// app placed — and do all of it so deterministically that the canonical
// controller decision trace is byte-identical across two replays.
func TestPartitionAcceptance(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	hb := time.Second
	run := func() (*CampaignReport, Status, []trace.Event) {
		// The delta-cell memo is process-wide: clear it so both runs trace
		// the same computed/reused cell counts.
		cluster.ResetMemo()
		camp, err := NewCampaign(CampaignConfig{
			ControllerConfig: ControllerConfig{
				BE:         bes,
				Heartbeat:  hb,
				DeadAfter:  2,
				MaxBackoff: hb,
				Transport:  TransportStream,
				PodSize:    2,
				Seed:       11,
				Trace:      trace.New("controller", 8192),
			},
			Agents: campaignAgentConfigs(t, lcs, bes),
			// Two BEs over three agents means any two agents include a
			// BE host, so staggered partitions of agents 0 and 1
			// guarantee at least one migration.
			Faults: []FaultEvent{
				{At: 4 * hb, Agent: 0, Kind: FaultPartition, Duration: 3 * hb},
				{At: 9 * hb, Agent: 1, Kind: FaultPartition, Duration: 3 * hb},
			},
			Duration: 18 * time.Duration(hb),
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
		t.Fatalf("partition campaign not graceful: %v", err)
	}
	if report.Deaths < 1 {
		t.Fatalf("Deaths = %d, want the partitioned agent declared dead", report.Deaths)
	}
	if report.Rejoins < 1 {
		t.Fatalf("Rejoins = %d, want the partitioned agent back after resync", report.Rejoins)
	}
	for _, a := range st.Agents {
		if !a.Alive {
			t.Fatalf("agent %s still dead after the partition healed", a.Name)
		}
	}
	if len(st.Unplaced) != 0 {
		t.Fatalf("unplaced BEs after recovery: %v", st.Unplaced)
	}
	var migrations, heartbeats int
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindMigration:
			migrations++
		case trace.KindHeartbeat:
			heartbeats++
		}
	}
	if migrations == 0 {
		t.Error("no migration events traced: the partitioned agent's BE never moved")
	}
	if heartbeats == 0 {
		t.Error("no heartbeat summaries traced on the streaming transport")
	}

	// Replay: identical schedule, identical seed — the canonical trace
	// (wall-clock stripped) must match byte for byte.
	canon := func(events []trace.Event) []byte {
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, events, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	report2, _, events2 := run()
	if err := report2.Err(); err != nil {
		t.Fatalf("replay not graceful: %v", err)
	}
	a, b := canon(events), canon(events2)
	if !bytes.Equal(a, b) {
		t.Fatalf("trace replay diverged:\n%s", firstDiff(string(a), string(b)))
	}
}
