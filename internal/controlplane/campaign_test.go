package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// campaignAgentConfigs builds one AgentConfig per LC app, each offering
// every BE app, on the Table I server with a two-peak trace.
func campaignAgentConfigs(t *testing.T, lcs, bes []string) []AgentConfig {
	t.Helper()
	models := fixtureModels(t)
	cfgs := make([]AgentConfig, 0, len(lcs))
	for i, lc := range lcs {
		trace, err := workload.NewTwoPeakTrace(0.3, 0.5, 0.8, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var cands []*workload.Spec
		beModels := make(map[string]*utility.Model, len(bes))
		for _, be := range bes {
			cands = append(cands, spec(t, be))
			beModels[be] = models[be]
		}
		cfgs = append(cfgs, AgentConfig{
			Name:         "agent-" + lc,
			Machine:      machine.XeonE52650(),
			LC:           spec(t, lc),
			LCModel:      models[lc],
			BECandidates: cands,
			BEModels:     beModels,
			Trace:        trace,
			SimTick:      100 * time.Millisecond,
			Seed:         int64(31 + i),
		})
	}
	return cfgs
}

// TestCampaignQuiet runs a faultless campaign: every best-effort app must
// end up placed on a live agent with zero deaths and zero invariant
// violations.
func TestCampaignQuiet(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:   bes,
			Seed: 1,
		},
		Agents:   campaignAgentConfigs(t, lcs, bes),
		Duration: 15 * time.Second,
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
	if report.Rounds != 15 {
		t.Fatalf("Rounds = %d, want 15", report.Rounds)
	}
	if report.Deaths != 0 {
		t.Fatalf("Deaths = %d in a faultless campaign", report.Deaths)
	}
	if len(report.Status.Unplaced) != 0 {
		t.Fatalf("unplaced BEs: %v", report.Status.Unplaced)
	}
	if len(report.Status.Placement) != len(bes) {
		t.Fatalf("placement = %v, want all of %v placed", report.Status.Placement, bes)
	}
}

// TestCampaignCrashAndPartition injects the acceptance scenario — an agent
// crash plus a heartbeat partition — and requires detection, migration,
// rejoin, and a clean invariant record.
func TestCampaignCrashAndPartition(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	hb := time.Second
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:        bes,
			Heartbeat: hb,
			DeadAfter: 2,
			Seed:      2,
		},
		Agents: campaignAgentConfigs(t, lcs, bes),
		Faults: []FaultEvent{
			{At: 5 * hb, Agent: 0, Kind: FaultCrash, Duration: 4 * hb},
			{At: 10 * hb, Agent: 1, Kind: FaultDropHeartbeats, Duration: 3 * hb},
		},
		Duration: 30 * time.Second,
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
	if report.Deaths < 2 {
		t.Fatalf("Deaths = %d, want both faulted agents declared dead", report.Deaths)
	}
	if report.Rejoins < 2 {
		t.Fatalf("Rejoins = %d, want both faulted agents back", report.Rejoins)
	}
	if len(report.Status.Unplaced) != 0 {
		t.Fatalf("unplaced BEs after recovery: %v", report.Status.Unplaced)
	}
}

// TestCampaignDelayAndSpike covers the two remaining fault kinds: delayed
// responses beyond the probe timeout read as missed heartbeats, and a load
// spike must not break any invariant while the spiked server sheds its
// best-effort work.
func TestCampaignDelayAndSpike(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx"}
	bes := []string{"graph"}
	hb := time.Second
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:        bes,
			Heartbeat: hb,
			DeadAfter: 2,
			Seed:      3,
		},
		Agents: campaignAgentConfigs(t, lcs, bes),
		Faults: []FaultEvent{
			{At: 4 * hb, Agent: 0, Kind: FaultDelayResponses, Duration: 3 * hb, Delay: time.Second},
			{At: 9 * hb, Agent: 1, Kind: FaultLoadSpike, Duration: 5 * hb, Level: 0.95},
		},
		Duration: 25 * time.Second,
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
	if report.Deaths < 1 {
		t.Fatalf("Deaths = %d, want the delayed agent declared dead", report.Deaths)
	}
	if report.Rejoins < 1 {
		t.Fatalf("Rejoins = %d, want the delayed agent back", report.Rejoins)
	}
}

// TestCampaignDelayDecidesAsDrop holds the fabric's timeout rule on both
// transports: a delay at or past Timeout decides exactly as a drop of the
// same agent over the same rounds, and nothing waits the delay out, so
// each campaign finishes well within one Timeout of wall time.
func TestCampaignDelayDecidesAsDrop(t *testing.T) {
	const timeout = 10 * time.Second
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	hb := time.Second
	for _, transport := range []string{TransportPoll, TransportStream} {
		t.Run(transport, func(t *testing.T) {
			run := func(fault FaultEvent) (*CampaignReport, string) {
				var buf bytes.Buffer
				camp, err := NewCampaign(CampaignConfig{
					ControllerConfig: ControllerConfig{
						BE:         bes,
						Heartbeat:  hb,
						Timeout:    timeout,
						DeadAfter:  2,
						MaxBackoff: hb,
						Transport:  transport,
						PodSize:    2,
						Seed:       7,
					},
					Agents:   campaignAgentConfigs(t, lcs, bes),
					Faults:   []FaultEvent{fault},
					Duration: 14 * hb,
					OnRound: func(round int, st Status) {
						writeDemoRound(&buf, round, st)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				report, err := camp.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if took := time.Since(start); took >= timeout {
					t.Errorf("%v campaign took %v, at least one %v timeout", fault.Kind, took, timeout)
				}
				if err := report.Err(); err != nil {
					t.Errorf("%v campaign not graceful: %v", fault.Kind, err)
				}
				return report, buf.String()
			}
			drop, dropOut := run(FaultEvent{At: 4 * hb, Agent: 0, Kind: FaultDropHeartbeats, Duration: 3 * hb})
			delay, delayOut := run(FaultEvent{At: 4 * hb, Agent: 0, Kind: FaultDelayResponses, Duration: 3 * hb, Delay: 2 * timeout})
			if drop.Deaths < 1 || drop.Rejoins < 1 {
				t.Errorf("drop: deaths %d, rejoins %d; want the agent declared dead and back", drop.Deaths, drop.Rejoins)
			}
			if delay.Deaths != drop.Deaths || delay.Rejoins != drop.Rejoins {
				t.Errorf("delay: deaths %d, rejoins %d; the drop gave %d and %d", delay.Deaths, delay.Rejoins, drop.Deaths, drop.Rejoins)
			}
			if delayOut != dropOut {
				t.Errorf("decision logs diverged at %s", firstDiff(dropOut, delayOut))
			}
		})
	}
}

// TestCampaignWholePodOutage crashes every agent of one solver pod at
// once on the stream transport. The pod's jobs then outnumber its live
// hosts (it has none), so they must move to other pods: the campaign's
// completeness check fails any round that leaves a best-effort app
// neither placed nor unplaced while the survivors have room for every
// app.
func TestCampaignWholePodOutage(t *testing.T) {
	const n, podSize = 16, 4
	cycle := []string{"img-dnn", "sphinx", "xapian", "tpcc"}
	lcs := make([]string, n)
	for i := range lcs {
		lcs[i] = cycle[i%len(cycle)]
	}
	agents := campaignAgentConfigs(t, lcs, []string{"graph", "lstm"})
	for i := range agents {
		agents[i].Name = fmt.Sprintf("agent-%02d", i) // name order = pod order
	}
	// Nine replicas over four pods of four: three land in pod 0, and the
	// twelve survivors can host all nine.
	bes := make([]string, 9)
	for i := range bes {
		bes[i] = fmt.Sprintf("%s#%d", []string{"graph", "lstm"}[i%2], i/2)
	}
	hb := time.Second
	var faults []FaultEvent
	for i := 0; i < podSize; i++ {
		faults = append(faults, FaultEvent{At: 4 * hb, Agent: i, Kind: FaultCrash, Duration: 5 * hb})
	}
	outageRounds := 0
	tracer := trace.New("controller", 1<<12)
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:        bes,
			Heartbeat: hb,
			DeadAfter: 2,
			Transport: TransportStream,
			PodSize:   podSize,
			Seed:      13,
			Trace:     tracer,
		},
		Agents:   agents,
		Faults:   faults,
		Duration: 16 * hb,
		OnRound: func(round int, st Status) {
			dead := 0
			for _, a := range st.Agents {
				if !a.Alive {
					dead++
				}
			}
			if dead == podSize {
				outageRounds++
			}
		},
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
	if outageRounds == 0 {
		t.Fatal("no round saw the whole pod down")
	}
	if report.Deaths < podSize || report.Rejoins < podSize {
		t.Fatalf("deaths %d, rejoins %d: want the whole pod to die and rejoin", report.Deaths, report.Rejoins)
	}
	if len(report.Status.Placement) != len(bes) {
		t.Fatalf("final placement %v, want all %d apps placed", report.Status.Placement, len(bes))
	}
	// Evacuations are ordinary re-solve moves: one Placement or Migration
	// event per moved app and round, never an extra "rebalance" event.
	type move struct {
		at int64
		be string
	}
	seen := make(map[move]bool)
	migrations := 0
	for _, ev := range tracer.Events() {
		if ev.Kind != trace.KindPlacement && ev.Kind != trace.KindMigration {
			continue
		}
		if ev.Kind == trace.KindMigration {
			migrations++
			if ev.Place.Reason != "re-solve" {
				t.Errorf("migration %+v, want reason re-solve", ev.Place)
			}
		}
		k := move{ev.TNS, ev.Place.BE}
		if seen[k] {
			t.Errorf("second event for %s at %d ns", ev.Place.BE, ev.TNS)
		}
		seen[k] = true
	}
	if migrations < 3 {
		t.Errorf("%d migrations traced, want the outage's three evacuations at least", migrations)
	}
}

// TestCampaignOverflow runs one best-effort replica per agent on a
// 48-agent stream fleet in pods of eight and crashes two agents, one
// after the other, so for several rounds the apps outnumber the live
// agents. Every solve runs on the placement engine; each overflow round
// leaves unplaced exactly the apps the trim rule picks, lowest best-case
// value first with ties broken in BE order; and after recovery every app
// is placed again.
func TestCampaignOverflow(t *testing.T) {
	const n, podSize = 48, 8
	cycle := []string{"img-dnn", "sphinx", "xapian", "tpcc"}
	lcs := make([]string, n)
	for i := range lcs {
		lcs[i] = cycle[i%len(cycle)]
	}
	agents := campaignAgentConfigs(t, lcs, []string{"graph", "lstm"})
	index := make(map[string]int, n)
	for i := range agents {
		agents[i].Name = fmt.Sprintf("agent-%02d", i) // name order = pod order
		index[agents[i].Name] = i
	}
	bes := replicas(n)
	hb := time.Second
	tracer := trace.New("controller", 1<<14)
	picks := make(map[int]bool) // live-agent counts seen in overflow rounds
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:        bes,
			Heartbeat: hb,
			DeadAfter: 2,
			Transport: TransportStream,
			PodSize:   podSize,
			Seed:      17,
			Trace:     tracer,
		},
		Agents: agents,
		Faults: []FaultEvent{
			{At: 4 * hb, Agent: 5, Kind: FaultCrash, Duration: 6 * hb},
			{At: 7 * hb, Agent: 30, Kind: FaultCrash, Duration: 6 * hb},
		},
		Duration: 20 * hb,
		OnRound: func(round int, st Status) {
			var live []int
			for _, a := range st.Agents {
				if a.Alive {
					live = append(live, index[a.Name])
				}
			}
			if len(live) >= len(bes) || st.Degraded {
				return
			}
			picks[len(live)] = true
			if want := overflowPick(t, agents, live, bes); !reflect.DeepEqual(st.Unplaced, want) {
				t.Errorf("round %d, %d live agents: unplaced %v, want %v", round, len(live), st.Unplaced, want)
			}
		},
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
	if !picks[n-1] || !picks[n-2] {
		t.Fatalf("overflow rounds saw live-agent counts %v, want %d and %d", picks, n-1, n-2)
	}
	for _, ev := range tracer.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.Method != "incremental" && ev.Solve.Method != "sharded" {
			t.Fatalf("solve summary %+v, want only the engine's incremental and sharded solves", ev.Solve)
		}
	}
	if len(report.Status.Placement) != len(bes) || len(report.Status.Unplaced) != 0 {
		t.Fatalf("after recovery: %d of %d apps placed, unplaced %v", len(report.Status.Placement), len(bes), report.Status.Unplaced)
	}
}

// overflowPick is the trim rule worked out from the fleet's own specs
// and models: over the live agents, each app's best-case value is its
// best cell (or 0); the len(bes)-len(live) apps last in order of
// decreasing value, ties in BE order, go unplaced, reported sorted.
func overflowPick(t *testing.T, agents []AgentConfig, live []int, bes []string) []string {
	t.Helper()
	models := make(map[string]*utility.Model)
	lc := make([]*workload.Spec, len(live))
	for k, i := range live {
		host := *agents[i].LC
		host.Name = agents[i].Name
		lc[k] = &host
		models[host.Name] = agents[i].LCModel
	}
	var be []*workload.Spec
	for _, c := range agents[0].BECandidates {
		be = append(be, c)
		models[c.Name] = agents[0].BEModels[c.Name]
	}
	mx, err := cluster.BuildMatrix(cluster.MatrixConfig{Machine: agents[0].Machine, LC: lc, BE: be, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	best := make(map[string]float64)
	for r, row := range mx.Value {
		for _, v := range row {
			best[mx.BENames[r]] = max(best[mx.BENames[r]], v)
		}
	}
	order := slices.Clone(bes)
	sort.SliceStable(order, func(i, j int) bool { return best[baseBE(order[i])] > best[baseBE(order[j])] })
	out := order[len(live):]
	sort.Strings(out)
	return out
}

// TestCampaignSeededScheduleDeterministic replays the same seeded schedule
// twice and requires identical failure accounting and final placement —
// the property that makes fault campaigns debuggable.
func TestCampaignSeededScheduleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns in -short mode")
	}
	lcs := []string{"img-dnn", "sphinx", "xapian"}
	bes := []string{"graph", "lstm"}
	faults := RandomFaults(99, len(lcs), 4, 30*time.Second, time.Second)
	if got := RandomFaults(99, len(lcs), 4, 30*time.Second, time.Second); !reflect.DeepEqual(got, faults) {
		t.Fatalf("RandomFaults not reproducible:\n%v\n%v", got, faults)
	}
	run := func() *CampaignReport {
		camp, err := NewCampaign(CampaignConfig{
			ControllerConfig: ControllerConfig{
				BE:        bes,
				DeadAfter: 2,
				Seed:      4,
			},
			Agents:   campaignAgentConfigs(t, lcs, bes),
			Faults:   faults,
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
		return report
	}
	a, b := run(), run()
	if a.Deaths != b.Deaths || a.Rejoins != b.Rejoins || a.Rounds != b.Rounds {
		t.Fatalf("replay diverged: deaths %d/%d rejoins %d/%d rounds %d/%d",
			a.Deaths, b.Deaths, a.Rejoins, b.Rejoins, a.Rounds, b.Rounds)
	}
	if !reflect.DeepEqual(a.Status.Placement, b.Status.Placement) {
		t.Fatalf("replay placement diverged: %v vs %v", a.Status.Placement, b.Status.Placement)
	}
}

// TestCampaignValidation exercises configuration rejection.
func TestCampaignValidation(t *testing.T) {
	bes := []string{"graph"}
	base := func() CampaignConfig {
		return CampaignConfig{
			ControllerConfig: ControllerConfig{BE: bes},
			Agents:           campaignAgentConfigs(t, []string{"img-dnn"}, bes),
			Duration:         5 * time.Second,
		}
	}
	if _, err := NewCampaign(CampaignConfig{Duration: time.Second}); err == nil {
		t.Fatal("no agents accepted")
	}
	cfg := base()
	cfg.Duration = 0
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = base()
	cfg.Faults = []FaultEvent{{At: time.Second, Agent: 5, Kind: FaultCrash, Duration: time.Second}}
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("out-of-range fault target accepted")
	}
	cfg = base()
	cfg.Faults = []FaultEvent{{At: time.Second, Agent: 0, Kind: FaultCrash}}
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("zero-duration fault accepted")
	}
	cfg = base()
	cfg.Agents[0].Trace = nil
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("traceless agent accepted")
	}
	// The campaign owns its loopback fabric and its synthetic clock.
	for name, preset := range map[string]func(*CampaignConfig){
		"AgentURLs": func(cfg *CampaignConfig) { cfg.AgentURLs = []string{"http://a"} },
		"Client":    func(cfg *CampaignConfig) { cfg.Client = &http.Client{} },
		"Now":       func(cfg *CampaignConfig) { cfg.Now = time.Now },
	} {
		cfg = base()
		preset(&cfg)
		if _, err := NewCampaign(cfg); err == nil {
			t.Errorf("preset %s accepted", name)
		}
	}
}

// TestLoopbackStatusLine holds the loopback fabric's replies to net/http's
// status line: a request for a route the agent does not serve reads
// "404 Not Found", as it does from a live agent, and so does the error
// PostHeartbeat reports for it.
func TestLoopbackStatusLine(t *testing.T) {
	agent, err := NewAgent(campaignAgentConfigs(t, []string{"img-dnn"}, []string{"graph"})[0])
	if err != nil {
		t.Fatal(err)
	}
	lt := newLoopbackTransport()
	lt.add("agent", agent.Handler())
	client := &http.Client{Transport: lt}
	resp, err := client.Get("http://agent/v1/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Status != "404 Not Found" {
		t.Fatalf("status %d %q, want 404 \"404 Not Found\"", resp.StatusCode, resp.Status)
	}
	_, err = PostHeartbeat(context.Background(), client, "http://agent", []byte("frame"))
	if want := "controller answered 404 Not Found: 404 page not found"; err == nil || err.Error() != want {
		t.Fatalf("PostHeartbeat to an agent: %v, want %q", err, want)
	}
}

// TestCampaignHarnessObserves proves the invariant harness actually rides
// the campaign's tick path: a registered counting checker must see one
// snapshot per simulated tick per running agent.
func TestCampaignHarnessObserves(t *testing.T) {
	bes := []string{"graph"}
	h := invariant.NewHarness()
	ticks := 0
	if err := h.Register(invariant.Checker{
		Name:  "count-snapshots",
		Check: func(s *invariant.Snapshot) error { ticks++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	camp, err := NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:   bes,
			Seed: 6,
		},
		Agents:   campaignAgentConfigs(t, []string{"img-dnn", "sphinx"}, bes),
		Duration: 5 * time.Second,
		Harness:  h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 2 agents x 5 s x 10 ticks/s.
	if want := 100; ticks != want {
		t.Fatalf("counting checker saw %d snapshots, want %d", ticks, want)
	}
}
