package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/cluster"
	"pocolo/internal/obs"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// engineFleet is a streaming fleet driven one round at a time: every
// running agent heartbeats the BE and cap last pushed to it, then the
// controller runs one round.
type engineFleet struct {
	t     *testing.T
	ctl   *Controller
	tick  func()
	et    *echoTransport
	urls  []string
	encs  []*HeartbeatEncoder
	stats []StatsResponse
	down  []bool
	seq   uint64
}

// newEngineFleet builds n agents whose names run in the reverse of their
// URL order, so the engine's name-ordered columns differ from the stream
// slots. Caps step from one block of podSize agents to the next (n is a
// multiple of podSize, so the blocks are the engine's pods): pods differ,
// while the hosts within a pod are alike.
func newEngineFleet(t *testing.T, n, podSize int, bes []string, mut func(*ControllerConfig)) *engineFleet {
	t.Helper()
	et := newEchoTransport()
	ctl, urls, tick := streamTestController(t, n, podSize, func(cfg *ControllerConfig) {
		cfg.BE = bes
		cfg.Client = &http.Client{Transport: et}
		if mut != nil {
			mut(cfg)
		}
	})
	f := &engineFleet{t: t, ctl: ctl, tick: tick, et: et, urls: urls,
		encs: make([]*HeartbeatEncoder, n), stats: make([]StatsResponse, n), down: make([]bool, n)}
	for i := range urls {
		name := fmt.Sprintf("agent-%02d", n-1-i)
		f.encs[i] = NewHeartbeatEncoder(name, urls[i])
		f.stats[i] = streamTestStats(t, name, "graph", "lstm")
		f.stats[i].ProvisionedPowerW -= float64(i/podSize%4) * 5
	}
	return f
}

// replicas names k best-effort replicas alternating graph and lstm.
func replicas(k int) []string {
	bes := make([]string, k)
	for i := range bes {
		bes[i] = fmt.Sprintf("%s#%d", []string{"graph", "lstm"}[i%2], i/2)
	}
	return bes
}

func (f *engineFleet) round() Status {
	f.t.Helper()
	f.tick()
	f.seq++
	var frames [][]byte
	var from []int
	f.et.mu.Lock()
	for i := range f.stats {
		f.stats[i].AssignedBE = f.et.assigned[f.urls[i]]
	}
	f.et.mu.Unlock()
	for i := range f.stats {
		if f.down[i] {
			continue
		}
		frame, err := f.encs[i].Encode(f.stats[i], f.seq)
		if err != nil {
			f.t.Fatal(err)
		}
		frames = append(frames, frame)
		from = append(from, i)
	}
	for k, ack := range f.ctl.IngestBatch(frames) {
		if ack.Reject {
			f.t.Fatalf("agent %d frame rejected", from[k])
		}
		f.encs[from[k]].Ack(ack)
	}
	f.ctl.Round(context.Background())
	return f.ctl.Status()
}

// setDown stops (or restarts) agent i's heartbeats; a restarted agent
// resyncs with a full frame.
func (f *engineFleet) setDown(i int, down bool) {
	f.down[i] = down
	if !down {
		f.encs[i].Resync()
	}
}

// moved lists the best-effort apps whose agent differs between two
// placements.
func moved(prev, next map[string]string) []string {
	var out []string
	for be, agent := range next {
		if prev[be] != agent {
			out = append(out, be)
		}
	}
	for be := range prev {
		if _, ok := next[be]; !ok {
			out = append(out, be)
		}
	}
	sort.Strings(out)
	return out
}

// TestEngineFirstPlacementMatchesFromScratch pins the engine's first
// placement to a from-scratch build: cluster.NewSharded over the live
// agents sorted by name, with each best-effort model taken from the
// first agent reporting it.
func TestEngineFirstPlacementMatchesFromScratch(t *testing.T) {
	bes := replicas(12)
	f := newEngineFleet(t, 20, 4, bes, nil)
	st := f.round()

	order := make([]int, len(f.stats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return f.stats[order[a]].Agent < f.stats[order[b]].Agent })
	models := make(map[string]*utility.Model)
	lc := make([]*workload.Spec, len(order))
	for k, i := range order {
		s := f.stats[i]
		lc[k] = &workload.Spec{Name: s.Agent, Class: workload.LatencyCritical,
			PeakLoad: s.PeakLoad, ProvisionedPowerW: s.ProvisionedPowerW}
		models[s.Agent] = s.LCModel
	}
	be := make([]*workload.Spec, len(bes))
	for k, name := range bes {
		be[k] = &workload.Spec{Name: name, Class: workload.BestEffort}
		models[name] = f.stats[order[0]].BEModels[baseBE(name)]
	}
	sh, err := cluster.NewSharded(cluster.MatrixConfig{
		Machine: f.stats[order[0]].Machine, LC: lc, BE: be, Models: models,
	}, cluster.ShardSettings{PodSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Solve(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if want := sh.Placement(); !reflect.DeepEqual(st.Placement, want) {
		t.Fatalf("first placement %v, from-scratch build %v", st.Placement, want)
	}
}

// TestEngineCrashMovesOnlyItsApp runs a four-pod stream fleet: a crash
// moves the crashed agent's app and no other, and the rejoin moves at
// most one app. Neither rebuilds the engine. (The hosts of a pod are
// alike, so no second app can gain from moving; with unlike hosts an
// optimal repair may legitimately move one more.)
func TestEngineCrashMovesOnlyItsApp(t *testing.T) {
	f := newEngineFleet(t, 16, 4, replicas(8), nil)
	st := f.round()
	st = f.round()
	if len(st.Placement) != 8 {
		t.Fatalf("placement %v, want 8 apps", st.Placement)
	}
	engine := f.ctl.engine
	before := st.Placement
	victim := -1
	for i, s := range f.stats {
		if s.Agent == before["graph#1"] {
			victim = i
		}
	}
	f.setDown(victim, true)
	for r := 0; r < 2; r++ { // DeadAfter 2
		st = f.round()
	}
	if st.Deaths != 1 {
		t.Fatalf("deaths = %d, want the victim dead", st.Deaths)
	}
	if got := moved(before, st.Placement); !reflect.DeepEqual(got, []string{"graph#1"}) {
		t.Fatalf("crash of %s moved %v, want only graph#1", f.stats[victim].Agent, got)
	}
	afterCrash := st.Placement
	f.setDown(victim, false)
	st = f.round()
	if st.Rejoins != 1 {
		t.Fatalf("rejoins = %d", st.Rejoins)
	}
	if got := moved(afterCrash, st.Placement); len(got) > 1 {
		t.Fatalf("rejoin moved %v, want at most one app", got)
	}
	if len(st.Placement) != 8 {
		t.Fatalf("placement %v after rejoin, want 8 apps", st.Placement)
	}
	if f.ctl.engine != engine {
		t.Fatal("crash or rejoin rebuilt the engine")
	}
}

// TestEngineRebuildsOnNewOrRenamedAgent checks the engine's lifetime: a
// refit re-solves on the engine it has, and an agent that reports for the
// first time or under a new name rebuilds it in the round its report
// lands.
func TestEngineRebuildsOnNewOrRenamedAgent(t *testing.T) {
	f := newEngineFleet(t, 12, 4, replicas(6), nil)
	f.down[0] = true // not discovered yet
	f.round()
	first := f.ctl.engine
	if first == nil || len(first.hosts) != 11 {
		t.Fatalf("engine %+v, want 11 columns", first)
	}
	f.stats[3].ProvisionedPowerW -= 2 // a refit, resent as a full frame
	f.encs[3].Resync()
	if st := f.round(); st.Solves != 2 {
		t.Fatalf("Solves = %d after a refit, want 2", st.Solves)
	}
	if f.ctl.engine != first {
		t.Fatal("refit rebuilt the engine")
	}

	f.down[0] = false
	st := f.round()
	discovered := f.ctl.engine
	if discovered == first || len(discovered.hosts) != 12 {
		t.Fatalf("newly discovered agent did not rebuild the engine (%d columns)", len(discovered.hosts))
	}
	if len(st.Placement) != 6 {
		t.Fatalf("placement %v, want 6 apps", st.Placement)
	}

	// Agent 5 comes back under a new name; its fresh encoder needs a
	// round to adopt the receiver's sequence watermark, so the renamed
	// full frame lands in the second round.
	f.stats[5] = streamTestStats(t, "agent-zz", "graph", "lstm")
	f.encs[5] = NewHeartbeatEncoder("agent-zz", f.urls[5])
	for r := 1; st.Agents[5].Name != "agent-zz"; r++ {
		if r > 3 {
			t.Fatal("the renamed full frame never landed")
		}
		st = f.round()
		renamed, rebuilt := st.Agents[5].Name == "agent-zz", f.ctl.engine != discovered
		if renamed != rebuilt {
			t.Fatalf("round %d of the rename: agent 5 reports as %s, engine rebuilt %t", r, st.Agents[5].Name, rebuilt)
		}
	}
	renamed := f.ctl.engine
	if last := renamed.hosts[len(renamed.hosts)-1]; last.name != "agent-zz" || last.url != f.urls[5] {
		t.Fatalf("last column %s (%s), want agent-zz at %s", last.name, last.url, f.urls[5])
	}
}

// TestFailedSolveRetriesOnNextChange holds a failed solve to the queue:
// while no agent reports a model for one of the best-effort apps, the
// controller stays degraded and builds no engine after the failed first
// build, and the refit that brings the model re-solves in its round.
func TestFailedSolveRetriesOnNextChange(t *testing.T) {
	f := newEngineFleet(t, 8, 4, []string{"graph", "lstm"}, func(cfg *ControllerConfig) { cfg.Obs = obs.NewRegistry() })
	for i := range f.stats {
		delete(f.stats[i].BEModels, "lstm")
	}
	builds := func() uint64 { return f.ctl.obs.buildMatrix.Snapshot().Count }
	for r := 1; r <= 4; r++ {
		if st := f.round(); !st.Degraded || st.Solves != 0 || builds() != 1 {
			t.Fatalf("round %d: degraded %t, %d solves, %d engine builds; want degraded after one failed build", r, st.Degraded, st.Solves, builds())
		}
	}
	f.stats[3].BEModels["lstm"] = fixtureModels(t)["lstm"]
	f.encs[3].Resync()
	if st := f.round(); st.Degraded || st.Solves != 1 || len(st.Placement) != 2 {
		t.Fatalf("after the refit: degraded %t, %d solves, placement %v; want both apps placed", st.Degraded, st.Solves, st.Placement)
	}
}

// TestEngineSinglePodMatchesHungarian pins the exactness of a fleet that
// fits in one pod: under the default pod size, the value of the
// controller's placement on the live matrix equals assign.Hungarian's
// optimum bit for bit, at discovery, after a crash and after the rejoin.
// The agents are all distinct (four LC apps, a different provisioned
// power each), so the only ties are between replicas, whose rows are
// equal: every optimal placement sums the same cells.
func TestEngineSinglePodMatchesHungarian(t *testing.T) {
	const n = 12
	f := newEngineFleet(t, n, n, replicas(7), func(cfg *ControllerConfig) { cfg.PodSize = 0 })
	models := fixtureModels(t)
	lcs := []string{"img-dnn", "sphinx", "xapian", "tpcc"}
	for i := range f.stats {
		lc := spec(t, lcs[i%len(lcs)])
		st := &f.stats[i]
		st.LC, st.PeakLoad, st.LCModel = lc.Name, lc.PeakLoad, models[lc.Name]
		st.ProvisionedPowerW = lc.ProvisionedPowerW - float64(i)
	}
	check := func(st Status) {
		t.Helper()
		if st.Degraded || len(st.Unplaced) > 0 {
			t.Fatalf("status %+v, want a full placement", st)
		}
		alive := make(map[string]bool)
		for _, a := range st.Agents {
			alive[a.Name] = a.Alive
		}
		matrixModels := make(map[string]*utility.Model)
		var lc, be []*workload.Spec
		col := make(map[string]int)
		for _, s := range f.stats {
			if alive[s.Agent] {
				col[s.Agent] = len(lc)
				lc = append(lc, &workload.Spec{Name: s.Agent, Class: workload.LatencyCritical,
					PeakLoad: s.PeakLoad, ProvisionedPowerW: s.ProvisionedPowerW})
				matrixModels[s.Agent] = s.LCModel
			}
		}
		row := make(map[string]int)
		for _, name := range f.ctl.cfg.BE {
			row[name] = len(be)
			be = append(be, &workload.Spec{Name: name, Class: workload.BestEffort})
			matrixModels[name] = f.stats[0].BEModels[baseBE(name)]
		}
		mx, err := cluster.BuildMatrix(cluster.MatrixConfig{Machine: f.stats[0].Machine, LC: lc, BE: be, Models: matrixModels})
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := assign.Hungarian(mx.Value)
		if err != nil {
			t.Fatal(err)
		}
		// The canonical sum Hungarian and the engine's pods total with:
		// sorted, then added.
		var vals []float64
		for app, agent := range st.Placement {
			j, ok := col[agent]
			if !ok {
				t.Fatalf("%s placed on %s, which is not live", app, agent)
			}
			vals = append(vals, mx.Value[row[app]][j])
		}
		if len(vals) != len(be) {
			t.Fatalf("placement %v, want all %d apps placed", st.Placement, len(be))
		}
		sort.Float64s(vals)
		got := 0.0
		for _, v := range vals {
			got += v
		}
		if got != want {
			t.Fatalf("placement value %v != Hungarian optimum %v (diff %g)", got, want, got-want)
		}
	}

	st := f.round()
	check(st)
	victim := -1
	for i, s := range f.stats {
		if st.Placement["graph#1"] == s.Agent {
			victim = i
		}
	}
	f.setDown(victim, true)
	for r := 0; r < 2; r++ { // DeadAfter 2
		st = f.round()
	}
	if st.Deaths != 1 {
		t.Fatalf("deaths = %d, want the victim dead", st.Deaths)
	}
	check(st)
	f.setDown(victim, false)
	if st = f.round(); st.Rejoins != 1 {
		t.Fatalf("rejoins = %d", st.Rejoins)
	}
	check(st)
}
