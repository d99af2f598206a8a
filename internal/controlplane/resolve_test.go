package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pocolo/internal/utility"
)

// diffSide is one controller of the differential harness and what the
// agents know of it: their encoders toward it and the assignments and
// caps it pushed them.
type diffSide struct {
	ctl  *Controller
	et   *echoTransport
	encs []*HeartbeatEncoder
}

// diffFleet drives the O(changed) controller (sides[0]) beside a
// full-scan reference (sides[1]) over one fleet and one transport. Both
// see the same reports every round. Before each reference round every
// agent is queued and its engine told to re-read the rows, so the
// reference re-reads every column, every row's model and the platform,
// refreshes every pod and evacuates every stranded one, and re-solves:
// the full scan the queue replaces.
type diffFleet struct {
	t         *testing.T
	transport string
	urls      []string
	stats     []StatsResponse
	downFor   []int // rounds an agent stays silent; 0 = running
	sides     [2]*diffSide
	tick      func()
	seq       uint64

	// What the O(changed) controller has been told: the placement inputs
	// of each agent's last report that reached it, each agent's liveness
	// in its last Status, and its solve count.
	heard  []StatsResponse
	alive  []bool
	solves int
}

// newDiffFleet builds n agents, named in the reverse of their URL order,
// whose provisioned power steps from one block of podSize agents to the
// next and whose best-effort models differ per agent, so which agent the
// rows' models come from matters.
func newDiffFleet(t *testing.T, transport string, n, podSize int, bes []string) *diffFleet {
	t.Helper()
	f := &diffFleet{t: t, transport: transport,
		urls: make([]string, n), stats: make([]StatsResponse, n), downFor: make([]int, n),
		heard: make([]StatsResponse, n), alive: make([]bool, n)}
	models := fixtureModels(t)
	for i := range f.urls {
		f.urls[i] = fmt.Sprintf("http://diff-agent-%d", i)
		st := streamTestStats(t, fmt.Sprintf("agent-%02d", n-1-i), "graph", "lstm")
		st.ProvisionedPowerW -= float64(i/podSize%4) * 5
		st.BEModels = map[string]*utility.Model{
			"graph": scaledModel(models["graph"], 1+0.01*float64(i)),
			"lstm":  scaledModel(models["lstm"], 1-0.01*float64(i)),
		}
		f.stats[i] = st
	}
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	f.tick = func() {
		mu.Lock()
		clock = clock.Add(time.Second)
		mu.Unlock()
	}
	for k := range f.sides {
		side := &diffSide{et: newEchoTransport(), encs: make([]*HeartbeatEncoder, n)}
		ctl, err := NewController(ControllerConfig{
			AgentURLs:  f.urls,
			BE:         bes,
			Transport:  transport,
			PodSize:    podSize,
			DeadAfter:  2,
			Heartbeat:  time.Second,
			MaxBackoff: time.Second, // probe a dead agent every round
			Client:     &http.Client{Transport: side.et},
			Now:        now,
		})
		if err != nil {
			t.Fatal(err)
		}
		side.ctl = ctl
		for i := range side.encs {
			side.encs[i] = NewHeartbeatEncoder(f.stats[i].Agent, f.urls[i])
		}
		f.sides[k] = side
	}
	return f
}

// scaledModel returns a copy of m with its Alpha0 scaled by k.
func scaledModel(m *utility.Model, k float64) *utility.Model {
	c := *m
	c.Alpha0 *= k
	return &c
}

// report is agent i's report to one side: the fleet's shared state with
// the assignment and cap that side last pushed it.
func (f *diffFleet) report(side *diffSide, i int) StatsResponse {
	st := f.stats[i]
	side.et.mu.Lock()
	st.AssignedBE = side.et.assigned[f.urls[i]]
	if capW, ok := side.et.caps[f.urls[i]]; ok {
		st.CapW = capW
	}
	side.et.mu.Unlock()
	return st
}

// resync makes agent i's next heartbeat to either side a full frame, as
// a restarted agent's is.
func (f *diffFleet) resync(i int) {
	for _, side := range f.sides {
		side.encs[i].Resync()
	}
}

// round delivers one round of reports from every running agent to both
// sides, runs each side's round, and holds the two to the same decision.
// It holds the O(changed) side to re-solving in exactly the rounds in
// which a report with changed placement inputs reached it or an agent's
// liveness flipped, unless the round left it degraded.
func (f *diffFleet) round(step int) {
	t := f.t
	t.Helper()
	f.tick()
	f.seq++
	delivered := make([]bool, len(f.stats))
	for k, side := range f.sides {
		switch f.transport {
		case TransportStream:
			var frames [][]byte
			var from []int
			for i := range f.stats {
				if f.downFor[i] > 0 {
					continue
				}
				frame, err := side.encs[i].Encode(f.report(side, i), f.seq)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, frame)
				from = append(from, i)
			}
			for j, ack := range side.ctl.IngestBatch(frames) {
				if ack.Reject {
					t.Fatalf("step %d: agent %d frame rejected", step, from[j])
				}
				side.encs[from[j]].Ack(ack)
				delivered[from[j]] = !ack.Resync
			}
		default:
			bodies := make(map[string][]byte, len(f.stats))
			for i := range f.stats {
				if f.downFor[i] > 0 {
					continue // no body: the probe fails
				}
				body, err := json.Marshal(f.report(side, i))
				if err != nil {
					t.Fatal(err)
				}
				bodies[f.urls[i]] = body
				delivered[i] = true
			}
			side.et.stats = bodies
		}
		if k == 1 {
			side.ctl.mu.Lock()
			for _, a := range side.ctl.agents {
				side.ctl.queueLocked(a)
			}
			if side.ctl.engine != nil {
				side.ctl.engine.reread = true
			}
			side.ctl.mu.Unlock()
		}
		side.ctl.Round(context.Background())
	}
	for i := range f.downFor {
		if f.downFor[i] > 0 {
			if f.downFor[i]--; f.downFor[i] == 0 {
				f.resync(i) // a restarted agent opens with a full frame
			}
		}
	}
	f.compare(step)
	f.checkSolves(step, delivered)
}

// inputsOf keeps what of a report the placement reads: the agent's name,
// platform, LC envelope and fitted models.
func inputsOf(st StatsResponse) StatsResponse {
	return StatsResponse{Agent: st.Agent, Machine: st.Machine, PeakLoad: st.PeakLoad,
		ProvisionedPowerW: st.ProvisionedPowerW, LCModel: st.LCModel, BEModels: st.BEModels}
}

// checkSolves holds the O(changed) side's solve count to the round's
// changes: delivered marks the agents whose report reached it.
func (f *diffFleet) checkSolves(step int, delivered []bool) {
	f.t.Helper()
	var why []string
	for i, ok := range delivered {
		if in := inputsOf(f.stats[i]); ok && !reflect.DeepEqual(in, f.heard[i]) {
			why = append(why, fmt.Sprintf("agent %d's inputs", i))
			f.heard[i] = in
		}
	}
	st := f.sides[0].ctl.Status()
	for i, a := range st.Agents {
		if a.Alive != f.alive[i] {
			why = append(why, fmt.Sprintf("agent %d's liveness", i))
			f.alive[i] = a.Alive
		}
	}
	want := f.solves
	if len(why) > 0 && !st.Degraded {
		want++
	}
	if st.Solves != want {
		f.t.Fatalf("step %d (%s): %d solves, want %d (changed: %v)", step, f.transport, st.Solves, want, why)
	}
	f.solves = st.Solves
}

// decision is what the differential test holds the two sides to. It
// leaves out the solve count: the reference re-solves every round.
type decision struct {
	Placement map[string]string
	Unplaced  []string
	Degraded  bool
	Total     float64
	Built     bool
	Desired   []string
}

func (f *diffFleet) decision(side *diffSide) decision {
	c := side.ctl
	c.mu.Lock()
	defer c.mu.Unlock()
	d := decision{Unplaced: c.unplaced, Degraded: c.degraded, Placement: map[string]string{}}
	for be, url := range c.placement {
		d.Placement[be] = url
	}
	if c.engine != nil {
		d.Built, d.Total = true, c.engine.sh.Total()
	}
	for _, a := range c.agents {
		d.Desired = append(d.Desired, a.desiredBE)
	}
	return d
}

func (f *diffFleet) compare(step int) {
	f.t.Helper()
	got, want := f.decision(f.sides[0]), f.decision(f.sides[1])
	if !reflect.DeepEqual(got, want) {
		f.t.Fatalf("step %d (%s): O(changed) controller decided\n%+v\nfull-scan reference\n%+v", step, f.transport, got, want)
	}
}

// running lists the agents that are up, in URL order.
func (f *diffFleet) running() []int {
	var out []int
	for i, d := range f.downFor {
		if d == 0 {
			out = append(out, i)
		}
	}
	return out
}

// engineColumns returns the URL indexes of the O(changed) engine's
// columns in column order, and its first live column's (or nil, -1).
func (f *diffFleet) engineColumns() (cols []int, first int) {
	c := f.sides[0].ctl
	c.mu.Lock()
	defer c.mu.Unlock()
	first = -1
	if c.engine == nil {
		return nil, first
	}
	for _, a := range c.engine.hosts {
		cols = append(cols, a.slot)
	}
	if a := c.engine.firstLive(); a != nil {
		first = a.slot
	}
	return cols, first
}

// TestResolveMatchesFullScan runs the O(changed) re-solve beside the
// full-scan reference on both transports, over seeded sequences of crash
// and rejoin, full-frame model refits, peak and cap envelope changes,
// renames, platform changes on the first live agent, deaths of the agent
// the best-effort models come from, and whole-pod outages (with as many
// apps as live agents after them, and with more: the overflow rebuild).
// After every round the two must hold the same placement, unplaced apps,
// engine total and desired BE per agent, and the O(changed) side must
// have re-solved exactly if its round saw a change. A refit the queue
// misses (on stream, a full frame not marked; on poll, a changed model
// not seen), a re-solve without a change, or rows not re-read when their
// source agent changes fails it.
func TestResolveMatchesFullScan(t *testing.T) {
	const n, podSize, rounds = 16, 4, 90
	for _, transport := range []string{TransportStream, TransportPoll} {
		for _, nBE := range []int{12, 14} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/be%d/seed%d", transport, nBE, seed), func(t *testing.T) {
					testResolveMatchesFullScan(t, transport, n, podSize, nBE, rounds, seed)
				})
			}
		}
	}
}

func testResolveMatchesFullScan(t *testing.T, transport string, n, podSize, nBE, rounds int, seed int64) {
	f := newDiffFleet(t, transport, n, podSize, replicas(nBE))
	rng := rand.New(rand.NewSource(seed))
	f.round(0)
	f.round(0)
	events := make(map[string]int)
	for step := 1; step <= rounds; step++ {
		run := f.running()
		if len(run) == 0 {
			f.round(step)
			continue
		}
		cols, first := f.engineColumns()
		pick := run[rng.Intn(len(run))]
		switch ev := rng.Intn(12); {
		case ev < 3: // crash, back in 1–4 rounds with a full frame
			f.downFor[pick] = 1 + rng.Intn(4)
			events["crash"]++
		case ev == 3: // a full-frame refit: any agent's LC model, or the BE models of the agent the rows read
			if rng.Intn(2) == 0 || first < 0 {
				f.stats[pick].LCModel = scaledModel(f.stats[pick].LCModel, 1+0.05*(rng.Float64()-0.5))
			} else {
				pick = first
				st := &f.stats[pick]
				st.BEModels = map[string]*utility.Model{
					"graph": scaledModel(st.BEModels["graph"], 1+0.05*(rng.Float64()-0.5)),
					"lstm":  scaledModel(st.BEModels["lstm"], 1+0.05*(rng.Float64()-0.5)),
				}
			}
			f.resync(pick)
			events["refit"]++
		case ev == 4: // the LC envelope: peak load or provisioned power
			st := &f.stats[pick]
			if rng.Intn(2) == 0 {
				st.PeakLoad *= 1 + 0.1*(rng.Float64()-0.5)
			} else {
				st.ProvisionedPowerW += float64(rng.Intn(11) - 5)
			}
			f.resync(pick)
			events["envelope"]++
		case ev == 5: // rename: a fresh sender under a new name
			name := fmt.Sprintf("agent-r%02d-%03d", pick, step)
			f.stats[pick].Agent = name
			for _, side := range f.sides {
				side.encs[pick] = NewHeartbeatEncoder(name, f.urls[pick])
			}
			events["rename"]++
		case ev == 6 && first >= 0: // the platform of the first live agent
			f.stats[first].Machine.IdlePowerW += 1
			f.resync(first)
			events["platform"]++
		case ev == 7 && first >= 0 && f.downFor[first] == 0: // the rows' model source dies
			f.downFor[first] = 2 + rng.Intn(3)
			events["source"]++
		case ev == 8 && len(cols) == n: // a whole engine pod goes dark
			p := rng.Intn(n / podSize)
			for _, i := range cols[p*podSize : (p+1)*podSize] {
				if f.downFor[i] == 0 {
					f.downFor[i] = 3 + rng.Intn(3)
				}
			}
			events["pod"]++
		}
		f.round(step)
	}
	for _, kind := range []string{"crash", "refit", "envelope", "rename", "platform", "source", "pod"} {
		if events[kind] == 0 {
			t.Errorf("seed %d never drew a %s event: %v", seed, kind, events)
		}
	}
	if f.solves < rounds/2 {
		t.Errorf("only %d re-solves in %d rounds", f.solves, rounds)
	}
}

// TestRefitResolvesNextRound holds the re-solve trigger to the queue on
// both transports. A round in which every agent resends unchanged inputs
// (on stream, each as a full frame) re-solves nothing, nor does a poll
// body the decoder's fast path declines and decodes afresh. A changed LC
// envelope, resent as a full frame on stream or as a changed /v1/stats
// body on poll, re-solves in the next round on the engine the controller
// has. A rename re-solves on a rebuilt engine in the round its report
// lands.
func TestRefitResolvesNextRound(t *testing.T) {
	for _, transport := range []string{TransportStream, TransportPoll} {
		t.Run(transport, func(t *testing.T) {
			f := newDiffFleet(t, transport, 8, 4, replicas(6))
			// json.Marshal escapes this name, so the poll decoder's fast
			// path declines agent 7's body every round and decodes it anew.
			f.stats[7].Agent = "agent<07>"
			for _, side := range f.sides {
				side.encs[7] = NewHeartbeatEncoder(f.stats[7].Agent, f.urls[7])
			}
			f.round(0)
			f.round(0)
			ctl := f.sides[0].ctl
			engine := func() *placementEngine {
				ctl.mu.Lock()
				defer ctl.mu.Unlock()
				return ctl.engine
			}
			solves, built := ctl.Status().Solves, engine()

			for i := range f.stats {
				f.resync(i)
			}
			if f.round(1); ctl.Status().Solves != solves {
				t.Fatalf("a resync with unchanged inputs re-solved: %d solves, want %d", ctl.Status().Solves, solves)
			}

			for step, i := range []int{5, 7} { // agent 7's poll body is declined
				f.stats[i].ProvisionedPowerW -= 3
				f.resync(i)
				if f.round(2 + step); ctl.Status().Solves != solves+1+step {
					t.Fatalf("agent %d's refit left %d solves, want %d", i, ctl.Status().Solves, solves+1+step)
				}
				if engine() != built {
					t.Fatalf("agent %d's refit rebuilt the engine", i)
				}
			}

			f.stats[6].Agent = "agent-renamed"
			for _, side := range f.sides {
				side.encs[6] = NewHeartbeatEncoder("agent-renamed", f.urls[6])
			}
			for step := 4; ctl.Status().Agents[6].Name != "agent-renamed"; step++ {
				if step > 6 {
					t.Fatal("the renamed report never landed")
				}
				f.round(step)
			}
			if st := ctl.Status(); st.Solves != solves+3 {
				t.Fatalf("a rename left %d solves, want %d", st.Solves, solves+3)
			}
			if engine() == built {
				t.Fatal("a rename kept the engine")
			}
		})
	}
}

// resolveRig is an unbudgeted stream controller over n agents and n/2
// best-effort replicas, discovered and solved, with DeadAfter 1: one
// missed report kills an agent. Names run in slot order, so slot 0 is
// the agent the rows' best-effort models come from.
func resolveRig(tb testing.TB, n int) *Controller {
	tb.Helper()
	tmpl := streamTestStats(tb, "template", "graph", "lstm")
	urls := make([]string, n)
	frames := make([][]byte, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://resolve-agent-%d", i)
		st := tmpl
		st.Agent = fmt.Sprintf("agent-%05d", i)
		st.ProvisionedPowerW -= float64(i % 7)
		frame, err := NewHeartbeatEncoder(st.Agent, urls[i]).Encode(st, 1)
		if err != nil {
			tb.Fatal(err)
		}
		frames[i] = frame
	}
	ctl, err := NewController(ControllerConfig{
		AgentURLs: urls,
		BE:        replicas(n / 2),
		Transport: TransportStream,
		PodSize:   64,
		DeadAfter: 1,
		Heartbeat: time.Second,
		Client:    &http.Client{Transport: newEchoTransport()},
		Now:       func() time.Time { return time.Unix(1_700_000_000, 0) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i, ack := range ctl.IngestBatch(frames) {
		if ack.Reject || ack.Resync {
			tb.Fatalf("agent %d ack %+v", i, ack)
		}
	}
	ctl.Round(context.Background())
	if st := ctl.Status(); len(st.Placement) != n/2 {
		tb.Fatalf("placed %d of %d replicas", len(st.Placement), n/2)
	}
	return ctl
}

// crashOrRejoin takes agent i down if it is alive and brings it back if
// not, then re-solves, under the controller lock as a round does. It
// reports whether the agent is now alive.
func crashOrRejoin(c *Controller, i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agents[i]
	if a.alive {
		c.observeLocked(a, nil, c.now(), "crash", false)
	} else {
		c.observeLocked(a, &a.last, c.now(), "", false)
	}
	c.resolveLocked(c.now())
	return a.alive
}

// TestResolveAllocsFlat holds a re-solve's allocations to a constant: one
// crash or rejoin at 2,048 agents (32 pods) allocates what it does at 256
// (4 pods), within a few objects. A pass over every pod or agent that
// allocated would add at least one object per pod.
func TestResolveAllocsFlat(t *testing.T) {
	perResolve := func(n int) float64 {
		ctl := resolveRig(t, n)
		victim := 1
		return testing.AllocsPerRun(20, func() {
			if crashOrRejoin(ctl, victim) {
				victim = 1 + (victim+388)%(n-1) // never slot 0, the models' source
			}
		})
	}
	small, large := perResolve(256), perResolve(2048)
	t.Logf("re-solve allocs: %v at 256 agents, %v at 2,048", small, large)
	if large > small+4 {
		t.Fatalf("re-solve allocs: %v at 256 agents, %v at 2,048; want no term that grows with the fleet", small, large)
	}
}

// TestResolveLogLineCountsMoves holds the re-solve log line to counts: at
// 1k agents and 500 apps, the line a crash's re-solve logs names the
// agents solved over, the apps moved and the apps unplaced, not the
// placement map.
func TestResolveLogLineCountsMoves(t *testing.T) {
	ctl := resolveRig(t, 1000)
	before := ctl.Status().Placement
	victim := -1
	for i, a := range ctl.Status().Agents {
		if a.Name == before["graph#100"] {
			victim = i
		}
	}
	var lines []string
	ctl.logf = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	crashOrRejoin(ctl, victim)
	var solved []string
	for _, l := range lines {
		if strings.HasPrefix(l, "placement solved") {
			solved = append(solved, l)
		}
	}
	moves := moved(before, ctl.Status().Placement)
	if len(moves) == 0 {
		t.Fatal("the crash of graph#100's agent moved nothing")
	}
	want := fmt.Sprintf("placement solved over 999 agents: %d moved, 0 unplaced", len(moves))
	if len(solved) != 1 || solved[0] != want {
		t.Fatalf("re-solve logged %d bytes: %.200q…, want %q", len(strings.Join(solved, "")), solved, want)
	}
}
