package controlplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"pocolo/internal/invariant"
	"pocolo/internal/workload"
)

// A fault campaign replays a seeded, fully explicit fault schedule through
// a real controller and real agents — same HTTP codecs, same solver, same
// server managers — with every nondeterministic ingredient removed: agents
// advance simulated time via Advance instead of wall-clock pacing, the
// controller's Round is called directly instead of on its jittered timer,
// and requests travel over an in-process loopback transport whose failures
// come from the schedule, not the network. The invariant harness rides the
// agents' per-tick observe path throughout, so the campaign asserts not
// just that the control plane converges after crashes, partitions, delays,
// and load spikes, but that no physical invariant breaks on any tick on
// the way down or back up.

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultCrash kills the agent process: requests fail and its simulation
	// stops advancing until the fault expires (crash-and-restore; host
	// state survives, as with a paused container).
	FaultCrash FaultKind = iota
	// FaultDropHeartbeats partitions the agent from the controller:
	// requests fail but the agent keeps running.
	FaultDropHeartbeats
	// FaultDelayResponses delays every response from the agent by Delay.
	// Nothing waits it out: a Delay at or past the controller's Timeout
	// times out every RPC to the agent and loses its heartbeats, so it
	// decides exactly as FaultDropHeartbeats does, and a shorter Delay is
	// answered at once.
	FaultDelayResponses
	// FaultLoadSpike forces the agent's LC offered-load fraction to Level.
	FaultLoadSpike
	// FaultBrownout cuts a budget-tree node's power budget by Level
	// (0.3 = −30%) when the fault begins and restores the original budget
	// when it expires. Node names the tree node (default: the root);
	// Agent is ignored. Requires CampaignConfig.BudgetTree. Brownouts are
	// never drawn by RandomFaults — they only run when scheduled
	// explicitly.
	FaultBrownout
	// FaultPartition cuts the agent→controller telemetry path only: the
	// agent keeps running and the controller can still push assignments
	// and caps to it, but its stats stop arriving (poll probes of
	// /v1/stats are refused; streamed heartbeats are lost in flight, so
	// the sender resyncs on heal). The asymmetry is what distinguishes it
	// from FaultDropHeartbeats, which severs both directions. Partitions
	// are never drawn by RandomFaults — they only run when scheduled
	// explicitly.
	FaultPartition
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDropHeartbeats:
		return "drop-heartbeats"
	case FaultDelayResponses:
		return "delay-responses"
	case FaultLoadSpike:
		return "load-spike"
	case FaultBrownout:
		return "brownout"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent schedules one fault against one agent.
type FaultEvent struct {
	// At is the campaign time the fault begins.
	At time.Duration
	// Agent indexes CampaignConfig.Agents.
	Agent int
	// Kind selects the fault class.
	Kind FaultKind
	// Duration is how long the fault lasts.
	Duration time.Duration
	// Delay is the response delay for FaultDelayResponses.
	Delay time.Duration
	// Level is the forced load fraction in [0, 1] for FaultLoadSpike, or
	// the budget cut fraction in (0, 1) for FaultBrownout.
	Level float64
	// Node is the budget-tree node FaultBrownout cuts (default: the
	// root).
	Node string
}

// RandomFaults draws a seeded fault schedule: n events, uniform over
// agents and the four kinds it draws (crash, drop, delay, load spike).
// The campaign argument bounds the starts, not the faults: each fault
// starts at a heartbeat in the first three quarters of campaign and lasts
// 2 to 9 heartbeats, so the last can end up to 3/4·campaign + 9.5
// heartbeats in, past campaign itself when campaign is under 38
// heartbeats. A campaign that must end recovered (CampaignReport.Err)
// needs a Duration past that horizon by DeadAfter heartbeats plus
// MaxBackoff, the longest a polling controller waits to probe a dead
// agent again. The schedule is a pure function of its arguments —
// replaying the same seed replays the faults.
func RandomFaults(seed int64, agents, n int, campaign, heartbeat time.Duration) []FaultEvent {
	rng := rand.New(rand.NewSource(seed))
	events := make([]FaultEvent, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(campaign * 3 / 4)))
		dur := heartbeat * time.Duration(2+rng.Intn(8))
		ev := FaultEvent{
			At:       at.Round(heartbeat),
			Agent:    rng.Intn(agents),
			Kind:     FaultKind(rng.Intn(4)),
			Duration: dur,
		}
		if ev.Kind == FaultDelayResponses {
			// Past the campaign's default Timeout: the delay times out.
			ev.Delay = time.Second
		}
		if ev.Kind == FaultLoadSpike {
			ev.Level = 0.7 + rng.Float64()*0.3
		}
		events = append(events, ev)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// CampaignConfig assembles a deterministic fault campaign.
type CampaignConfig struct {
	// ControllerConfig configures the campaign's controller. NewCampaign
	// supplies AgentURLs, Client and Now — the loopback fabric's agent
	// addresses and transport, and the synthetic clock — and refuses them
	// preset. It fills three zero fields with its own defaults:
	//   - Heartbeat, the simulated time per round, 1 s: each round advances
	//     every running agent by Heartbeat, then runs the controller's round.
	//   - Timeout, the RPC timeout, 250 ms. No campaign RPC waits for it:
	//     it only splits FaultDelayResponses into delays that time out
	//     (Delay >= Timeout), whose RPCs fail at once with
	//     context.DeadlineExceeded, and delays answered at once.
	//   - MaxBackoff, 4×Heartbeat, so crashed agents rejoin within a short
	//     recovery window. Transport-parity suites set it to Heartbeat, so
	//     the polling controller probes dead agents every round, exactly as
	//     the streaming controller notices their first healed frame.
	// Under TransportStream each round every running agent encodes a delta
	// heartbeat and pushes it over the loopback fabric before the
	// controller's round runs; frames from agents whose link is not up
	// this round (see linkState) are deterministically lost, and the
	// sender resyncs with a full frame when connectivity heals. With a
	// BudgetTree, the tree-conservation invariant is registered on the
	// campaign harness; FaultBrownout events require one. Trace, when set,
	// records every migration and degradation the campaign provokes,
	// stamped on the synthetic clock; per-agent tracing is configured on
	// the AgentConfigs (TraceEvents).
	ControllerConfig
	// Agents configures the fleet. Traces are wrapped for load-spike
	// injection; Invariants is overridden with the campaign's harness.
	Agents []AgentConfig
	// Faults is the schedule to replay (see RandomFaults).
	Faults []FaultEvent
	// Duration is the total campaign length in simulated time; after the
	// last fault expires the remainder is the recovery window.
	Duration time.Duration
	// OnRound, when set, observes the controller's status after every
	// round — the decision capture hook transport-parity suites diff.
	OnRound func(round int, st Status)
	// Harness receives every invariant violation (default: a fresh
	// harness with DefaultCheckers).
	Harness *invariant.Harness
}

// CampaignReport summarizes a finished campaign.
type CampaignReport struct {
	// Rounds is the number of controller rounds driven.
	Rounds int
	// Status is the controller's final state.
	Status Status
	// Violations holds every invariant violation the harness recorded.
	Violations []invariant.Violation
	// PlacementErrors holds per-round placement-consistency failures.
	PlacementErrors []error
	// Deaths and Rejoins are the controller's failure-handling counters.
	Deaths, Rejoins int
}

// Err returns nil when the campaign finished with no invariant violations,
// no placement inconsistencies, and a fully recovered cluster.
func (r *CampaignReport) Err() error {
	if len(r.Violations) > 0 {
		return fmt.Errorf("controlplane: campaign: %d invariant violation(s), first: %s", len(r.Violations), r.Violations[0])
	}
	if len(r.PlacementErrors) > 0 {
		return fmt.Errorf("controlplane: campaign: %d placement inconsistencies, first: %w", len(r.PlacementErrors), r.PlacementErrors[0])
	}
	if r.Status.Degraded {
		return errors.New("controlplane: campaign ended degraded")
	}
	for _, a := range r.Status.Agents {
		if !a.Alive {
			return fmt.Errorf("controlplane: campaign ended with agent %s dead", a.Name)
		}
	}
	return nil
}

// Campaign drives a controller and a fleet of agents through a fault
// schedule in lockstep simulated time.
type Campaign struct {
	cfg       CampaignConfig
	agents    []*Agent
	spikes    []*spikeTrace
	transport *loopbackTransport
	ctl       *Controller
	harness   *invariant.Harness
	// encoders is the per-agent streaming sender state (nil under poll).
	encoders []*HeartbeatEncoder

	// Per-fault brownout edge state: the original budget of the cut node
	// and whether the cut is currently applied.
	brownoutOrig []float64
	brownoutOn   []bool

	clockMu sync.Mutex
	clock   time.Time // synthetic controller clock; advances one heartbeat per round
}

// NewCampaign builds the fleet, the loopback fabric, and the controller.
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	if len(cfg.Agents) == 0 {
		return nil, errors.New("controlplane: campaign needs agents")
	}
	if len(cfg.AgentURLs) > 0 || cfg.Client != nil || cfg.Now != nil {
		return nil, errors.New("controlplane: NewCampaign supplies the controller's AgentURLs, Client and Now; they must be unset")
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 4 * cfg.Heartbeat
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("controlplane: campaign duration must be positive")
	}
	for _, ev := range cfg.Faults {
		if ev.Agent < 0 || ev.Agent >= len(cfg.Agents) {
			return nil, fmt.Errorf("controlplane: fault targets agent %d of %d", ev.Agent, len(cfg.Agents))
		}
		if ev.Duration <= 0 {
			return nil, fmt.Errorf("controlplane: fault at %v has no duration", ev.At)
		}
		if ev.Kind == FaultBrownout {
			if cfg.BudgetTree == "" {
				return nil, errors.New("controlplane: brownout fault needs CampaignConfig.BudgetTree")
			}
			if ev.Level <= 0 || ev.Level >= 1 {
				return nil, fmt.Errorf("controlplane: brownout level %v outside (0, 1)", ev.Level)
			}
		}
	}
	if cfg.Harness == nil {
		cfg.Harness = invariant.NewHarness()
	}

	c := &Campaign{cfg: cfg, harness: cfg.Harness}
	c.transport = newLoopbackTransport()
	urls := make([]string, len(cfg.Agents))
	for i, ac := range cfg.Agents {
		if ac.Trace == nil {
			return nil, fmt.Errorf("controlplane: agent %d has no trace", i)
		}
		spike := &spikeTrace{inner: ac.Trace}
		ac.Trace = spike
		ac.Invariants = cfg.Harness
		agent, err := NewAgent(ac)
		if err != nil {
			return nil, err
		}
		host := fmt.Sprintf("campaign-agent-%d", i)
		c.transport.add(host, agent.Handler())
		c.agents = append(c.agents, agent)
		c.spikes = append(c.spikes, spike)
		urls[i] = "http://" + host
	}
	// The controller measures probe backoff on the campaign's synthetic
	// clock, which advances exactly one heartbeat per round: backoff
	// windows become round counts, independent of how fast the rounds
	// execute in wall time.
	c.clock = time.Unix(1_700_000_000, 0)
	c.cfg.AgentURLs = urls
	c.cfg.Client = &http.Client{Transport: c.transport}
	c.cfg.Now = func() time.Time {
		c.clockMu.Lock()
		defer c.clockMu.Unlock()
		return c.clock
	}
	ctl, err := NewController(c.cfg.ControllerConfig)
	if err != nil {
		return nil, err
	}
	c.ctl = ctl
	if ctl.cfg.Transport == TransportStream {
		// The controller joins the loopback fabric so streamed frames ride
		// the same HTTP codec path a live deployment uses.
		mux := http.NewServeMux()
		mux.HandleFunc(RouteHeartbeat, ctl.HeartbeatHandler)
		c.transport.add(campaignControllerHost, mux)
		c.encoders = make([]*HeartbeatEncoder, len(c.agents))
		for i, a := range c.agents {
			c.encoders[i] = NewHeartbeatEncoder(a.Name(), urls[i])
		}
	}
	if cfg.BudgetTree != "" {
		// The budget-tree conservation invariant rides every agent tick;
		// the controller is the budget authority (caps it installed, grace
		// it grants after mutations).
		if err := cfg.Harness.Register(invariant.NewTreeConservation(ctl)); err != nil {
			return nil, err
		}
	}
	c.brownoutOrig = make([]float64, len(cfg.Faults))
	c.brownoutOn = make([]bool, len(cfg.Faults))
	return c, nil
}

// Agents returns the campaign's fleet (for test inspection).
func (c *Campaign) Agents() []*Agent { return c.agents }

// Controller returns the campaign's controller (for test inspection).
func (c *Campaign) Controller() *Controller { return c.ctl }

// Run replays the schedule: each step applies the faults active at the
// current campaign time, advances every running agent by one heartbeat of
// simulated time, then drives one controller round and checks placement
// consistency. It returns the report; call report.Err() for the verdict.
func (c *Campaign) Run(ctx context.Context) (*CampaignReport, error) {
	report := &CampaignReport{}
	steps := int(c.cfg.Duration / c.cfg.Heartbeat)
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		now := time.Duration(step) * c.cfg.Heartbeat
		c.clockMu.Lock()
		c.clock = c.clock.Add(c.cfg.Heartbeat)
		c.clockMu.Unlock()

		if err := c.applyBrownouts(now); err != nil {
			return report, err
		}

		crashed := make([]bool, len(c.agents))
		links := make([]linkState, len(c.agents))
		level := make([]float64, len(c.agents))
		spiked := make([]bool, len(c.agents))
		for _, ev := range c.cfg.Faults {
			if now < ev.At || now >= ev.At+ev.Duration {
				continue
			}
			link := linkUp
			switch ev.Kind {
			case FaultCrash:
				crashed[ev.Agent] = true
				link = linkDown
			case FaultDropHeartbeats:
				link = linkDown
			case FaultDelayResponses:
				if ev.Delay >= c.cfg.Timeout {
					link = linkTimedOut
				}
			case FaultPartition:
				link = linkTelemetryCut
			case FaultLoadSpike:
				spiked[ev.Agent] = true
				level[ev.Agent] = ev.Level
			}
			links[ev.Agent] = max(links[ev.Agent], link)
		}
		for i := range c.agents {
			c.transport.setLink(fmt.Sprintf("campaign-agent-%d", i), links[i])
			c.spikes[i].set(spiked[i], level[i])
		}

		for i, a := range c.agents {
			if crashed[i] {
				continue // a dead process does not advance its simulation
			}
			if err := a.Advance(c.cfg.Heartbeat); err != nil {
				return report, fmt.Errorf("controlplane: advancing agent %d: %w", i, err)
			}
		}

		if c.encoders != nil {
			if err := c.emitHeartbeats(ctx, crashed, links); err != nil {
				return report, err
			}
		}

		c.ctl.Round(ctx)
		report.Rounds++
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(report.Rounds, c.ctl.Status())
		}
		if err := c.checkPlacement(); err != nil {
			report.PlacementErrors = append(report.PlacementErrors, fmt.Errorf("round %d (t=%v): %w", report.Rounds, now, err))
		}
	}
	report.Status = c.ctl.Status()
	report.Violations = c.harness.Violations()
	report.Deaths = report.Status.Deaths
	report.Rejoins = report.Status.Rejoins
	return report, nil
}

// campaignControllerHost is the controller's address on the loopback
// fabric (the streaming transport's heartbeat sink).
const campaignControllerHost = "campaign-controller"

// emitHeartbeats runs the streaming transport's send step for one round:
// every running agent encodes one heartbeat against its encoder state
// and pushes it to the controller over the loopback fabric. Loss is
// deterministic — a frame from an agent whose link is not up is encoded
// (the agent process doesn't know it is cut off) and then discarded, and
// the sender resyncs so its next delivered frame is a full snapshot.
// Crashed agents encode nothing: the process is dead, and its encoder
// state survives to resume delta encoding on restart, exactly like a
// paused container.
func (c *Campaign) emitHeartbeats(ctx context.Context, crashed []bool, links []linkState) error {
	for i, a := range c.agents {
		if crashed[i] {
			continue
		}
		stats, epoch := a.StatsEpoch()
		frame, err := c.encoders[i].Encode(stats, epoch)
		if err != nil {
			return fmt.Errorf("controlplane: encoding heartbeat for agent %d: %w", i, err)
		}
		if links[i] != linkUp {
			// Lost in flight: no ack ever comes back, so the sender cannot
			// know whether the controller applied it — resync.
			c.encoders[i].Resync()
			continue
		}
		ack, err := PostHeartbeat(ctx, c.cfg.Client, "http://"+campaignControllerHost, frame)
		if err != nil {
			c.encoders[i].Resync()
			continue
		}
		c.encoders[i].Ack(ack)
	}
	return nil
}

// applyBrownouts edge-triggers scheduled budget cuts: when a
// FaultBrownout begins, the target node's budget drops by Level; when it
// expires, the original budget comes back. Both edges go through the
// controller's SetBudget, so each lands in the trace (reasons "brownout"
// and "restore") and restarts the convergence grace window.
func (c *Campaign) applyBrownouts(now time.Duration) error {
	for i, ev := range c.cfg.Faults {
		if ev.Kind != FaultBrownout {
			continue
		}
		node := ev.Node
		if node == "" {
			node = c.ctl.BudgetRoot()
		}
		switch {
		case !c.brownoutOn[i] && c.brownoutOrig[i] == 0 && now >= ev.At && now < ev.At+ev.Duration:
			orig := c.ctl.NodeBudgets()[node]
			if orig <= 0 {
				return fmt.Errorf("controlplane: brownout node %q has no budget", node)
			}
			if err := c.ctl.SetBudget(node, orig*(1-ev.Level), "brownout"); err != nil {
				return fmt.Errorf("controlplane: applying brownout at %v: %w", now, err)
			}
			c.brownoutOrig[i] = orig
			c.brownoutOn[i] = true
		case c.brownoutOn[i] && now >= ev.At+ev.Duration:
			if err := c.ctl.SetBudget(node, c.brownoutOrig[i], "restore"); err != nil {
				return fmt.Errorf("controlplane: restoring brownout at %v: %w", now, err)
			}
			c.brownoutOn[i] = false
		}
	}
	return nil
}

// checkPlacement validates the controller's placement against its own
// liveness view. Outside degraded mode every placed best-effort app must
// sit on a distinct agent the controller believes alive, and the
// placement must be complete: every app is either placed or listed as
// unplaced, never both, and apps go unplaced only while they outnumber
// the live agents. In degraded mode the held last-known-good placement
// may legitimately reference dead agents, so only the matching property
// (distinct, known agents) applies.
func (c *Campaign) checkPlacement() error {
	st := c.ctl.Status()
	known := make(map[string]bool, len(st.Agents))
	alive := make(map[string]bool, len(st.Agents))
	for _, a := range st.Agents {
		known[a.Name] = true
		if a.Alive {
			alive[a.Name] = true
		}
	}
	if st.Degraded {
		return invariant.CheckPlacement(st.Placement, known)
	}
	if err := invariant.CheckPlacement(st.Placement, alive); err != nil {
		return err
	}
	unplaced := make(map[string]bool, len(st.Unplaced))
	for _, be := range st.Unplaced {
		unplaced[be] = true
	}
	for _, be := range c.cfg.BE {
		_, placed := st.Placement[be]
		switch {
		case placed && unplaced[be]:
			return fmt.Errorf("best-effort app %s both placed and unplaced", be)
		case !placed && !unplaced[be]:
			return fmt.Errorf("best-effort app %s neither placed nor unplaced", be)
		}
	}
	if len(st.Unplaced) > 0 && len(c.cfg.BE) <= len(alive) {
		return fmt.Errorf("%d best-effort apps unplaced with %d apps on %d live agents",
			len(st.Unplaced), len(c.cfg.BE), len(alive))
	}
	return nil
}

// spikeTrace wraps a trace with a campaign-controlled override level. Only
// the campaign goroutine mutates it, and the engine reads it from Advance
// on the same goroutine, but the accessors are locked anyway so a pacing
// loop (Start) mixed into a campaign stays race-free.
type spikeTrace struct {
	mu     sync.Mutex
	inner  workload.Trace
	active bool
	level  float64
}

// String implements workload.Trace.
func (t *spikeTrace) String() string { return t.inner.String() + "+spike" }

// Duration implements workload.Trace.
func (t *spikeTrace) Duration() time.Duration { return t.inner.Duration() }

// LoadFraction implements workload.Trace.
func (t *spikeTrace) LoadFraction(elapsed time.Duration) float64 {
	t.mu.Lock()
	active, level := t.active, t.level
	t.mu.Unlock()
	if active {
		return level
	}
	return t.inner.LoadFraction(elapsed)
}

func (t *spikeTrace) set(active bool, level float64) {
	t.mu.Lock()
	t.active = active
	t.level = level
	t.mu.Unlock()
}

// linkState is one agent's link to the controller for one round, which
// the campaign decides from the schedule. One rule serves the loopback
// fabric (RPCs from the controller) and the streaming send step
// (heartbeats to it), which loses a frame whenever the link is not up.
// When faults overlap, the worst link wins: the states are ordered.
type linkState uint8

const (
	// linkUp answers every RPC at once, a FaultDelayResponses delay
	// shorter than Timeout included.
	linkUp linkState = iota
	// linkTelemetryCut is a FaultPartition: GET /v1/stats and /v1/trace
	// are refused while pushes (/v1/assign, /v1/cap) still land.
	linkTelemetryCut
	// linkTimedOut is a FaultDelayResponses delay at or past Timeout:
	// every RPC fails at once with context.DeadlineExceeded, the cause
	// the controller's own deadline would give it.
	linkTimedOut
	// linkDown is a FaultCrash or FaultDropHeartbeats: every request is
	// refused.
	linkDown
)

// loopbackTransport routes HTTP requests straight to registered handlers
// in-process, failing each as its host's link says. It implements
// http.RoundTripper, and nothing in it waits.
type loopbackTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	links    map[string]linkState
}

func newLoopbackTransport() *loopbackTransport {
	return &loopbackTransport{
		handlers: make(map[string]http.Handler),
		links:    make(map[string]linkState),
	}
}

func (t *loopbackTransport) add(host string, h http.Handler) {
	t.mu.Lock()
	t.handlers[host] = h
	t.mu.Unlock()
}

func (t *loopbackTransport) setLink(host string, link linkState) {
	t.mu.Lock()
	t.links[host] = link
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper. It closes the request body, as
// the RoundTripper contract requires, so the controller's lane reuses it.
func (t *loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	host := req.URL.Host
	t.mu.Lock()
	h := t.handlers[host]
	link := t.links[host]
	t.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("loopback: no route to %s", host)
	}
	switch link {
	case linkDown:
		return nil, fmt.Errorf("loopback: connect %s: connection refused", host)
	case linkTimedOut:
		return nil, context.DeadlineExceeded
	case linkTelemetryCut:
		if req.URL.Path == RouteStats || req.URL.Path == RouteTrace {
			return nil, fmt.Errorf("loopback: connect %s: no route to host (partitioned)", host)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
