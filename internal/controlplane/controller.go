package controlplane

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
)

// Transport values for ControllerConfig.Transport.
const (
	// TransportPoll is the original pull model: the controller GETs every
	// agent's /v1/stats each round.
	TransportPoll = "poll"
	// TransportStream is the push model: agents send binary delta
	// heartbeats (POST /v1/heartbeat) that ingest into per-pod shards;
	// the round loop copies each changed report out of its shard.
	TransportStream = "stream"
)

// SolverSharded names the pod-sharded incremental assignment engine
// (cluster.Sharded) the controller keeps warm across re-solves.
//
// Deprecated: the engine is the controller's only placement path; see
// ControllerConfig.Solver.
const SolverSharded = "sharded"

// ControllerConfig assembles the cluster controller.
type ControllerConfig struct {
	// AgentURLs lists the agents' base URLs (static discovery), e.g.
	// "http://127.0.0.1:7001"; required.
	AgentURLs []string
	// BE names the best-effort apps to keep placed across the cluster.
	// While they outnumber the live agents, the apps with the lowest
	// best-case value wait unplaced (of equal ones, the later in BE).
	BE []string
	// Heartbeat is the poll interval (default 1 s). Each round is jittered
	// by ±Jitter·Heartbeat so a fleet of controllers does not thunder.
	Heartbeat time.Duration
	// Timeout bounds each agent request (default Heartbeat/2).
	Timeout time.Duration
	// DeadAfter is K: an alive agent missing K consecutive heartbeats is
	// declared dead and its best-effort work is migrated (default 3).
	DeadAfter int
	// MaxBackoff caps the exponential probe backoff for dead agents
	// (default 16×Heartbeat).
	MaxBackoff time.Duration
	// Jitter is the relative heartbeat jitter in [0, 1) (default 0.2).
	Jitter float64
	// Solver must be "" or SolverSharded; NewController rejects any other
	// value.
	//
	// Deprecated: the placement engine (see PodSize) is the only solver,
	// so there is nothing to select.
	Solver string
	// Transport selects how agent state reaches the controller:
	// TransportPoll (default) or TransportStream.
	Transport string
	// PodSize is the pod size of the placement engine, a sharded solver
	// built once over the reporting agents and repaired in place on each
	// re-solve. Its pods are contiguous runs of agents in name order: a
	// crash or rejoin re-solves only its own pod, jobs move to other pods
	// only when an outage leaves a pod more jobs than live agents, and a
	// fleet of at most PodSize agents is solved exactly. Under the
	// streaming transport PodSize is also the number of agents per state
	// shard (default 64).
	PodSize int
	// BudgetTree, when non-empty, is a hierarchical budget-tree spec (see
	// tree.Parse) whose leaves name the agents. Each round the controller
	// re-divides every node's budget over the fleet's reported power draw
	// and pushes the per-agent shares over POST /v1/cap; SetBudget
	// mutates a node at runtime (brownout campaigns).
	BudgetTree string
	// Seed drives the heartbeat jitter.
	Seed int64
	// Logf, when set, receives controller event logs.
	Logf func(format string, args ...any)
	// Client supplies the RoundTripper every agent RPC goes through
	// (tests, the fleet benchmark); only its Transport is used, and a nil
	// Transport means http.DefaultTransport. The controller bounds each
	// RPC with Timeout itself and never follows a redirect, so
	// NewController rejects a Client whose Timeout, Jar or CheckRedirect
	// is set rather than silently ignore it.
	Client *http.Client
	// Now overrides the clock used for liveness bookkeeping — dead-agent
	// probe backoff and report staleness (default time.Now). Deterministic
	// drivers (the fault campaign) substitute a clock that advances one
	// heartbeat per round so backoff windows are measured in rounds, not
	// wall time.
	Now func() time.Time
	// Trace, when non-nil, records the controller's own decisions —
	// placements, migrations, degradations, and solve summaries — stamped
	// on the controller clock. CollectTrace merges it with the per-agent
	// traces fetched over /v1/trace into one cluster timeline.
	Trace *trace.Tracer
	// Obs, when non-nil, is the controller's metrics registry: round
	// latency, SLO burn, heartbeat decode latency, per-pod solve latency
	// and staleness watermarks all land here and are appended to the
	// /metrics exposition. Nil disables the whole plane at one pointer
	// check per site.
	Obs *obs.Registry
	// RoundDeadline is the round-latency SLO target and the flight
	// recorder's trigger threshold (default Heartbeat). The per-agent
	// staleness SLO target under the streaming transport is DeadAfter ×
	// Heartbeat, and each objective tolerates a 1 % breach fraction.
	RoundDeadline time.Duration
	// Recorder, when non-nil, captures a diagnostics bundle when a round
	// blows RoundDeadline (rate-limited on the controller clock).
	Recorder *obs.FlightRecorder
	// InjectRoundLatency, when non-nil, adds synthetic latency to round
	// r's measured duration before the deadline check — fault injection
	// for deterministic flight-recorder tests. Nothing sleeps.
	InjectRoundLatency func(round int) time.Duration
}

// agentState is the controller's view of one agent.
type agentState struct {
	url  string
	name string // reported identity; URL until first contact
	lc   string
	// statsURL, capURL and assignURL are url+route for the agent's three
	// round RPCs, parsed once by NewController. Like url they never
	// change, so the unlocked RPC phases read them.
	statsURL, capURL, assignURL *url.URL

	// Liveness and the last report: observeLocked is their only writer,
	// except that an acknowledged push sets last.AssignedBE or last.CapW.
	alive    bool
	everSeen bool
	misses   int
	lastErr  string
	last     StatsResponse
	// lastHeard is when the report in last was taken: the round's clock
	// under poll, the frame's ingest time under stream.
	lastHeard time.Time

	// backoff and nextDue schedule the poll transport's probes of a dead
	// agent.
	backoff time.Duration
	nextDue time.Time
	// streamSeq is the heartbeat seq last folded into this state by the
	// streaming transport; a round that sees no higher published seq
	// counts a miss, mirroring a failed poll probe.
	streamSeq uint64
	// probeCache is the poll decoder's memory of this agent's last
	// fast-path body (statsdecode.go); nil under the streaming transport.
	// Immutable: a probe that sees a cached section or string change
	// returns a new one, which applyProbesLocked installs.
	probeCache *statsCache
	// desiredBE is the BE app the current placement puts on this agent
	// ("" = park). It is refreshed wherever the placement changes, so
	// deriving the round's assign pushes is one comparison per agent.
	desiredBE string

	// slot is the agent's index in Controller.agents (its stream slot).
	slot int
	// queued reports that the agent is on Controller.changed; counted
	// whether it was placeable when Controller.nPlaceable last counted it.
	queued, counted bool
}

// placeable reports whether an agent can host best-effort work: alive,
// with a fitted LC model to price its column.
func (a *agentState) placeable() bool { return a.alive && a.last.LCModel != nil }

// AgentStatus is the exported per-agent view.
type AgentStatus struct {
	URL        string  `json:"url"`
	Name       string  `json:"name"`
	LC         string  `json:"lc"`
	Alive      bool    `json:"alive"`
	Misses     int     `json:"misses"`
	LastError  string  `json:"last_error,omitempty"`
	AssignedBE string  `json:"assigned_be"`
	Slack      float64 `json:"slack"`
	PowerW     float64 `json:"power_w"`
}

// Status is a snapshot of the controller's state.
type Status struct {
	Agents    []AgentStatus     `json:"agents"`
	Placement map[string]string `json:"placement"` // BE app → agent name
	Unplaced  []string          `json:"unplaced,omitempty"`
	Degraded  bool              `json:"degraded"`
	Rounds    int               `json:"rounds"`
	Solves    int               `json:"solves"`
	Deaths    int               `json:"deaths"`
	Rejoins   int               `json:"rejoins"`
	Budget    *BudgetStatus     `json:"budget,omitempty"`
}

// Controller observes agents over either transport, detects failures,
// and keeps the cluster's best-effort placement solved against the live
// membership.
type Controller struct {
	cfg       ControllerConfig
	transport http.RoundTripper // every agent RPC's; see ControllerConfig.Client
	rng       *rand.Rand
	logf      func(string, ...any)
	now       func() time.Time
	tracer    *trace.Tracer
	stream    *streamState // nil under the polling transport
	obs       *ctlObs      // nil without a metrics registry
	// roundDeadline is the resolved RoundDeadline (never zero when obs or
	// the recorder is wired).
	roundDeadline time.Duration
	// assignBodies maps each name a placement can push — every BE app, and
	// "" to park — to its POST /v1/assign body, marshalled once. Read-only.
	assignBodies map[string][]byte

	mu        sync.Mutex
	agents    []*agentState // in AgentURLs order: agents[i] is stream slot i
	byURL     map[string]*agentState
	cursors   map[string]uint64 // agent URL → /v1/trace since-cursor
	collected []trace.Event     // agent events fetched by CollectTrace
	placement map[string]string // BE → agent URL
	unplaced  []string
	degraded  bool
	engine    *placementEngine // warm sharded solver; nil until first needed
	// changed lists the agents whose placement inputs (liveness, name,
	// platform, LC envelope or models) changed since the engine last read
	// them; see queueLocked. A round re-solves exactly when it is
	// non-empty: discovery queues every agent for the first solve.
	changed []*agentState
	// nPlaceable counts the placeable agents as of the last re-solve.
	nPlaceable int
	rounds     int
	solves     int
	deaths     int
	rejoins    int
	budget     *budgetState // nil when unbudgeted
	// pushes is the push list the next round fills, kept across rounds.
	// A round takes it under mu and returns it once the pushes are
	// recorded; a concurrent round finds none and allocates its own.
	pushes []pendingPush
	// probes is the poll round's probe results, kept the same way: a
	// round takes it with the due set and returns it, cleared, after the
	// fold.
	probes []probeResult

	// laneMu guards lanes and fans, the RPC lanes and fan-out states no
	// fan-out holds, kept for the next probe, push or trace-page fan-out.
	laneMu sync.Mutex
	lanes  []*rpcLane
	fans   []*fanState
}

// NewController validates the configuration and builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if len(cfg.AgentURLs) == 0 {
		return nil, errors.New("controlplane: controller needs at least one agent URL")
	}
	if err := cmp.Or(distinct("agent URL", cfg.AgentURLs), distinct("best-effort app", cfg.BE)); err != nil {
		return nil, err
	}
	transport := http.DefaultTransport
	if cl := cfg.Client; cl != nil {
		if cl.Timeout != 0 || cl.Jar != nil || cl.CheckRedirect != nil {
			return nil, errors.New("controlplane: the controller uses only its Client's Transport; Timeout, Jar and CheckRedirect must be unset")
		}
		if cl.Transport != nil {
			transport = cl.Transport
		}
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Heartbeat < 0 {
		return nil, errors.New("controlplane: heartbeat must be positive")
	}
	if cfg.Timeout < 0 || cfg.MaxBackoff < 0 || cfg.RoundDeadline < 0 {
		return nil, fmt.Errorf("controlplane: negative duration: timeout %v, max backoff %v, round deadline %v", cfg.Timeout, cfg.MaxBackoff, cfg.RoundDeadline)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = cfg.Heartbeat / 2
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 3
	}
	if cfg.DeadAfter < 1 {
		return nil, errors.New("controlplane: dead-after must be at least 1")
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 16 * cfg.Heartbeat
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		return nil, fmt.Errorf("controlplane: jitter %v outside [0, 1)", cfg.Jitter)
	}
	if cfg.Solver != "" && cfg.Solver != SolverSharded {
		return nil, fmt.Errorf("controlplane: unknown solver %q (the sharded engine is the only one)", cfg.Solver)
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportPoll
	}
	if cfg.Transport != TransportPoll && cfg.Transport != TransportStream {
		return nil, fmt.Errorf("controlplane: unknown transport %q (want %q or %q)", cfg.Transport, TransportPoll, TransportStream)
	}
	if cfg.PodSize == 0 {
		cfg.PodSize = cluster.DefaultPodSize
	}
	if cfg.PodSize < 1 {
		return nil, errors.New("controlplane: pod size must be at least 1")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		cfg:       cfg,
		transport: transport,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		logf:      logf,
		now:       now,
		tracer:    cfg.Trace,
		cursors:   make(map[string]uint64, len(cfg.AgentURLs)),
	}
	c.assignBodies = make(map[string][]byte, len(cfg.BE)+1)
	for _, be := range append([]string{""}, cfg.BE...) {
		c.assignBodies[be], _ = json.Marshal(AssignRequest{BE: be}) // a string always marshals
	}
	c.byURL = make(map[string]*agentState, len(cfg.AgentURLs))
	for i, u := range cfg.AgentURLs {
		a := &agentState{url: u, name: u, slot: i}
		var errStats, errCap, errAssign error
		a.statsURL, errStats = parseAgentURL(u, RouteStats)
		a.capURL, errCap = parseAgentURL(u, RouteCap)
		a.assignURL, errAssign = parseAgentURL(u, RouteAssign)
		if err := cmp.Or(errStats, errCap, errAssign); err != nil {
			return nil, err
		}
		c.agents = append(c.agents, a)
		c.byURL[u] = a
	}
	if cfg.Transport == TransportStream {
		c.stream = newStreamState(cfg.AgentURLs, cfg.PodSize)
	}
	if cfg.BudgetTree != "" {
		b, err := newBudgetState(cfg.BudgetTree, cfg.Trace)
		if err != nil {
			return nil, err
		}
		c.budget = b
	}
	c.roundDeadline = cfg.RoundDeadline
	if c.roundDeadline == 0 {
		c.roundDeadline = cfg.Heartbeat
	}
	staleLimit := time.Duration(cfg.DeadAfter) * cfg.Heartbeat
	nPods := (len(cfg.AgentURLs) + cfg.PodSize - 1) / cfg.PodSize
	c.obs = newCtlObs(cfg.Obs, cfg.Transport == TransportPoll, nPods, c.roundDeadline, staleLimit)
	return c, nil
}

// distinct refuses an empty or repeated entry in list, a list of what.
func distinct(what string, list []string) error {
	seen := make(map[string]bool, len(list))
	for _, s := range list {
		if s == "" {
			return fmt.Errorf("controlplane: empty %s", what)
		}
		if seen[s] {
			return fmt.Errorf("controlplane: duplicate %s %s", what, s)
		}
		seen[s] = true
	}
	return nil
}

// parseAgentURL parses one agent route, base+route, as every RPC to it
// sends it. The URL must name a scheme and a host, and it may not carry
// user info: the controller's requests send no credentials.
func parseAgentURL(base, route string) (*url.URL, error) {
	u, err := url.Parse(base + route)
	if err != nil {
		return nil, fmt.Errorf("controlplane: agent URL %q: %w", base, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("controlplane: agent URL %q has no scheme or host", base)
	}
	if u.User != nil {
		return nil, fmt.Errorf("controlplane: agent URL %q carries user info, which the controller does not send", base)
	}
	return u, nil
}

// Run polls until ctx is cancelled.
func (c *Controller) Run(ctx context.Context) error {
	for {
		c.Round(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.jitteredHeartbeat()):
		}
	}
}

// jitteredHeartbeat returns the next poll delay: Heartbeat ± Jitter.
func (c *Controller) jitteredHeartbeat() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := 1 + c.cfg.Jitter*(2*c.rng.Float64()-1)
	return time.Duration(float64(c.cfg.Heartbeat) * j)
}

// Round performs one heartbeat cycle: observe the fleet (poll probes or
// streamed snapshots), update liveness, re-solve placement if an agent's
// placement inputs changed, compute the assignment and budget pushes
// under the lock, then execute every push through the RPC fan-out with
// the lock released. Only acknowledged pushes are recorded as agent state
// — a failed push is re-derived and retried next round. Each RPC is
// bounded by the request timeout from its own start, and every fan-out
// gives each blocked RPC a worker of its own (fanOut), so a fan-out costs
// at most one timeout however many agents stall: a poll round, which
// probes and then pushes, at most two, and a stream round one. Exposed
// for deterministic tests; Run calls it on the jittered interval.
func (c *Controller) Round(ctx context.Context) {
	now := c.now()
	// Round timing is measured, not derived from the controller clock:
	// deterministic campaigns advance that clock one heartbeat per round
	// regardless of how long the round took.
	var start time.Time
	if c.obs != nil || c.cfg.Recorder != nil {
		start = time.Now()
	}

	if c.stream != nil {
		c.mu.Lock()
		c.streamObserveLocked(now)
	} else {
		results := c.pollProbe(ctx, now)
		c.mu.Lock()
		c.applyProbesLocked(results, now)
		clear(results)
		c.probes = results[:0]
	}
	c.rounds++
	round := c.rounds

	if len(c.changed) > 0 {
		c.resolveLocked(now)
	}
	pushes := c.budgetPushesLocked(now, c.assignPushesLocked(c.pushes[:0]))
	c.pushes = nil
	c.mu.Unlock()

	if len(pushes) > 0 {
		c.pushAll(ctx, pushes)
	}
	c.mu.Lock()
	c.recordPushesLocked(pushes)
	c.pushes = pushes[:0]
	c.mu.Unlock()
	if !start.IsZero() {
		c.observeRound(now, round, time.Since(start))
	}
}

// probeResult is one poll probe's outcome. cache is the agent's probe
// cache as pollProbe found it, and after a successful probe the one to
// install; fast reports that the decoder's fast path took the body
// (decodeStats).
type probeResult struct {
	agent *agentState
	cache *statsCache
	stats StatsResponse
	fast  bool
	err   error
}

// pollProbe probes every due agent on one fan-out, one attempt each: a
// failed probe is a miss, as a lost heartbeat is under stream. Runs
// lock-free: the due set and each agent's probe cache are snapshotted
// under the lock, the probes are not. The results live in the
// controller's kept buffer, which the caller returns after the fold.
func (c *Controller) pollProbe(ctx context.Context, now time.Time) []probeResult {
	c.mu.Lock()
	results := c.probes[:0]
	c.probes = nil
	for _, a := range c.agents {
		if a.alive || !a.nextDue.After(now) {
			results = append(results, probeResult{agent: a, cache: a.probeCache})
		}
	}
	c.mu.Unlock()

	c.fanOut(ctx, len(results), func(l *rpcLane, i int) { c.probe(l, &results[i]) })
	return results
}

// observeLocked folds one round's observation of one agent into its
// liveness state, on either transport. A non-nil report, taken at heard,
// discovers, rejoins or refreshes the agent; refit says it carries
// placement inputs the agent's last report did not. A nil report is a
// miss for the reason miss, and an alive agent dies at its DeadAfter-th
// consecutive miss. An agent that dies, rejoins, is discovered or is
// refit is queued for the placement engine, and the round re-solves.
func (c *Controller) observeLocked(a *agentState, report *StatsResponse, heard time.Time, miss string, refit bool) {
	if report == nil {
		a.lastErr = miss
		a.misses++
		if !a.alive || a.misses < c.cfg.DeadAfter {
			return
		}
		a.alive = false
		c.deaths++
		c.queueLocked(a)
		c.logf("agent %s (%s) dead after %d missed heartbeats: %s", a.name, a.url, a.misses, miss)
		return
	}
	if !a.alive || !a.everSeen {
		refit = true
		if a.everSeen {
			c.rejoins++
			c.logf("agent %s (%s) rejoined", report.Agent, a.url)
		} else {
			c.logf("agent %s (%s) discovered, lc=%s", report.Agent, a.url, report.LC)
		}
	}
	if refit {
		c.queueLocked(a)
	}
	if c.budget != nil && (!a.everSeen || a.name != report.Agent) {
		c.budget.rebind = true // a leaf may name this agent now, or no longer
	}
	a.alive = true
	a.everSeen = true
	a.misses = 0
	a.lastErr = ""
	a.lastHeard = heard
	a.name = report.Agent
	a.lc = report.LC
	if report != &a.last { // the stream fold copies the report in first
		a.last = *report
	}
}

// queueLocked queues an agent whose placement inputs changed, once, for
// the next re-solve: the engine reads only queued agents.
func (c *Controller) queueLocked(a *agentState) {
	if !a.queued {
		a.queued = true
		c.changed = append(c.changed, a)
	}
}

// clearQueueLocked empties the queue once the engine has read it.
func (c *Controller) clearQueueLocked() {
	for _, a := range c.changed {
		a.queued = false
	}
	clear(c.changed)
	c.changed = c.changed[:0]
}

// refitLocked reports whether a poll probe's report r changes what the
// placement engine reads of agent a: its name, platform, LC envelope or
// fitted models. The fast path hands every report the values it decoded
// from an unchanged section, so the LC model compares by pointer and the
// best-effort model map by whether the decoder kept its section's bytes.
// A body the fast path declined is decoded afresh and compared bit for
// bit (sameInputs); when its inputs are the same it keeps a's models, as
// the fast path would, and when not its fresh LC model makes the next
// fast probe a refit too.
func refitLocked(a *agentState, r *probeResult) bool {
	prev, next := &a.last, &r.stats
	if !r.fast {
		if !sameInputs(prev, next) {
			return true
		}
		next.LCModel, next.BEModels = prev.LCModel, prev.BEModels
		return false
	}
	return prev.Agent != next.Agent || prev.Machine != next.Machine ||
		prev.PeakLoad != next.PeakLoad || prev.ProvisionedPowerW != next.ProvisionedPowerW ||
		prev.LCModel != next.LCModel || !a.probeCache.sameSection(r.cache, secBEModels)
}

// sameInputs reports whether next carries prev's placement inputs bit
// for bit: the name, platform, peak load, provisioned power, and the LC
// and best-effort models, the fields refitLocked compares. It allocates
// nothing. A stream decoder applies it to every full frame (hbDecoder).
func sameInputs(prev, next *StatsResponse) bool {
	if prev.Agent != next.Agent || prev.Machine != next.Machine ||
		!sameBits(prev.PeakLoad, next.PeakLoad) || !sameBits(prev.ProvisionedPowerW, next.ProvisionedPowerW) ||
		!sameModel(prev.LCModel, next.LCModel) || len(prev.BEModels) != len(next.BEModels) {
		return false
	}
	for be, m := range prev.BEModels {
		if n, ok := next.BEModels[be]; !ok || !sameModel(m, n) {
			return false
		}
	}
	return true
}

// sameModel reports whether two fitted models are equal bit for bit.
func sameModel(a, b *utility.Model) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.App != b.App || a.N != b.N ||
		!sameBits(a.Alpha0, b.Alpha0) || !sameBits(a.PStatic, b.PStatic) ||
		!sameBits(a.PerfR2, b.PerfR2) || !sameBits(a.PowerR2, b.PowerR2) ||
		!slices.Equal(a.Resources, b.Resources) || len(a.Alpha) != len(b.Alpha) || len(a.P) != len(b.P) {
		return false
	}
	for j := range a.Alpha {
		if !sameBits(a.Alpha[j], b.Alpha[j]) {
			return false
		}
	}
	for j := range a.P {
		if !sameBits(a.P[j], b.P[j]) {
			return false
		}
	}
	return true
}

// sameBits reports whether two floats have the same bits: unlike ==, a
// NaN equals itself and 0 differs from -0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// applyProbesLocked is the poll transport's round head: it folds each
// probe result into the agent's liveness (observeLocked), installs the
// probe's decoder cache, and schedules a dead agent's next probe on a
// capped exponential backoff.
func (c *Controller) applyProbesLocked(results []probeResult, now time.Time) {
	for i := range results {
		r := &results[i]
		a := r.agent
		if r.err != nil {
			c.observeLocked(a, nil, now, r.err.Error(), false)
			if !a.alive {
				// Next probe in 1, 2, 4, … heartbeats, capped at MaxBackoff.
				a.backoff = min(max(2*a.backoff, c.cfg.Heartbeat), c.cfg.MaxBackoff)
				a.nextDue = now.Add(a.backoff)
			}
			continue
		}
		c.observeLocked(a, &r.stats, now, "", refitLocked(a, r))
		a.backoff = 0
		a.nextDue = now
		a.probeCache = r.cache
	}
}

// probe fetches an agent's stats into r on lane l, in one attempt
// bounded by the request timeout. r.cache is the agent's probe cache on
// entry and, after a success, the one to install.
func (c *Controller) probe(l *rpcLane, r *probeResult) {
	r.err = l.call(r.agent.statsURL, nil, func(body io.Reader) (err error) {
		r.cache, r.fast, err = c.readStats(body, r.cache, &r.stats)
		return err
	})
}

// statsBufs recycles the buffers probe bodies are read into.
var statsBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readStats reads one /v1/stats body into a pooled buffer and decodes it
// (decodeStats), reporting whether the fast path took it. The body is
// bounded like a stream snapshot, at maxHeartbeatBlob, so one misbehaving
// agent cannot make the controller buffer an arbitrarily large value.
// Nothing decoded refers to the buffer: strings and raw section bytes are
// copied out of it.
func (c *Controller) readStats(body io.Reader, cache *statsCache, out *StatsResponse) (*statsCache, bool, error) {
	buf := statsBufs.Get().(*bytes.Buffer)
	defer statsBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(body, maxHeartbeatBlob+1)); err != nil {
		return cache, false, err
	}
	if buf.Len() > maxHeartbeatBlob {
		return cache, false, fmt.Errorf("stats body exceeds the %d-byte limit", maxHeartbeatBlob)
	}
	next, fast, err := decodeStats(buf.Bytes(), cache, out)
	if c.obs != nil {
		if fast {
			c.obs.pollFast.Inc()
		} else {
			c.obs.pollFallback.Inc()
		}
	}
	return next, fast, err
}

// getHeader is every GET's header and jsonHeader every POST's. Requests
// share them, so nothing may write them: a RoundTripper must not modify
// a request.
var (
	getHeader  = http.Header{}
	jsonHeader = http.Header{"Content-Type": {"application/json"}}
)

// maxReplyDrain bounds what call reads of a reply that read left
// unfinished: a reply longer than that is not worth keeping its
// connection for.
const maxReplyDrain = 4 << 10

// rpcLane is one RPC fan-out worker's request state. A worker takes a
// lane when it finds its first target and returns it to the controller
// when it finds no more, so lanes serve fan-out after fan-out. A lane owns
// what each RPC would otherwise build afresh: the request context and the
// deadline that bounds it, one *http.Request, the POST body and its
// buffer, and the reply drain. So in steady state an RPC allocates nothing
// on the controller. Only the worker holding the lane uses it.
type rpcLane struct {
	c      *Controller
	parent context.Context // the fan-out's, which ctx derives from
	// ctx bounds the lane's RPCs, each for Timeout from its own start
	// (laneDeadline). A deadline that expired has cancelled ctx, so the
	// next RPC derives a fresh context and deadline; so does a fan-out on
	// a context other than parent. Both are nil until the first fan-out.
	// Between fan-outs ctx stays registered on parent, which a fan-out on
	// another context, or parent's end, releases.
	ctx context.Context
	dl  *laneDeadline
	// req is bound to ctx. The RoundTripper contract releases a request
	// once its reply body is closed, so the next RPC reuses it; a transport
	// error leaves no reply to close, and the request is dropped.
	req *http.Request
	// body is the POST body in flight or last sent, and getBody is
	// l.rewind, bound once.
	body    *laneBody
	getBody func() (io.ReadCloser, error)
	// drain bounds what drainClose reads of a reply, into scratch.
	drain   io.LimitedReader
	scratch [64]byte
}

// laneBody is a lane's POST body. A transport may read and close it on
// another goroutine, even after RoundTrip has returned, so the lane writes
// its buffer again only once Close has been called and no second reader
// over it was lent out (rewind).
type laneBody struct {
	r    bytes.Reader
	buf  []byte
	held atomic.Bool // handed to the transport and not closed since
	lent atomic.Bool // a second reader over buf was handed out
	arr  [64]byte    // buf's first backing array: a push body fits
}

func (b *laneBody) Read(p []byte) (int, error) { return b.r.Read(p) }

// Close releases the body back to its lane.
func (b *laneBody) Close() error {
	b.held.Store(false)
	return nil
}

// bodyBuf returns an empty buffer for the lane's next POST body to be
// appended to: the last body's, once the transport has released it, else
// a fresh one.
func (l *rpcLane) bodyBuf() []byte {
	if b := l.body; b != nil && !b.held.Load() && !b.lent.Load() {
		return b.buf[:0]
	}
	b := new(laneBody)
	b.buf = b.arr[:0]
	l.body = b
	return b.buf
}

// rewind is the lane's GetBody, which a transport calls within RoundTrip
// to send the body again. It lends out a second reader over the buffer,
// whose end the lane cannot see, so the lane stops reusing that buffer.
func (l *rpcLane) rewind() (io.ReadCloser, error) {
	b := l.body
	b.lent.Store(true)
	return io.NopCloser(bytes.NewReader(b.buf)), nil
}

// laneDeadline bounds the RPCs on one lane context. Its timer is armed
// once per fan-out, and each RPC stores its start in start, which the
// timer reads: no RPC resets or stops the timer. When the timer fires it
// cancels the context, with cause context.DeadlineExceeded, if the RPC
// in flight has run for timeout, and otherwise re-arms for that RPC's
// own deadline. Finding no RPC in flight, it parks the deadline instead
// of re-arming, and the next RPC arms it again. So each RPC is cancelled
// about timeout after its own start, and the timer fires about once a
// timeout while its lane is busy. The other fields never change, so the
// timer's callback shares only start with the lane.
type laneDeadline struct {
	timeout time.Duration
	cancel  context.CancelCauseFunc
	timer   *time.Timer
	// start is the RPC in flight's start on laneClock, or laneIdle (no RPC
	// in flight, the timer armed), laneParked (no RPC in flight, the timer
	// stopped: the lane is between fan-outs or sat idle for a timeout) or
	// laneExpired (the timer cancelled the context and will not fire
	// again).
	start atomic.Int64
}

// The laneDeadline.start values that are not a start time.
const (
	laneIdle = -1 - iota
	laneParked
	laneExpired
)

// laneEpoch is laneClock's origin.
var laneEpoch = time.Now()

// laneClock reads the monotonic clock, in nanoseconds since laneEpoch.
func laneClock() int64 { return int64(time.Since(laneEpoch)) }

// expire is the deadline timer's callback; see laneDeadline.
func (d *laneDeadline) expire() {
	for {
		s := d.start.Load()
		switch s {
		case laneParked, laneExpired:
			return
		case laneIdle:
			if d.start.CompareAndSwap(laneIdle, laneParked) {
				return
			}
			continue // an RPC has started since the load
		}
		if left := d.timeout - time.Duration(laneClock()-s); left > 0 {
			d.timer.Reset(left)
			return
		}
		// The CAS fails if the RPC has ended since the load.
		if d.start.CompareAndSwap(s, laneExpired) {
			d.cancel(context.DeadlineExceeded)
			return
		}
	}
}

// derive gives the lane a fresh context from parent, with an armed
// deadline, and cancels the context it replaces, which releases it from
// its parent. The request was bound to the old context, so it is dropped.
func (l *rpcLane) derive(parent context.Context) {
	if l.dl != nil {
		l.dl.cancel(nil)
	}
	ctx, cancel := context.WithCancelCause(parent)
	d := &laneDeadline{timeout: l.c.cfg.Timeout, cancel: cancel}
	d.start.Store(laneIdle)
	// Created unarmed and armed once d.timer is set, which the callback
	// reads.
	d.timer = time.AfterFunc(math.MaxInt64, d.expire)
	d.timer.Reset(d.timeout)
	l.parent, l.ctx, l.dl, l.req = parent, ctx, d, nil
}

// open readies the lane for a fan-out on ctx. It keeps the lane's context
// and arms its deadline's timer, unless the lane has no context yet, its
// last RPC expired it, or it derives from another: then it derives one.
func (l *rpcLane) open(ctx context.Context) {
	if l.dl == nil || l.parent != ctx || l.dl.start.Load() == laneExpired {
		l.derive(ctx)
		return
	}
	l.dl.start.Store(laneIdle)
	l.dl.timer.Reset(l.dl.timeout)
}

// park takes the lane out of its fan-out: it stops the deadline's timer,
// unless the timer has stopped itself, having parked or expired the
// deadline. A timer that fires as it is stopped finds it parked.
func (l *rpcLane) park() {
	if l.dl.start.CompareAndSwap(laneIdle, laneParked) {
		l.dl.timer.Stop()
	}
}

// call is the controller's one agent RPC, made on lane l: a GET of u, or
// with a body (appended to bodyBuf's buffer) a JSON POST of it, bounded by
// the request timeout from its own start. The request goes straight to
// the configured RoundTripper, so a redirect is not followed, and a
// transport error reads as http.Client would report it (Get "<url>":
// <cause>); a timeout's cause is context.DeadlineExceeded. A 200 reply's
// body goes to read when read is non-nil; any other status is an error
// that carries the start of the agent's reply. Up to maxReplyDrain bytes
// of whatever read leaves of the reply are drained before it is closed: a
// reply closed unread makes the transport drop its connection instead of
// pooling it.
func (l *rpcLane) call(u *url.URL, body []byte, read func(body io.Reader) error) error {
	if l.dl.start.Load() == laneExpired {
		l.derive(l.parent)
	}
	start := laneClock()
	if l.dl.start.Swap(start) == laneParked {
		l.dl.timer.Reset(l.dl.timeout) // the lane sat idle for a timeout
	}
	// Fails, leaving laneExpired, if the deadline expired this RPC.
	defer l.dl.start.CompareAndSwap(start, laneIdle)
	req := l.req
	if req == nil {
		req = (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}).WithContext(l.ctx)
		l.req = req
	}
	req.URL, req.Host = u, u.Host
	op := "Get"
	if body == nil {
		req.Method, req.Header = http.MethodGet, getHeader
		req.Body, req.GetBody, req.ContentLength = nil, nil, 0
	} else {
		b := l.body
		b.buf = body
		b.r.Reset(body)
		b.held.Store(true)
		if l.getBody == nil {
			l.getBody = l.rewind
		}
		req.Method, req.Header, op = http.MethodPost, jsonHeader, "Post"
		req.Body, req.GetBody, req.ContentLength = b, l.getBody, int64(len(body))
	}
	resp, err := l.c.transport.RoundTrip(req)
	if err != nil {
		l.req = nil
		return &url.Error{Op: op, URL: u.String(), Err: err}
	}
	defer l.drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", req.Method, u, resp.Status, bytes.TrimSpace(msg))
	}
	if read != nil {
		return read(resp.Body)
	}
	return nil
}

// drainClose reads up to maxReplyDrain bytes of what is left of a reply,
// then closes it. It reads into the lane's own scratch, where io.Discard
// would take a buffer from a shared pool.
func (l *rpcLane) drainClose(body io.ReadCloser) {
	l.drain.R, l.drain.N = body, maxReplyDrain
	for {
		if _, err := l.drain.Read(l.scratch[:]); err != nil {
			break
		}
	}
	l.drain.R = nil
	body.Close()
}

// resolveLocked re-solves the placement against the live agents'
// reported stats on the warm placement engine. On solver failure or when
// a majority of agents are unreachable it degrades: the placement it
// holds stays installed instead of churning assignments.
func (c *Controller) resolveLocked(now time.Time) {
	nLive := c.placeableLocked()
	if nLive == 0 {
		c.degradeLocked(now, "no live agents")
		return
	}
	// Majority-unreachable guard: with most of the fleet dark the reports
	// left are too thin to trust a re-solve; hold the last placement.
	if c.placement != nil && 2*nLive < len(c.agents) {
		c.degradeLocked(now, fmt.Sprintf("only %d/%d agents reachable", nLive, len(c.agents)))
		return
	}
	if len(c.cfg.BE) == 0 {
		c.clearQueueLocked() // no engine to read it; a later one is built fresh
		c.setPlacementLocked(now, map[string]string{})
		c.unplaced = nil
		c.degraded = false
		return
	}

	moved, err := c.solveEngineLocked(now, nLive)
	if err != nil {
		c.degradeLocked(now, fmt.Sprintf("solve failed: %v", err))
		return
	}
	c.degraded = false
	c.solves++
	c.logf("placement solved over %d agents: %d moved, %d unplaced", nLive, moved, len(c.unplaced))
}

// placeableLocked counts the placeable agents. Every agent whose
// placeability can have flipped is queued, so it recounts only those.
func (c *Controller) placeableLocked() int {
	for _, a := range c.changed {
		if p := a.placeable(); p != a.counted {
			a.counted = p
			if p {
				c.nPlaceable++
			} else {
				c.nPlaceable--
			}
		}
	}
	return c.nPlaceable
}

// placementMove is one best-effort app changing agent: from "" places it.
type placementMove struct {
	be, from, to string
}

// setPlacementLocked installs a placement (BE → agent URL), refreshes
// every agent's desired BE from it and traces the apps that moved. It and
// patchPlacementLocked are the only writes to c.placement, which keeps
// desiredBE in step with it. It returns how many apps moved.
func (c *Controller) setPlacementLocked(now time.Time, p map[string]string) int {
	prev := c.placement
	c.placement = p
	for _, a := range c.agents {
		a.desiredBE = ""
	}
	var moves []placementMove
	for be, url := range p {
		if a := c.byURL[url]; a != nil {
			a.desiredBE = be
		}
		if from := prev[be]; from != url {
			moves = append(moves, placementMove{be: be, from: from, to: url})
		}
	}
	c.traceMovesLocked(now, moves)
	return len(moves)
}

// patchPlacementLocked installs the warm engine's re-solve in place.
// placed holds the assignments of the pods the re-solve touched, and an
// app moves only within or between those, so it updates only the apps it
// lists that changed agent, and their agents' desired BE. It returns how
// many apps moved.
func (c *Controller) patchPlacementLocked(now time.Time, placed []cluster.Assignment) int {
	var moves []placementMove
	for _, p := range placed {
		if from := c.placement[p.Job]; from != p.Host {
			moves = append(moves, placementMove{be: p.Job, from: from, to: p.Host})
		}
	}
	// Vacate every app's old agent before seating any: an app may take the
	// agent another one just left.
	for _, m := range moves {
		if a := c.byURL[m.from]; a != nil && a.desiredBE == m.be {
			a.desiredBE = ""
		}
	}
	for _, m := range moves {
		c.placement[m.be] = m.to
		if a := c.byURL[m.to]; a != nil {
			a.desiredBE = m.be
		}
	}
	c.traceMovesLocked(now, moves)
	return len(moves)
}

// traceMovesLocked records one Placement event per newly placed
// best-effort app and one Migration event (plus a log line) per app that
// moved between agents, in sorted BE order for a deterministic timeline.
func (c *Controller) traceMovesLocked(now time.Time, moves []placementMove) {
	if c.tracer == nil {
		return
	}
	slices.SortFunc(moves, func(x, y placementMove) int { return strings.Compare(x.be, y.be) })
	for _, m := range moves {
		to := c.byURL[m.to].name
		if m.from == "" {
			c.tracer.Placement(now, trace.Placement{BE: m.be, Node: to, Reason: "solve"})
			continue
		}
		from := c.byURL[m.from].name
		c.logf("migrated %s: %s -> %s", m.be, from, to)
		c.tracer.Migration(now, trace.Placement{BE: m.be, Node: to, From: from, Reason: "re-solve"})
	}
}

// degradeLocked keeps the installed placement and flags degraded mode.
// The Degradation trace event fires on the transition only, matching the
// log line, so repeated degraded rounds do not flood the ring.
func (c *Controller) degradeLocked(now time.Time, reason string) {
	if !c.degraded {
		c.logf("degraded: %s; holding last-known-good placement", reason)
		c.tracer.Degradation(now, reason)
	}
	c.degraded = true
}

// pushKind discriminates the per-round agent RPCs.
type pushKind int

const (
	pushAssign pushKind = iota
	pushCap
)

// pendingPush is one agent RPC computed under the lock and executed
// outside it. url and name are copied so the unlocked push phase reads
// none of the agent's mutable state: it reads only the agent's routes,
// which never change, and the rest of agent only under the lock, when
// the ack is recorded.
type pendingPush struct {
	kind      pushKind
	agent     *agentState
	url, name string
	be        string  // pushAssign
	capW      float64 // pushCap
	err       error   // the RPC's outcome, set by pushAll: nil if acknowledged
}

// assignPushesLocked appends to pushes the assignment pushes that drive
// each live agent toward the desired placement. Failures are retried on
// the next round: the desired state is re-derived every cycle, so a lost
// push self-heals.
func (c *Controller) assignPushesLocked(pushes []pendingPush) []pendingPush {
	if c.placement == nil {
		return pushes
	}
	for _, a := range c.agents {
		if a.alive && a.last.AssignedBE != a.desiredBE {
			pushes = append(pushes, pendingPush{kind: pushAssign, agent: a, url: a.url, name: a.name, be: a.desiredBE})
		}
	}
	return pushes
}

// maxRPCWorkers is how many workers every RPC fan-out (probes, pushes,
// trace pages) starts up front, whatever GOMAXPROCS is: an RPC waits on
// its agent, not on a core. A fan-out grows past them only while RPCs
// block, up to one worker per target (fanOut), so no RPC queues behind a
// stalled one and a fan-out costs at most one timeout however many
// agents stall.
const maxRPCWorkers = 32

// fanOut runs rpc for every target i in [0, n) and returns when all are
// done. It starts min(n, maxRPCWorkers) workers, the calling goroutine
// among them, and splits the targets into one contiguous run per worker.
// A worker takes the bottom of its own run, with a CAS on a word alone on
// its cache line; once its run is empty it steals the top half of the
// fullest run into its own. So a fan-out whose RPCs return at once takes
// its targets with no write another core reads, however many workers
// share it.
//
// The fan-out grows past its first workers only while RPCs block: a
// worker that takes a target while targets remain, fewer than n workers
// exist and every worker has taken one starts a spare, which once it has
// taken a target may start the next. A spare has no run and steals one
// target at a time from the fullest. So at most one spare waits to be
// scheduled at a time, a fan-out whose RPCs return at once runs on about
// maxRPCWorkers goroutines however wide it is, a worker blocked in an RPC
// holds only that RPC, and each blocked RPC still gets a worker of its
// own: a fan-out costs at most one timeout however many of its RPCs
// stall. (A worker the runtime parks, as in a GC assist, counts as
// blocked too.)
//
// A worker that finds a target makes its RPCs on a lane the controller
// keeps across fan-outs (rpcLane), whose context derives from ctx, and
// returns it when it finds no more; a worker that finds none, as when the
// first workers drain a wide fan-out, takes no lane. rpc must write its
// result into index-disjoint storage.
func (c *Controller) fanOut(ctx context.Context, n int, rpc func(l *rpcLane, i int)) {
	if n < 1 {
		return
	}
	upfront := min(n, maxRPCWorkers)
	f := c.takeFan()
	f.ctx, f.rpc, f.n = ctx, rpc, int64(n)
	f.runs = f.runs[:upfront]
	for w := range f.runs {
		f.runs[w].span.Store(runSpan(w*n/upfront, (w+1)*n/upfront))
	}
	f.workers.Store(int64(upfront))
	f.idle.Store(int64(upfront))
	for w := 1; w < upfront; w++ {
		f.start(w)
	}
	f.work(0)
	f.wg.Wait()
	f.ctx, f.rpc = nil, nil
	c.laneMu.Lock()
	c.fans = append(c.fans, f)
	c.laneMu.Unlock()
}

// fanState is one fan-out's shared state. The controller keeps it for the
// next fan-out.
type fanState struct {
	c    *Controller
	ctx  context.Context
	rpc  func(l *rpcLane, i int)
	n    int64       // targets, and the most workers
	runs []targetRun // one per upfront worker; capacity maxRPCWorkers
	// workers counts the workers started, and idle those yet to take a
	// target: each changes only as a worker starts or takes its first.
	workers, idle atomic.Int64
	wg            sync.WaitGroup
}

// targetRun is an upfront worker's run of targets [lo, hi), packed into
// one word (runSpan). The padding keeps each run's word on a cache line of
// its own, so a worker taking from its own run writes no line another
// worker reads.
type targetRun struct {
	span atomic.Uint64
	_    [56]byte
}

// runSpan packs a run's bounds into its word, lo in the high half.
func runSpan(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

// spanBounds unpacks a run's word.
func spanBounds(s uint64) (lo, hi int) { return int(s >> 32), int(uint32(s)) }

// takeFan returns a kept fan-out state, or a new one.
func (c *Controller) takeFan() *fanState {
	c.laneMu.Lock()
	f := pop(&c.fans)
	c.laneMu.Unlock()
	if f == nil {
		f = &fanState{c: c, runs: make([]targetRun, 0, maxRPCWorkers)}
	}
	return f
}

// pop removes and returns the last of kept, or nil if it is empty.
func pop[T any](kept *[]*T) *T {
	k := len(*kept) - 1
	if k < 0 {
		return nil
	}
	v := (*kept)[k]
	*kept = (*kept)[:k]
	return v
}

// start starts the worker of runs[run], or with run -1 a spare.
func (f *fanState) start(run int) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.work(run)
	}()
}

// work is the worker of runs[run], or with run -1 a spare: it serves
// targets on one lane until none is left.
func (f *fanState) work(run int) {
	i := f.take(run)
	f.idle.Add(-1)
	if i < 0 {
		return
	}
	l := f.c.takeLane(f.ctx)
	defer f.c.keepLane(l)
	for ; i >= 0; i = f.take(run) {
		// Load before the CAS, so that while a worker is idle or the
		// fan-out has a worker per target, taking a target writes nothing
		// shared.
		if f.idle.Load() == 0 && f.workers.Load() < f.n && f.left() && f.idle.CompareAndSwap(0, 1) {
			// Until the spare takes a target, idle reads 1 and no other
			// worker gets here, so workers cannot move under the check.
			if f.workers.Load() < f.n {
				f.workers.Add(1)
				f.start(-1)
			} else {
				f.idle.Store(0)
			}
		}
		f.rpc(l, i)
	}
}

// take returns the next target for the worker of runs[run] (a spare's run
// is -1): the bottom of its own run, else a stolen one. It returns -1 once
// every run is empty.
func (f *fanState) take(run int) int {
	if run >= 0 {
		r := &f.runs[run].span
		for {
			s := r.Load()
			lo, hi := spanBounds(s)
			if lo >= hi {
				break
			}
			if r.CompareAndSwap(s, runSpan(lo+1, hi)) {
				return lo
			}
		}
	}
	return f.steal(run)
}

// steal takes from the top of the fullest run: a spare one target, the
// worker of runs[run] the top half, of which it returns the first and
// makes the rest its own run. Only its worker fills a run, and only once
// the run is empty, when no other worker writes its word. It returns -1
// once every run is empty.
func (f *fanState) steal(run int) int {
	for {
		var victim *atomic.Uint64
		var s uint64
		most := 0
		for v := range f.runs {
			w := f.runs[v].span.Load()
			if lo, hi := spanBounds(w); hi-lo > most {
				victim, s, most = &f.runs[v].span, w, hi-lo
			}
		}
		if victim == nil {
			return -1
		}
		k := 1
		if run >= 0 {
			k = (most + 1) / 2
		}
		lo, hi := spanBounds(s)
		if !victim.CompareAndSwap(s, runSpan(lo, hi-k)) {
			continue
		}
		if k > 1 {
			f.runs[run].span.Store(runSpan(hi-k+1, hi))
		}
		return hi - k
	}
}

// left reports whether any run still holds a target.
func (f *fanState) left() bool {
	for v := range f.runs {
		if lo, hi := spanBounds(f.runs[v].span.Load()); lo < hi {
			return true
		}
	}
	return false
}

// takeLane returns a kept lane, or a new one, opened for a fan-out on ctx.
func (c *Controller) takeLane(ctx context.Context) *rpcLane {
	c.laneMu.Lock()
	l := pop(&c.lanes)
	c.laneMu.Unlock()
	if l == nil {
		l = &rpcLane{c: c}
	}
	l.open(ctx)
	return l
}

// keepLane parks a lane whose worker has finished and keeps it for the
// next fan-out.
func (c *Controller) keepLane(l *rpcLane) {
	l.park()
	c.laneMu.Lock()
	c.lanes = append(c.lanes, l)
	c.laneMu.Unlock()
}

// pushAll executes the round's pushes through the RPC fan-out and records
// each one's outcome in its err. Each RPC is bounded by the request
// timeout and each blocked one holds a worker of its own, so pushes
// stalled on any number of agents delay the round by one timeout at most
// — not one timeout per slow agent, as a serial push loop would. Log
// lines are emitted after the join, in push order, so interleaving stays
// deterministic for log-capturing tests.
func (c *Controller) pushAll(ctx context.Context, pushes []pendingPush) {
	c.fanOut(ctx, len(pushes), func(l *rpcLane, i int) {
		pushes[i].err = l.push(&pushes[i])
	})
	for _, p := range pushes {
		switch p.kind {
		case pushAssign:
			if p.err != nil {
				c.logf("assign %q to %s (%s) failed: %v", p.be, p.name, p.url, p.err)
			} else {
				c.logf("assigned %q to %s (%s)", p.be, p.name, p.url)
			}
		case pushCap:
			if p.err != nil {
				c.logf("cap %.1fW to %s (%s) failed: %v", p.capW, p.name, p.url, p.err)
			}
		}
	}
}

// push makes one push RPC on lane l. A cap body is appended to the lane's
// buffer (appendCapRequest); an assign body, marshalled once per name by
// NewController, is copied into it.
func (l *rpcLane) push(p *pendingPush) error {
	body := l.bodyBuf()
	if p.kind == pushAssign {
		return l.call(p.agent.assignURL, append(body, l.c.assignBodies[p.be]...), nil)
	}
	body, err := appendCapRequest(body, p.capW)
	if err != nil {
		return err
	}
	return l.call(p.agent.capURL, body, nil)
}

// appendCapRequest appends the POST /v1/cap body for a cap of w watts: the
// bytes json.Marshal(CapRequest{CapW: w}) returns, its number written by
// the float rule the agent's ack uses (appendJSONFloat). A non-finite cap
// fails with json.Marshal's error, and nothing is sent.
func appendCapRequest(b []byte, w float64) ([]byte, error) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(w), Str: strconv.FormatFloat(w, 'g', -1, 64)}
	}
	return append(appendJSONFloat(append(b, `{"cap_w":`...), w), '}'), nil
}

// recordPushesLocked folds acknowledged pushes back into the agents'
// last-known state so the next round does not re-push before a fresh
// report refreshes the truth. Only acknowledged pushes are recorded —
// recording a failed push would mask the divergence until the agent
// happened to report again, leaving the fleet out of step with the
// controller's book. An agent declared dead between derivation and
// record keeps its last report untouched.
func (c *Controller) recordPushesLocked(pushes []pendingPush) {
	for _, p := range pushes {
		a := p.agent
		if p.err != nil || !a.alive {
			continue
		}
		switch p.kind {
		case pushAssign:
			a.last.AssignedBE = p.be
		case pushCap:
			a.last.CapW = p.capW
		}
	}
}

// Status returns a snapshot of the controller state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Placement: make(map[string]string, len(c.placement)),
		Unplaced:  append([]string(nil), c.unplaced...),
		Degraded:  c.degraded,
		Rounds:    c.rounds,
		Solves:    c.solves,
		Deaths:    c.deaths,
		Rejoins:   c.rejoins,
		Budget:    c.budgetStatusLocked(),
	}
	urlToName := make(map[string]string, len(c.agents))
	for _, a := range c.agents {
		urlToName[a.url] = a.name
		st.Agents = append(st.Agents, AgentStatus{
			URL:        a.url,
			Name:       a.name,
			LC:         a.lc,
			Alive:      a.alive,
			Misses:     a.misses,
			LastError:  a.lastErr,
			AssignedBE: a.last.AssignedBE,
			Slack:      a.last.Slack,
			PowerW:     a.last.PowerW,
		})
	}
	for be, url := range c.placement {
		st.Placement[be] = urlToName[url]
	}
	return st
}

// StatusHandler serves the controller's own state as JSON (GET /v1/status
// in cmd/pocolo-controller).
func (c *Controller) StatusHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// MetricsHandler serves the controller's own Prometheus exposition.
func (c *Controller) MetricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteProm(w, controllerMetrics(c.Status(), c.StreamStats(), c.Obs().Snapshot())); err != nil {
		return
	}
	_, _ = io.WriteString(w, "# EOF\n")
}

// maxCollectedEvents bounds the controller's accumulated cluster
// timeline; beyond it the oldest collected agent events are discarded
// (each agent's own ring still retains its recent window).
const maxCollectedEvents = 1 << 16

// Tracer returns the controller's own decision tracer (nil when tracing
// is disabled).
func (c *Controller) Tracer() *trace.Tracer { return c.tracer }

// CollectTrace fetches each live agent's new decision-trace events over
// /v1/trace — cursor-paged per agent, so repeated calls transfer only
// fresh events — folds them into the controller's accumulated cluster
// timeline, merges in the controller's own decision events, and returns
// the combined timeline in canonical (time, host, seq) order. Agents are
// paged on one fan-out, where each stalled agent holds a worker of its
// own, so stalled agents, however many, add one timeout to the call, not
// one each. Unreachable agents are skipped (their cursor does not
// advance past the last page fetched, so nothing still in their ring is
// lost) and retried on the next call.
func (c *Controller) CollectTrace(ctx context.Context) []trace.Event {
	type target struct {
		url    string
		since  uint64 // the agent's cursor; after the fetch, the next one
		events []trace.Event
		err    error
	}
	c.mu.Lock()
	targets := make([]target, 0, len(c.agents))
	for _, a := range c.agents {
		if a.alive {
			targets = append(targets, target{url: a.url, since: c.cursors[a.url]})
		}
	}
	c.mu.Unlock()

	c.fanOut(ctx, len(targets), func(l *rpcLane, i int) {
		t := &targets[i]
		for {
			var page TraceResponse
			u, err := url.Parse(fmt.Sprintf("%s%s?since=%d&limit=4096", t.url, RouteTrace, t.since))
			if err == nil {
				err = l.call(u, nil, func(body io.Reader) error { return json.NewDecoder(body).Decode(&page) })
			}
			if err != nil {
				t.err = err
				return
			}
			t.events = append(t.events, page.Events...)
			if len(page.Events) == 0 || page.Next <= t.since {
				return
			}
			t.since = page.Next
		}
	})

	for _, t := range targets {
		if t.err != nil {
			c.logf("trace fetch from %s failed: %v", t.url, t.err)
		}
	}
	c.mu.Lock()
	for _, t := range targets {
		if t.since > c.cursors[t.url] {
			c.cursors[t.url] = t.since
		}
		c.collected = append(c.collected, t.events...)
	}
	if len(c.collected) > maxCollectedEvents {
		c.collected = append([]trace.Event(nil), c.collected[len(c.collected)-maxCollectedEvents:]...)
	}
	out := make([]trace.Event, len(c.collected), len(c.collected)+c.tracer.Len())
	copy(out, c.collected)
	c.mu.Unlock()
	out = append(out, c.tracer.Events()...)
	trace.SortEvents(out)
	return out
}

// TraceHandler serves the merged cluster decision timeline (GET /v1/trace
// in cmd/pocolo-controller), refreshing from the live agents first.
func (c *Controller) TraceHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	events := c.CollectTrace(r.Context())
	if events == nil {
		events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{Agent: "controller", Events: events, Dropped: c.tracer.Dropped()})
}

// baseBE strips a replica suffix: "graph#3" → "graph". Replicated
// best-effort lists (cluster.RunReplicated's naming) let a fleet place
// one instance per agent while every instance shares the base app's
// fitted model and binary.
func baseBE(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}
