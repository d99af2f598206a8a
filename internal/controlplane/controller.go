package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/obs"
	"pocolo/internal/parallel"
	"pocolo/internal/trace"
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
	// Retries is the per-probe retry budget within one round: a probe
	// makes Retries+1 attempts. NewController applies no default, so 0
	// means one attempt (pocolo-controller's -retries defaults to 1).
	Retries int
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
	// ResolveEvery forces a periodic placement re-solve even without
	// membership changes, picking up drifting model reports (default 0:
	// re-solve only on membership changes).
	ResolveEvery time.Duration
	// Seed drives the heartbeat jitter.
	Seed int64
	// Logf, when set, receives controller event logs.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests); Timeout still applies
	// per request via context.
	Client *http.Client
	// Now overrides the clock used for liveness bookkeeping — dead-agent
	// probe backoff and periodic re-solve scheduling (default time.Now).
	// Deterministic drivers (the fault campaign) substitute a clock that
	// advances one heartbeat per round so backoff windows are measured in
	// rounds, not wall time.
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
	// Immutable: a probe that sees a change returns a new one, which
	// applyProbesLocked installs.
	probeCache *statsCache
	// desiredBE is the BE app the current placement puts on this agent
	// ("" = park). It is refreshed wherever the placement is replaced, so
	// deriving the round's assign pushes is one comparison per agent.
	desiredBE string
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
	cfg    ControllerConfig
	client *http.Client
	rng    *rand.Rand
	logf   func(string, ...any)
	now    func() time.Time
	tracer *trace.Tracer
	stream *streamState // nil under the polling transport
	obs    *ctlObs      // nil without a metrics registry
	// roundDeadline is the resolved RoundDeadline (never zero when obs or
	// the recorder is wired).
	roundDeadline time.Duration

	mu        sync.Mutex
	agents    []*agentState // in AgentURLs order: agents[i] is stream slot i
	byURL     map[string]*agentState
	cursors   map[string]uint64 // agent URL → /v1/trace since-cursor
	collected []trace.Event     // agent events fetched by CollectTrace
	placement map[string]string // BE → agent URL
	lastGood  map[string]string
	unplaced  []string
	degraded  bool
	lastSolve time.Time
	engine    *placementEngine // warm sharded solver; nil until first needed
	rounds    int
	solves    int
	deaths    int
	rejoins   int
	budget    *budgetState // nil when unbudgeted
	// pushes is the push list the next round fills, kept across rounds.
	// A round takes it under mu and returns it once the pushes are
	// recorded; a concurrent round finds none and allocates its own.
	pushes []pendingPush
}

// NewController validates the configuration and builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if len(cfg.AgentURLs) == 0 {
		return nil, errors.New("controlplane: controller needs at least one agent URL")
	}
	seen := make(map[string]bool, len(cfg.AgentURLs))
	for _, u := range cfg.AgentURLs {
		if u == "" {
			return nil, errors.New("controlplane: empty agent URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("controlplane: duplicate agent URL %s", u)
		}
		seen[u] = true
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Heartbeat < 0 {
		return nil, errors.New("controlplane: heartbeat must be positive")
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
	if cfg.Retries < 0 {
		return nil, errors.New("controlplane: retry budget must be non-negative")
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
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		cfg:     cfg,
		client:  client,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		logf:    logf,
		now:     now,
		tracer:  cfg.Trace,
		cursors: make(map[string]uint64, len(cfg.AgentURLs)),
	}
	c.byURL = make(map[string]*agentState, len(cfg.AgentURLs))
	for _, u := range cfg.AgentURLs {
		a := &agentState{url: u, name: u}
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
// streamed snapshots), update liveness, re-solve placement if membership
// changed, compute the assignment and budget pushes under the lock, then
// execute every push through the bounded worker pool with the lock
// released. Only acknowledged pushes are recorded as agent state — a
// failed push is re-derived and retried next round. Each push is bounded
// by the request timeout and at most maxPushWorkers run at once, so S
// stalled pushes hold the round for at most ⌈S/maxPushWorkers⌉
// timeouts, not one per slow agent (an agent gets at most two pushes a
// round: its assignment and its cap). Exposed for deterministic tests;
// Run calls it on the jittered interval.
func (c *Controller) Round(ctx context.Context) {
	now := c.now()
	// Round timing is measured, not derived from the controller clock:
	// deterministic campaigns advance that clock one heartbeat per round
	// regardless of how long the round took.
	var start time.Time
	if c.obs != nil || c.cfg.Recorder != nil {
		start = time.Now()
	}

	var membershipChanged bool
	if c.stream != nil {
		c.mu.Lock()
		membershipChanged = c.streamObserveLocked(now)
	} else {
		results := c.pollProbe(ctx, now)
		c.mu.Lock()
		membershipChanged = c.applyProbesLocked(results, now)
	}
	c.rounds++
	round := c.rounds

	needResolve := membershipChanged ||
		(c.placement == nil && c.liveCountLocked() > 0) ||
		(c.cfg.ResolveEvery > 0 && now.Sub(c.lastSolve) >= c.cfg.ResolveEvery)
	if needResolve {
		c.resolveLocked(now)
	}
	pushes := c.budgetPushesLocked(now, c.assignPushesLocked(c.pushes[:0]))
	c.pushes = nil
	c.mu.Unlock()

	var acked []bool
	if len(pushes) > 0 {
		acked = c.pushAll(ctx, pushes)
	}
	c.mu.Lock()
	c.recordPushesLocked(pushes, acked)
	c.pushes = pushes[:0]
	c.mu.Unlock()
	if !start.IsZero() {
		c.observeRound(now, round, time.Since(start))
	}
}

// probeResult is one poll probe's outcome. cache is the agent's probe
// cache as pollProbe found it, and after the probe the one to install.
type probeResult struct {
	agent *agentState
	cache *statsCache
	stats StatsResponse
	err   error
}

// pollProbe fans stats probes out to every due agent. Runs lock-free:
// the due set and each agent's probe cache are snapshotted under the
// lock, the probes are not.
func (c *Controller) pollProbe(ctx context.Context, now time.Time) []probeResult {
	c.mu.Lock()
	results := make([]probeResult, 0, len(c.agents))
	for _, a := range c.agents {
		if a.alive || !a.nextDue.After(now) {
			results = append(results, probeResult{agent: a, cache: a.probeCache})
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *probeResult) {
			defer wg.Done()
			r.stats, r.cache, r.err = c.probe(ctx, r.agent.url, r.cache)
		}(&results[i])
	}
	wg.Wait()
	return results
}

// observeLocked folds one round's observation of one agent into its
// liveness state, on either transport. A non-nil report, taken at heard,
// discovers, rejoins or refreshes the agent. A nil report is a miss for
// the reason miss, and an alive agent dies at its DeadAfter-th
// consecutive miss. It reports whether membership changed.
func (c *Controller) observeLocked(a *agentState, report *StatsResponse, heard time.Time, miss string) (membershipChanged bool) {
	if report == nil {
		a.lastErr = miss
		a.misses++
		if !a.alive || a.misses < c.cfg.DeadAfter {
			return false
		}
		a.alive = false
		c.deaths++
		c.logf("agent %s (%s) dead after %d missed heartbeats: %s", a.name, a.url, a.misses, miss)
		return true
	}
	if !a.alive || !a.everSeen {
		membershipChanged = true
		if a.everSeen {
			c.rejoins++
			c.logf("agent %s (%s) rejoined", report.Agent, a.url)
		} else {
			c.logf("agent %s (%s) discovered, lc=%s", report.Agent, a.url, report.LC)
		}
	}
	a.alive = true
	a.everSeen = true
	a.misses = 0
	a.lastErr = ""
	a.lastHeard = heard
	a.name = report.Agent
	a.lc = report.LC
	a.last = *report
	return membershipChanged
}

// applyProbesLocked is the poll transport's round head: it folds each
// probe result into the agent's liveness (observeLocked), installs the
// probe's decoder cache, and schedules a dead agent's next probe on a
// capped exponential backoff.
func (c *Controller) applyProbesLocked(results []probeResult, now time.Time) (membershipChanged bool) {
	for i := range results {
		r := &results[i]
		a := r.agent
		if r.err != nil {
			membershipChanged = c.observeLocked(a, nil, now, r.err.Error()) || membershipChanged
			if !a.alive {
				// Next probe in 1, 2, 4, … heartbeats, capped at MaxBackoff.
				a.backoff = min(max(2*a.backoff, c.cfg.Heartbeat), c.cfg.MaxBackoff)
				a.nextDue = now.Add(a.backoff)
			}
			continue
		}
		membershipChanged = c.observeLocked(a, &r.stats, now, "") || membershipChanged
		a.backoff = 0
		a.nextDue = now
		a.probeCache = r.cache
	}
	return membershipChanged
}

// probe fetches an agent's stats with the per-request timeout, retrying up
// to the configured budget with short exponential spacing. cache is the
// agent's probe cache; probe returns the one to install after a success.
func (c *Controller) probe(ctx context.Context, baseURL string, cache *statsCache) (StatsResponse, *statsCache, error) {
	var lastErr error
	backoff := 10 * time.Millisecond
	if max := c.cfg.Timeout / 8; max > 0 && backoff > max {
		backoff = max
	}
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return StatsResponse{}, cache, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		var stats StatsResponse
		var next *statsCache
		err := c.get(ctx, baseURL+RouteStats, func(body io.Reader) (err error) {
			next, err = c.readStats(body, cache, &stats)
			return err
		})
		if err == nil {
			return stats, next, nil
		}
		lastErr = err
	}
	return StatsResponse{}, cache, lastErr
}

// statsBufs recycles the buffers probe bodies are read into.
var statsBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readStats reads one /v1/stats body into a pooled buffer and decodes it
// (decodeStats). The body is bounded like a stream snapshot, at
// maxHeartbeatBlob, so one misbehaving agent cannot make the controller
// buffer an arbitrarily large value. Nothing decoded refers to the
// buffer: strings and raw section bytes are copied out of it.
func (c *Controller) readStats(body io.Reader, cache *statsCache, out *StatsResponse) (*statsCache, error) {
	buf := statsBufs.Get().(*bytes.Buffer)
	defer statsBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(body, maxHeartbeatBlob+1)); err != nil {
		return cache, err
	}
	if buf.Len() > maxHeartbeatBlob {
		return cache, fmt.Errorf("stats body exceeds the %d-byte limit", maxHeartbeatBlob)
	}
	next, fast, err := decodeStats(buf.Bytes(), cache, out)
	if c.obs != nil {
		if fast {
			c.obs.pollFast.Inc()
		} else {
			c.obs.pollFallback.Inc()
		}
	}
	return next, err
}

// get performs a GET with the configured timeout and hands a 200 reply's
// body to read.
func (c *Controller) get(ctx context.Context, url string, read func(body io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return read(resp.Body)
}

// getJSON performs a GET with the configured timeout and decodes the body.
func (c *Controller) getJSON(ctx context.Context, url string, out any) error {
	return c.get(ctx, url, func(body io.Reader) error { return json.NewDecoder(body).Decode(out) })
}

// jsonHeader is every push request's header. Requests share it, so
// nothing may write it: net/http's client copies a request's header
// before adding to it, and a RoundTripper must not modify a request.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// postJSON pushes one control request to an agent: req, marshalled as
// JSON, to baseURL+route, bounded by the request timeout. Any status but
// 200 is an error that carries the start of the agent's reply.
func (c *Controller) postJSON(ctx context.Context, baseURL, route string, req any) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+route, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header = jsonHeader
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", baseURL+route, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// liveCountLocked counts agents currently believed alive.
func (c *Controller) liveCountLocked() int {
	n := 0
	for _, a := range c.agents {
		if a.alive {
			n++
		}
	}
	return n
}

// resolveLocked re-solves the placement against the live agents'
// reported stats on the warm placement engine. On solver failure or when
// a majority of agents are unreachable it degrades to the last-known-good
// placement instead of churning assignments.
func (c *Controller) resolveLocked(now time.Time) {
	nLive := 0
	for _, a := range c.agents {
		if a.placeable() {
			nLive++
		}
	}
	if nLive == 0 {
		c.degradeLocked(now, "no live agents")
		return
	}
	// Majority-unreachable guard: with most of the fleet dark the reports
	// left are too thin to trust a re-solve; hold the last placement.
	if c.lastGood != nil && 2*nLive < len(c.agents) {
		c.degradeLocked(now, fmt.Sprintf("only %d/%d agents reachable", nLive, len(c.agents)))
		return
	}
	if len(c.cfg.BE) == 0 {
		c.setPlacementLocked(map[string]string{})
		c.lastGood = map[string]string{}
		c.unplaced = nil
		c.degraded = false
		c.lastSolve = now
		return
	}

	placement, unplaced, err := c.solveEngineLocked(now, nLive)
	if err != nil {
		c.degradeLocked(now, fmt.Sprintf("solve failed: %v", err))
		return
	}
	prev := c.placement
	c.setPlacementLocked(placement)
	c.lastGood = clone(placement)
	c.unplaced = unplaced
	c.degraded = false
	c.lastSolve = now
	c.solves++
	c.logf("placement solved over %d agents: %v (unplaced %v)", nLive, placement, unplaced)
	c.tracePlacementLocked(now, prev, placement)
}

// tracePlacementLocked records one Placement event per newly placed
// best-effort app and one Migration event (plus a log line) per app that
// moved between agents, in sorted BE order for a deterministic timeline.
func (c *Controller) tracePlacementLocked(now time.Time, prev, next map[string]string) {
	if c.tracer == nil {
		return
	}
	names := make(map[string]string, len(c.agents))
	for _, a := range c.agents {
		names[a.url] = a.name
	}
	for _, be := range sortedKeys(next) {
		url := next[be]
		prevURL, had := prev[be]
		switch {
		case !had:
			c.tracer.Placement(now, trace.Placement{BE: be, Node: names[url], Reason: "solve"})
		case prevURL != url:
			c.logf("migrated %s: %s -> %s", be, names[prevURL], names[url])
			c.tracer.Migration(now, trace.Placement{BE: be, Node: names[url], From: names[prevURL], Reason: "re-solve"})
		}
	}
}

// degradeLocked keeps the last-known-good placement, restricted to agents
// that still exist, and flags degraded mode. The Degradation trace event
// fires on the transition only, matching the log line, so repeated
// degraded rounds do not flood the ring.
func (c *Controller) degradeLocked(now time.Time, reason string) {
	if !c.degraded {
		c.logf("degraded: %s; holding last-known-good placement", reason)
		c.tracer.Degradation(now, reason)
	}
	c.degraded = true
	if c.lastGood != nil {
		c.setPlacementLocked(clone(c.lastGood))
	}
}

// setPlacementLocked installs a placement (BE → agent URL) and refreshes
// every agent's desired BE from it. These are the only writes to
// c.placement, which keeps desiredBE in step with it.
func (c *Controller) setPlacementLocked(p map[string]string) {
	c.placement = p
	for _, a := range c.agents {
		a.desiredBE = ""
	}
	for be, url := range p {
		if a := c.byURL[url]; a != nil {
			a.desiredBE = be
		}
	}
}

// pushKind discriminates the per-round agent RPCs.
type pushKind int

const (
	pushAssign pushKind = iota
	pushCap
)

// pendingPush is one agent RPC computed under the lock and executed
// outside it. url and name are copied so the unlocked push phase never
// reads the agent's state; agent is only dereferenced under the lock,
// when the ack is recorded.
type pendingPush struct {
	kind      pushKind
	agent     *agentState
	url, name string
	be        string  // pushAssign
	capW      float64 // pushCap
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

// maxPushWorkers caps the push pool. The floor of one worker per push
// (up to the cap) is deliberate: the pool must not degenerate to a
// single lane on GOMAXPROCS=1, where one slow agent would serialize
// every other agent's push behind its timeout.
const maxPushWorkers = 32

// pushAll executes the round's pushes through a bounded worker pool and
// reports which were acknowledged. Each RPC is bounded by the request
// timeout and holds one of at most maxPushWorkers workers, so S stalled
// pushes delay the round by at most ⌈S/maxPushWorkers⌉ timeouts — not
// one timeout per slow agent, as a serial push loop would. Log lines
// are emitted after the joins, in push order, so interleaving stays
// deterministic for log-capturing tests.
func (c *Controller) pushAll(ctx context.Context, pushes []pendingPush) []bool {
	acked := make([]bool, len(pushes))
	errs := make([]error, len(pushes))
	workers := len(pushes)
	if workers > maxPushWorkers {
		workers = maxPushWorkers
	}
	_ = parallel.ForEach(len(pushes), workers, func(i int) error {
		p := pushes[i]
		switch p.kind {
		case pushAssign:
			errs[i] = c.postJSON(ctx, p.url, RouteAssign, AssignRequest{BE: p.be})
		case pushCap:
			errs[i] = c.postJSON(ctx, p.url, RouteCap, CapRequest{CapW: p.capW})
		}
		acked[i] = errs[i] == nil
		return nil
	})
	for i, p := range pushes {
		switch p.kind {
		case pushAssign:
			if errs[i] != nil {
				c.logf("assign %q to %s (%s) failed: %v", p.be, p.name, p.url, errs[i])
			} else {
				c.logf("assigned %q to %s (%s)", p.be, p.name, p.url)
			}
		case pushCap:
			if errs[i] != nil {
				c.logf("cap %.1fW to %s (%s) failed: %v", p.capW, p.name, p.url, errs[i])
			}
		}
	}
	return acked
}

// recordPushesLocked folds acknowledged pushes back into the agents'
// last-known state so the next round does not re-push before a fresh
// report refreshes the truth. Only acknowledged pushes are recorded —
// recording a failed push would mask the divergence until the agent
// happened to report again, leaving the fleet out of step with the
// controller's book. An agent declared dead between derivation and
// record keeps its last report untouched.
func (c *Controller) recordPushesLocked(pushes []pendingPush, acked []bool) {
	for i, p := range pushes {
		a := p.agent
		if !acked[i] || !a.alive {
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
// the combined timeline in canonical (time, host, seq) order. Unreachable
// agents are skipped (their cursor does not advance, so nothing still in
// their ring is lost) and retried on the next call.
func (c *Controller) CollectTrace(ctx context.Context) []trace.Event {
	type target struct {
		url   string
		since uint64
	}
	c.mu.Lock()
	targets := make([]target, 0, len(c.agents))
	for _, a := range c.agents {
		if a.alive {
			targets = append(targets, target{url: a.url, since: c.cursors[a.url]})
		}
	}
	c.mu.Unlock()

	var fetched []trace.Event
	next := make(map[string]uint64, len(targets))
	for _, t := range targets {
		since := t.since
		for {
			var page TraceResponse
			url := fmt.Sprintf("%s%s?since=%d&limit=4096", t.url, RouteTrace, since)
			if err := c.getJSON(ctx, url, &page); err != nil {
				c.logf("trace fetch from %s failed: %v", t.url, err)
				break
			}
			fetched = append(fetched, page.Events...)
			if len(page.Events) == 0 || page.Next <= since {
				break
			}
			since = page.Next
		}
		next[t.url] = since
	}

	c.mu.Lock()
	for url, n := range next {
		if n > c.cursors[url] {
			c.cursors[url] = n
		}
	}
	c.collected = append(c.collected, fetched...)
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

// clone copies a placement map.
func clone(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
