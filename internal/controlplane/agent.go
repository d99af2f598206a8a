package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// AgentConfig assembles one per-server agent.
type AgentConfig struct {
	// Name identifies the agent to the controller. Names must be unique
	// across a cluster; required.
	Name string
	// Machine is the server platform; required.
	Machine machine.Config
	// LC is the latency-critical primary; required.
	LC *workload.Spec
	// LCModel is the fitted utility model of the primary; required.
	LCModel *utility.Model
	// BECandidates lists the best-effort apps this server can host. The
	// controller may assign any of them; they start evicted.
	BECandidates []*workload.Spec
	// BEModels optionally maps candidate names to fitted models (used by
	// the manager's spare split and reported to the controller).
	BEModels map[string]*utility.Model
	// Trace drives the primary's offered load; required.
	Trace workload.Trace
	// SimTick is the simulated time advanced per pacing step (default
	// 100 ms, the engine tick).
	SimTick time.Duration
	// RealTick is the wall-clock interval between pacing steps (default
	// SimTick, i.e. real time). Tests shrink it to run the simulation
	// faster than real time.
	RealTick time.Duration
	// TargetSlack overrides the manager's latency slack guard.
	TargetSlack float64
	// SeriesCap bounds the host's telemetry series (default 4096 points;
	// negative disables the bound).
	SeriesCap int
	// Seed drives the host's noise streams and the manager's baseline
	// choice.
	Seed int64
	// Invariants, when non-nil, is bound to the agent's per-tick observe
	// path: every registered invariant is checked against this host's
	// state on every simulated tick. One harness may be shared across a
	// cluster's agents (it is internally locked), or each agent may get
	// its own for per-server attribution.
	Invariants *invariant.Harness
	// TraceEvents sizes the agent's decision-trace ring: 0 uses
	// trace.DefaultEvents, a negative value records no decision events
	// (no tracing cost on the control path). The tick-phase duration and
	// slack histograms on /metrics are metrics, not events: they are
	// always recorded.
	TraceEvents int
}

// Agent wraps one simulated host and its server manager behind the HTTP
// API. All host/manager/engine access is serialized by mu: the pacing
// goroutine advances simulated time, and HTTP handlers read state or
// change assignments between steps.
type Agent struct {
	name     string
	machine  machine.Config
	lc       *workload.Spec
	lcModel  *utility.Model
	beModels map[string]*utility.Model
	byName   map[string]*workload.Spec
	realTick time.Duration
	simTick  time.Duration

	// tracer is internally locked; /v1/trace reads it without taking a.mu.
	tracer *trace.Tracer
	// obs holds the server manager's tick-phase and slack histograms; it
	// is internally locked, so /metrics snapshots it without taking a.mu.
	obs *obs.Registry

	mu       sync.Mutex
	host     *sim.Host
	mgr      *servermgr.Manager
	engine   *sim.Engine
	assigned string
	epoch    uint64 // bumped on every applied assignment change
	ticks    uint64

	started   time.Time
	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once

	// capReply is the POST /v1/cap ack up to its value,
	// {"agent":<name>,"cap_w": — see appendCapReply.
	capReply []byte
}

// NewAgent validates the configuration and builds an agent. The host
// starts with every best-effort candidate registered but parked; work
// arrives only via Assign (directly or over HTTP).
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, errors.New("controlplane: agent needs a name")
	}
	if cfg.LC == nil {
		return nil, errors.New("controlplane: agent needs a latency-critical primary")
	}
	if cfg.LCModel == nil {
		return nil, errors.New("controlplane: agent needs a fitted LC model")
	}
	if cfg.Trace == nil {
		return nil, errors.New("controlplane: agent needs a load trace")
	}
	if cfg.SimTick == 0 {
		cfg.SimTick = 100 * time.Millisecond
	}
	if cfg.RealTick == 0 {
		cfg.RealTick = cfg.SimTick
	}
	if cfg.SimTick <= 0 || cfg.RealTick <= 0 {
		return nil, errors.New("controlplane: agent ticks must be positive")
	}
	seriesCap := cfg.SeriesCap
	if seriesCap == 0 {
		seriesCap = 4096
	}
	if seriesCap < 0 {
		seriesCap = 0 // unbounded, at the caller's explicit request
	}
	hc := sim.HostConfig{
		Name:      cfg.Name,
		Machine:   cfg.Machine,
		LC:        cfg.LC,
		Trace:     cfg.Trace,
		Seed:      cfg.Seed,
		SeriesCap: seriesCap,
	}
	if len(cfg.BECandidates) > 0 {
		hc.BE = cfg.BECandidates[0]
		hc.ExtraBE = cfg.BECandidates[1:]
	}
	host, err := sim.NewHost(hc)
	if err != nil {
		return nil, err
	}
	engine, err := sim.NewEngine(cfg.SimTick)
	if err != nil {
		return nil, err
	}
	if err := engine.AddHost(host); err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if cfg.TraceEvents >= 0 {
		capacity := cfg.TraceEvents
		if capacity == 0 {
			capacity = trace.DefaultEvents
		}
		tracer = trace.New(cfg.Name, capacity)
	}
	reg := obs.NewRegistry()
	mgr, err := servermgr.New(servermgr.Config{
		Host:        host,
		Model:       cfg.LCModel,
		Policy:      servermgr.PowerOptimized,
		TargetSlack: cfg.TargetSlack,
		BEModels:    cfg.BEModels,
		Seed:        cfg.Seed,
		Tracer:      tracer,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	// Candidates idle until the controller assigns one.
	mgr.SetBEParked(true)
	if err := mgr.Attach(engine); err != nil {
		return nil, err
	}
	if cfg.Invariants != nil {
		// Snapshot only this agent's host on its own engine ticks: the
		// engine runs under a.mu, so capturing another agent's host here
		// would race with that agent's pacing loop. Harness.Run is
		// internally locked, so the harness itself may be shared.
		h := cfg.Invariants
		if err := engine.Observe(func(now time.Time) {
			h.Run(invariant.Capture(host, mgr, now))
		}); err != nil {
			return nil, err
		}
	}
	byName := make(map[string]*workload.Spec, len(cfg.BECandidates))
	for _, be := range cfg.BECandidates {
		byName[be.Name] = be
	}
	a := &Agent{
		name:     cfg.Name,
		machine:  cfg.Machine,
		lc:       cfg.LC,
		lcModel:  cfg.LCModel,
		beModels: cfg.BEModels,
		byName:   byName,
		realTick: cfg.RealTick,
		simTick:  cfg.SimTick,
		tracer:   tracer,
		obs:      reg,
		host:     host,
		mgr:      mgr,
		engine:   engine,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// The name is encoded as writeJSON encodes it; a string always
	// encodes, and Encode ends it with a newline.
	var name bytes.Buffer
	_ = newJSONEncoder(&name).Encode(cfg.Name)
	a.capReply = append(append([]byte(`{"agent":`), bytes.TrimSuffix(name.Bytes(), []byte("\n"))...), `,"cap_w":`...)
	return a, nil
}

// Name returns the agent's identity.
func (a *Agent) Name() string { return a.name }

// LCName returns the name of the latency-critical primary.
func (a *Agent) LCName() string { return a.lc.Name }

// Handler returns the agent's HTTP API: the agent itself.
func (a *Agent) Handler() http.Handler { return a }

// ServeHTTP implements http.Handler. It routes the six API paths by
// exact match on r.URL.Path; any other path, an unclean spelling of a
// route such as //v1/cap included, gets 404.
func (a *Agent) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case RouteCap:
		a.handleCap(w, r)
	case RouteAssign:
		a.handleAssign(w, r)
	case RouteStats:
		a.handleStats(w, r)
	case RouteHealthz:
		a.handleHealthz(w, r)
	case RouteMetrics:
		a.handleMetrics(w, r)
	case RouteTrace:
		a.handleTrace(w, r)
	default:
		http.NotFound(w, r)
	}
}

// Start launches the pacing loop: every RealTick of wall-clock time the
// simulation advances by SimTick. Start is idempotent.
func (a *Agent) Start() {
	a.startOnce.Do(func() {
		a.mu.Lock()
		a.started = time.Now()
		a.mu.Unlock()
		go func() {
			defer close(a.done)
			ticker := time.NewTicker(a.realTick)
			defer ticker.Stop()
			for {
				select {
				case <-a.stop:
					return
				case <-ticker.C:
					a.mu.Lock()
					_ = a.engine.Run(a.simTick)
					a.ticks++
					a.mu.Unlock()
				}
			}
		}()
	})
}

// Advance steps the agent's simulation by d of simulated time without the
// wall-clock pacing loop. Deterministic drivers (fault campaigns, tests)
// use it instead of Start so a run is a pure function of its seeds; mixing
// Advance with a Start-ed pacing loop is safe but forfeits determinism.
func (a *Agent) Advance(d time.Duration) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.engine.Run(d); err != nil {
		return err
	}
	a.ticks++
	return nil
}

// Stop halts the pacing loop and waits for it to exit. Stop is idempotent
// and safe to call even if Start never ran.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.startOnce.Do(func() { close(a.done) }) // never started: nothing to wait for
	<-a.done
}

// Assign places the named best-effort candidate (or evicts and parks the
// best-effort partition when name is empty). A replica instance name
// ("graph#3", cluster.RunReplicated's convention) runs the base
// candidate's binary while the full instance name is reported back, so a
// controller placing one replica per agent round-trips its own names.
// The change applies immediately, without waiting for the next control
// tick, and bumps the agent's assignment epoch.
func (a *Agent) Assign(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if name == "" {
		if a.assigned != "" {
			a.epoch++
		}
		a.mgr.SetBEParked(true)
		a.assigned = ""
		return nil
	}
	base := baseBE(name)
	if _, ok := a.byName[base]; !ok {
		return fmt.Errorf("controlplane: agent %s has no best-effort candidate %q", a.name, name)
	}
	a.mgr.SetBEParked(false)
	if err := a.mgr.SetActiveBE(base); err != nil {
		a.mgr.SetBEParked(true)
		return err
	}
	if a.assigned != name {
		a.epoch++
	}
	a.assigned = name
	return nil
}

// SetCap installs a cluster-budget power cap on the server manager (zero
// clears the override). The change applies immediately; the capper
// enforces it from the next 100 ms cap tick.
func (a *Agent) SetCap(w float64) error {
	_, err := a.applyCap(w)
	return err
}

// applyCap validates and installs a cap of w watts and returns the cap
// the capper now enforces, all under one lock acquisition, so a cap
// push's ack reports the cap that push set even when pushes race.
func (a *Agent) applyCap(w float64) (float64, error) {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return 0, fmt.Errorf("controlplane: agent %s: cap %v W is not physical", a.name, w)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.mgr.SetCapW(w); err != nil {
		return 0, err
	}
	return a.mgr.CapW(), nil
}

// CapW reports the power cap the agent's capper currently enforces.
func (a *Agent) CapW() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mgr.CapW()
}

// Assigned returns the currently placed best-effort app, or "".
func (a *Agent) Assigned() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assigned
}

// Stats returns the agent's state snapshot.
func (a *Agent) Stats() StatsResponse {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.statsLocked()
}

// StatsEpoch returns the snapshot together with the assignment epoch
// under one lock acquisition — the streaming publisher's read, so a
// frame's stats and epoch always describe the same instant.
func (a *Agent) StatsEpoch() (StatsResponse, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.statsLocked(), a.epoch
}

// statsLocked assembles the snapshot. Callers must hold a.mu.
func (a *Agent) statsLocked() StatsResponse {
	m := a.host.Metrics()
	candidates := make([]string, 0, len(a.byName))
	for _, be := range a.host.BEs() {
		candidates = append(candidates, be.Name)
	}
	control, throttles, restores := a.mgr.Counters()
	planHits, planWarm, planFallbacks := a.mgr.PlannerCounters()
	beThrottles, beRestores := a.mgr.KnobCounters()
	return StatsResponse{
		Agent:             a.name,
		Machine:           a.machine,
		LC:                a.lc.Name,
		PeakLoad:          a.lc.PeakLoad,
		ProvisionedPowerW: a.lc.ProvisionedPowerW,
		OfferedLoad:       a.host.OfferedLoad(),
		Slack:             a.host.Slack(),
		P99Ms:             a.host.ObservedP99(),
		PowerW:            a.host.MeterReading().Watts,
		CapW:              a.mgr.CapW(),
		BEThroughput:      a.host.BEThroughput(),
		AssignedBE:        a.assigned,
		BECandidates:      candidates,
		LCOps:             m.LCOps,
		BEOps:             m.BEOps,
		BEOpsBy:           m.BEOpsBy,
		ControlTicks:      control,
		CapThrottles:      throttles,
		CapRestores:       restores,
		PlannerHits:       planHits,
		PlannerWarm:       planWarm,
		PlannerFallbacks:  planFallbacks,
		BEThrottles:       beThrottles,
		BERestores:        beRestores,
		PlannerOn:         a.mgr.PlannerEnabled(),
		SimSec:            a.engine.Elapsed().Seconds(),
		LCModel:           a.lcModel,
		BEModels:          a.beModels,
	}
}

// maxControlBody bounds a POST /v1/cap or /v1/assign body. Either
// request is a few dozen bytes; a larger body gets 413 instead of being
// buffered.
const maxControlBody = 4 << 10

// controlBufs recycles the buffers control request bodies are read into.
// A cap push renders its ack into the same buffer.
var controlBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readControlBody reads a control request's body into buf, up to
// maxControlBody bytes. On failure it has written the error reply (413
// for an oversized body) and returns false.
func readControlBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxControlBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxControlBody)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return false
	}
	return true
}

// handleAssign serves POST /v1/assign.
func (a *Agent) handleAssign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := controlBufs.Get().(*bytes.Buffer)
	defer controlBufs.Put(buf)
	if !readControlBody(w, r, buf) {
		return
	}
	var req AssignRequest
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding assign request: %v", err)
		return
	}
	if err := a.Assign(req.BE); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, AssignResponse{Agent: a.name, AssignedBE: a.Assigned()})
}

// handleCap serves POST /v1/cap, the controller's per-round budget push.
// It decodes the body in place (decodeCapRequest), applies the cap and
// reads back the enforced cap under one lock, and renders the ack
// without reflection (appendCapReply).
func (a *Agent) handleCap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := controlBufs.Get().(*bytes.Buffer)
	defer controlBufs.Put(buf)
	if !readControlBody(w, r, buf) {
		return
	}
	capW, err := decodeCapRequest(buf.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding cap request: %v", err)
		return
	}
	enforced, err := a.applyCap(capW)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.appendCapReply(buf.Bytes()[:0], enforced))
}

// decodeCapRequest decodes a POST /v1/cap body. The controller's form,
// exactly {"cap_w":<number>} with at most one trailing newline, is
// parsed in place. Any other body goes through json.Decoder, as every
// body did before, so accept/reject and the decoded bits are
// encoding/json's for every input; FuzzDecodeCapRequest checks that.
func decodeCapRequest(body []byte) (float64, error) {
	if w, ok := parseCanonicalCap(body); ok {
		return w, nil
	}
	var req CapRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return 0, err
	}
	return req.CapW, nil
}

// parseCanonicalCap parses the canonical cap body. The number is checked
// against the JSON grammar, then parsed by strconv.ParseFloat, the call
// encoding/json makes, so the value is bit-identical. A number out of
// float64 range is declined, for encoding/json to reject.
func parseCanonicalCap(body []byte) (float64, bool) {
	const head = `{"cap_w":`
	if n := len(body); n > 0 && body[n-1] == '\n' {
		body = body[:n-1]
	}
	n := len(body)
	if n < len(head)+2 || string(body[:len(head)]) != head || body[n-1] != '}' {
		return 0, false
	}
	num := body[len(head) : n-1]
	if end, ok := scanNumber(num, 0); !ok || end != len(num) {
		return 0, false
	}
	w, err := strconv.ParseFloat(string(num), 64)
	return w, err == nil
}

// appendCapReply appends the POST /v1/cap ack for an enforced cap of w
// watts: the bytes writeJSON(CapResponse{Agent: a.name, CapW: w}) writes.
// The cap is finite: applyCap installed it or it is the host's
// provisioned capacity.
func (a *Agent) appendCapReply(b []byte, w float64) []byte {
	b = append(b, a.capReply...)
	return append(appendJSONFloat(b, w), "}\n"...)
}

// appendJSONFloat appends a finite float64 as encoding/json writes it:
// 'f' format, or 'e' outside [1e-6, 1e21) with a negative two-digit
// exponent shortened (e-09 → e-9). The agent's cap ack and the
// controller's cap push both write their number with it.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// handleStats serves GET /v1/stats.
func (a *Agent) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, a.Stats())
}

// handleHealthz serves GET /v1/healthz.
func (a *Agent) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	a.mu.Lock()
	resp := HealthResponse{
		OK:     true,
		Agent:  a.name,
		SimSec: a.engine.Elapsed().Seconds(),
		Ticks:  a.ticks,
	}
	if !a.started.IsZero() {
		resp.UptimeSec = time.Since(a.started).Seconds()
	}
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (a *Agent) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	a.mu.Lock()
	stats := a.statsLocked()
	a.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteProm(w, agentMetrics(stats, a.obs.Snapshot())); err != nil {
		return
	}
	// OpenMetrics terminator: scrapers use it to distinguish a complete
	// exposition from a truncated one.
	_, _ = io.WriteString(w, "# EOF\n")
}

// Tracer returns the agent's decision tracer (nil when tracing is
// disabled). The tracer is internally locked, so callers may read it
// while the pacing loop runs.
func (a *Agent) Tracer() *trace.Tracer { return a.tracer }

// handleTrace serves GET /v1/trace?since=SEQ&limit=N: one page of the
// decision-trace ring, oldest-first, with a resume cursor.
func (a *Agent) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since cursor %q: %v", v, err)
			return
		}
		since = n
	}
	limit := 512
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n > 4096 {
			n = 4096
		}
		limit = n
	}
	resp := TraceResponse{Agent: a.name, Next: since}
	if a.tracer != nil {
		resp.Events, resp.Next = a.tracer.EventsSince(since, limit)
		resp.Dropped = a.tracer.Dropped()
	}
	if resp.Events == nil {
		resp.Events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, resp)
}
