package controlplane

import (
	"fmt"
	"net/http"
	"time"

	"pocolo/internal/obs"
)

// This file is the controller's observability plane: the ctlObs handle
// bundle (round latency, SLO trackers, heartbeat decode latency, per-pod
// staleness watermarks), the round-deadline flight-recorder trigger, and
// the /v1/top fleet snapshot that pocolo-top renders. Everything is
// nil-safe — a controller without a registry pays one nil check per
// site.

// ctlObs holds the controller's pre-registered metric handles so the hot
// paths (round loop, heartbeat ingest) never touch the registry's
// get-or-create map.
type ctlObs struct {
	reg *obs.Registry

	// round loop
	round    *obs.Histogram // pocolo_obs_round_seconds
	roundSLO *obs.SLO       // slo="round"
	staleSLO *obs.SLO       // slo="staleness"

	// placement phases: pocolo_tick_duration_seconds{agent="controller"},
	// the family the agents' server managers time their ticks into
	buildMatrix, solve *obs.Histogram

	// heartbeat ingest (streaming transport); the frame counters are
	// streamState's, rendered from StreamStats
	decode *obs.Histogram // pocolo_obs_heartbeat_decode_seconds

	// per-pod staleness watermark, indexed by stream shard
	podStale []*obs.Gauge

	// budget path
	budgetLat *obs.Histogram // pocolo_obs_budget_rebalance_seconds
	headroom  map[string]*obs.Gauge

	// poll probe bodies by decode path (polling transport only): a
	// rising fallback share means agents send bodies the fast path does
	// not cover, and each such probe decodes over ten times slower.
	pollFast, pollFallback *obs.Counter // pocolo_obs_poll_decode_total
}

// sloBudget is the breach fraction the round and staleness objectives
// tolerate.
const sloBudget = 0.01

func newCtlObs(reg *obs.Registry, poll bool, nPods int, roundDeadline, staleLimit time.Duration) *ctlObs {
	if reg == nil {
		return nil
	}
	o := &ctlObs{
		reg:      reg,
		round:    reg.Histogram("pocolo_obs_round_seconds", "Wall-clock duration of controller heartbeat rounds."),
		roundSLO: obs.NewSLO(reg, obs.Objective{Name: "round", Target: roundDeadline, Budget: sloBudget}),
		staleSLO: obs.NewSLO(reg, obs.Objective{Name: "staleness", Target: staleLimit, Budget: sloBudget}),
		decode:   reg.Histogram("pocolo_obs_heartbeat_decode_seconds", "Wall-clock duration of heartbeat frame decodes."),
		budgetLat: reg.Histogram("pocolo_obs_budget_rebalance_seconds",
			"Wall-clock duration of the controller's budget-tree divisions."),
		headroom: make(map[string]*obs.Gauge),
	}
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("pocolo_tick_duration_seconds", "Wall-clock duration of control-plane phases, by phase span.",
			obs.Label{Key: "agent", Value: "controller"}, obs.Label{Key: "phase", Value: name})
	}
	o.buildMatrix, o.solve = phase("build_matrix"), phase("solve")
	if poll {
		o.pollFast = reg.Counter("pocolo_obs_poll_decode_total", "Poll probe bodies by decode path.", obs.Label{Key: "path", Value: "fast"})
		o.pollFallback = reg.Counter("pocolo_obs_poll_decode_total", "Poll probe bodies by decode path.", obs.Label{Key: "path", Value: "fallback"})
	}
	o.podStale = make([]*obs.Gauge, nPods)
	for p := range o.podStale {
		o.podStale[p] = reg.Gauge("pocolo_obs_stream_staleness_seconds",
			"Max staleness (now minus last applied heartbeat) per pod.",
			obs.Label{Key: "pod", Value: fmt.Sprintf("pod-%d", p)})
	}
	return o
}

// headroomGauge returns (get-or-create, cached) the per-agent budget
// headroom gauge. Callers hold Controller.mu.
func (o *ctlObs) headroomGauge(name string) *obs.Gauge {
	g, ok := o.headroom[name]
	if !ok {
		g = o.reg.Gauge("pocolo_obs_budget_headroom_watts",
			"Desired budget share minus reported power draw per agent.",
			obs.Label{Key: "host", Value: name})
		o.headroom[name] = g
	}
	return g
}

// buildTimer and solveTimer time the controller's engine-build and solve
// phases. An unobserved controller gets the zero timer, which reads no
// clock.
func (o *ctlObs) buildTimer() obs.Timer {
	if o == nil {
		return obs.Timer{}
	}
	return o.buildMatrix.Start()
}

func (o *ctlObs) solveTimer() obs.Timer {
	if o == nil {
		return obs.Timer{}
	}
	return o.solve.Start()
}

// observeRound records one round's measured duration against the
// round-latency histogram and SLO, then arms the flight recorder when
// the (possibly fault-injected) duration blows the deadline. Injected
// latency is added to the measurement, never slept, so deterministic
// campaigns can reproduce a slow round without wall-clock noise.
func (c *Controller) observeRound(now time.Time, round int, d time.Duration) {
	if f := c.cfg.InjectRoundLatency; f != nil {
		d += f(round)
	}
	if c.obs != nil {
		c.obs.round.ObserveDuration(d)
		c.obs.roundSLO.Observe(d)
	}
	if c.cfg.Recorder != nil && c.roundDeadline > 0 && d > c.roundDeadline {
		c.triggerBundle(now, round, d, "round-deadline")
	}
}

// podCounter is one agent's row in a flight bundle's pods.json.
type podCounter struct {
	Agent  string  `json:"agent"`
	Pod    string  `json:"pod"`
	Alive  bool    `json:"alive"`
	Seq    uint64  `json:"seq"`
	StaleS float64 `json:"staleness_s"`
}

// podCounters snapshots per-agent liveness/staleness for a bundle.
func (c *Controller) podCounters(now time.Time) []podCounter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]podCounter, 0, len(c.agents))
	for i, a := range c.agents {
		out = append(out, podCounter{
			Agent:  a.name,
			Pod:    fmt.Sprintf("pod-%d", i/c.cfg.PodSize),
			Alive:  a.alive,
			Seq:    a.streamSeq,
			StaleS: a.staleness(now),
		})
	}
	return out
}

// staleness is the age of the agent's last report, zero before its
// first.
func (a *agentState) staleness(now time.Time) float64 {
	if !a.everSeen {
		return 0
	}
	return now.Sub(a.lastHeard).Seconds()
}

// triggerBundle fires the flight recorder with the controller's recent
// trace events, obs snapshot, per-agent counters, and heartbeat ingest
// counters (meta.json's detail). Bundle event logs
// are wall-free and stamped on the controller clock, so seeded runs
// produce byte-identical events.jsonl files.
func (c *Controller) triggerBundle(now time.Time, round int, d time.Duration, reason string) {
	var snap obs.Snapshot
	if c.obs != nil {
		snap = c.obs.reg.Snapshot()
	}
	dir, taken, err := c.cfg.Recorder.Trigger(obs.Bundle{
		Reason: reason,
		Now:    now,
		Events: c.tracer.Events(),
		Obs:    snap,
		Pods:   c.podCounters(now),
		Detail: map[string]any{
			"round":      round,
			"duration_s": d.Seconds(),
			"deadline_s": c.roundDeadline.Seconds(),
			"heartbeats": c.StreamStats(),
		},
	})
	if err != nil {
		c.logf("flight recorder: %v", err)
		return
	}
	if taken {
		c.logf("flight recorder: %s bundle at %s (round %d, %.3fs)", reason, dir, round, d.Seconds())
	}
}

// TopPod is one pod row of the fleet view.
type TopPod struct {
	Pod         string  `json:"pod"`
	Agents      int     `json:"agents"`
	Alive       int     `json:"alive"`
	StalenessS  float64 `json:"staleness_s"`
	SolveP50Ms  float64 `json:"solve_p50_ms"`
	SolveP99Ms  float64 `json:"solve_p99_ms"`
	BatchDirty  int64   `json:"batch_dirty"`
	BatchRounds int64   `json:"batch_rounds"`
	HeadroomW   float64 `json:"headroom_w"`
	Violations  int     `json:"violations"`
}

// TopSnapshot is the /v1/top payload: the fleet rolled up per pod plus
// the controller's round-latency and SLO summary.
type TopSnapshot struct {
	Transport  string   `json:"transport"`
	Rounds     int      `json:"rounds"`
	Solves     int      `json:"solves"`
	Deaths     int      `json:"deaths"`
	Degraded   bool     `json:"degraded"`
	RoundP50Ms float64  `json:"round_p50_ms"`
	RoundP99Ms float64  `json:"round_p99_ms"`
	RoundBurn  float64  `json:"round_burn"`
	StaleBurn  float64  `json:"stale_burn"`
	Pods       []TopPod `json:"pods"`
}

// Top rolls the controller's state and metrics up into the fleet view
// pocolo-top renders. Works with or without a registry: quantiles and
// burn rates are zero when the controller runs unobserved.
func (c *Controller) Top() TopSnapshot {
	now := c.now()
	// Read the registry outside the controller lock: Snapshot walks every
	// shard of every series.
	solveByPod := make(map[string]obs.HistogramSnapshot)
	dirtyByPod := make(map[string]int64)
	roundsByPod := make(map[string]int64)
	var roundHist *obs.HistogramSnapshot
	var top TopSnapshot
	if c.obs != nil {
		snap := c.obs.reg.Snapshot()
		for i := range snap.Histograms {
			h := snap.Histograms[i]
			switch h.Name {
			case "pocolo_obs_pod_solve_seconds":
				if p := labelValue(h.Labels, "pod"); p != "" {
					solveByPod[p] = h
				}
			case "pocolo_obs_round_seconds":
				roundHist = &snap.Histograms[i]
			}
		}
		for _, cs := range snap.Counters {
			p := labelValue(cs.Labels, "pod")
			switch cs.Name {
			case "pocolo_obs_batch_dirty_total":
				dirtyByPod[p] = int64(cs.Value)
			case "pocolo_obs_batch_rounds_total":
				roundsByPod[p] = int64(cs.Value)
			}
		}
		if roundHist != nil {
			top.RoundP50Ms = roundHist.Quantile(0.5) * 1e3
			top.RoundP99Ms = roundHist.Quantile(0.99) * 1e3
		}
		top.RoundBurn = c.obs.roundSLO.Burn()
		top.StaleBurn = c.obs.staleSLO.Burn()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	top.Transport = c.cfg.Transport
	top.Rounds = c.rounds
	top.Solves = c.solves
	top.Deaths = c.deaths
	top.Degraded = c.degraded
	nPods := (len(c.agents) + c.cfg.PodSize - 1) / c.cfg.PodSize
	pods := make([]TopPod, nPods)
	for p := range pods {
		pods[p].Pod = fmt.Sprintf("pod-%d", p)
	}
	var shares map[string]float64
	if c.budget != nil {
		shares = c.budget.shareMap()
	}
	for i, a := range c.agents {
		row := &pods[i/c.cfg.PodSize]
		row.Agents++
		if a.alive {
			row.Alive++
			if a.last.Slack < 0 {
				row.Violations++
			}
		}
		row.StalenessS = max(row.StalenessS, a.staleness(now))
		if share, ok := shares[a.name]; ok {
			row.HeadroomW += share - a.last.PowerW
		}
	}
	for p := range pods {
		if h, ok := solveByPod[pods[p].Pod]; ok {
			pods[p].SolveP50Ms = h.Quantile(0.5) * 1e3
			pods[p].SolveP99Ms = h.Quantile(0.99) * 1e3
		}
		pods[p].BatchDirty = dirtyByPod[pods[p].Pod]
		pods[p].BatchRounds = roundsByPod[pods[p].Pod]
	}
	top.Pods = pods
	return top
}

func labelValue(labels []obs.Label, key string) string {
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// TopHandler serves the fleet view as JSON (GET /v1/top).
func (c *Controller) TopHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, c.Top())
}

// Obs returns the controller's metrics registry (nil when unobserved).
func (c *Controller) Obs() *obs.Registry {
	if c.obs == nil {
		return nil
	}
	return c.obs.reg
}
