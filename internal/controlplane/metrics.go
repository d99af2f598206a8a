package controlplane

import (
	"sort"

	"pocolo/internal/obs"
)

// This file turns agent and controller state into obs snapshot values at
// scrape time. Each /metrics handler merges them with its registry's
// snapshot and renders the whole exposition with one obs.WriteProm call.
// State-derived families are not pre-registered: several change their
// label values at runtime (placement, assigned BE, planner mode, budget
// shares), and a registry never drops a series, so registered series
// would go stale. Computing them per scrape also puts no work on the
// tick or round path.

// expo accumulates one exposition's series.
type expo struct{ obs.Snapshot }

func (e *expo) gauge(name, help string, v float64, labels ...obs.Label) {
	e.Gauges = append(e.Gauges, obs.GaugeSnapshot{Name: name, Help: help, Labels: labels, Value: v})
}

func (e *expo) counter(name, help string, v float64, labels ...obs.Label) {
	e.Counters = append(e.Counters, obs.CounterSnapshot{Name: name, Help: help, Labels: labels, Value: v})
}

// add appends every series of a registry snapshot, each labelled with
// prefix ahead of its own labels.
func (e *expo) add(reg obs.Snapshot, prefix []obs.Label) {
	for _, c := range reg.Counters {
		c.Labels = with(prefix, c.Labels...)
		e.Counters = append(e.Counters, c)
	}
	for _, g := range reg.Gauges {
		g.Labels = with(prefix, g.Labels...)
		e.Gauges = append(e.Gauges, g)
	}
	for _, h := range reg.Histograms {
		h.Labels = with(prefix, h.Labels...)
		e.Histograms = append(e.Histograms, h)
	}
	for _, h := range reg.ValueHistograms {
		h.Labels = with(prefix, h.Labels...)
		e.ValueHistograms = append(e.ValueHistograms, h)
	}
}

// with returns labels followed by more, never writing into labels'
// backing array.
func with(labels []obs.Label, more ...obs.Label) []obs.Label {
	if len(labels) == 0 {
		return more
	}
	return append(labels[:len(labels):len(labels)], more...)
}

func kv(k, v string) obs.Label { return obs.Label{Key: k, Value: v} }

// agentMetrics builds one agent's exposition from its stats snapshot and
// its registry (the server manager's tick-phase and slack histograms).
// Every series carries the agent and its LC app as its first labels.
func agentMetrics(s StatsResponse, reg obs.Snapshot) obs.Snapshot {
	var e expo
	host := []obs.Label{kv("agent", s.Agent), kv("lc", s.LC)}

	e.gauge("pocolo_up", "Whether the agent is serving (always 1 when scrapable).", 1, host...)
	e.gauge("pocolo_lc_offered_load_rps", "Offered load of the latency-critical primary, requests/s.", s.OfferedLoad, host...)
	e.gauge("pocolo_lc_slack_ratio", "Relative p99 latency slack of the primary; negative means SLO violation.", s.Slack, host...)
	e.gauge("pocolo_lc_p99_ms", "Observed p99 latency of the primary, milliseconds.", s.P99Ms, host...)
	e.gauge("pocolo_power_watts", "Latest power-meter reading, watts.", s.PowerW, host...)
	e.gauge("pocolo_power_cap_watts", "Power budget the capper enforces, watts.", s.CapW, host...)
	e.gauge("pocolo_be_throughput_ops", "Instantaneous best-effort throughput, ops/s.", s.BEThroughput, host...)
	if s.AssignedBE != "" {
		e.gauge("pocolo_be_assigned", "1 for the best-effort app currently placed on this server.", 1, with(host, kv("be", s.AssignedBE))...)
	}
	e.counter("pocolo_lc_ops_total", "Latency-critical requests served.", s.LCOps, host...)
	e.counter("pocolo_be_ops_total", "Best-effort operations completed.", s.BEOps, host...)
	for _, be := range sortedKeys(s.BEOpsBy) {
		e.counter("pocolo_be_ops_by_total", "Best-effort operations completed, by app.", s.BEOpsBy[be], with(host, kv("be", be))...)
	}
	e.counter("pocolo_control_ticks_total", "Server-manager control loop iterations.", float64(s.ControlTicks), host...)
	e.counter("pocolo_cap_throttles_total", "Power-capper throttle actions.", float64(s.CapThrottles), host...)
	e.counter("pocolo_cap_restores_total", "Power-capper restore actions.", float64(s.CapRestores), host...)
	e.counter("pocolo_be_throttles_total", "Capper interventions that actually moved a best-effort frequency or duty knob down.", float64(s.BEThrottles), host...)
	e.counter("pocolo_be_restores_total", "Capper interventions that actually moved a best-effort frequency or duty knob up.", float64(s.BERestores), host...)
	e.counter("pocolo_planner_hits_total", "Allocation lookups served by the precomputed planner (cold cells).", float64(s.PlannerHits), host...)
	e.counter("pocolo_planner_warm_total", "Allocation lookups served by warm-start cell reuse.", float64(s.PlannerWarm), host...)
	e.counter("pocolo_planner_fallbacks_total", "Allocation lookups that fell back to the exact grid search.", float64(s.PlannerFallbacks), host...)
	mode := "exact"
	if s.PlannerOn {
		mode = "planner"
	}
	e.gauge("pocolo_planner_mode", "Info metric: 1 for the allocation path the manager is configured with.", 1, with(host, kv("mode", mode))...)
	e.counter("pocolo_sim_seconds_total", "Simulated seconds advanced by the agent.", s.SimSec, host...)

	e.add(reg, host)
	return e.Snapshot
}

// controllerMetrics builds the controller's exposition from its status,
// its streaming-ingest counters, and its registry. The stream families
// appear only once a heartbeat frame has arrived, so a polling
// controller exposes none of them; the budget families appear only with
// a budget tree.
func controllerMetrics(st Status, s StreamStats, reg obs.Snapshot) obs.Snapshot {
	var e expo

	alive := 0
	for _, a := range st.Agents {
		if a.Alive {
			alive++
		}
	}
	e.gauge("pocolo_controller_agents", "Configured agents by liveness.", float64(alive), kv("state", "alive"))
	e.gauge("pocolo_controller_agents", "Configured agents by liveness.", float64(len(st.Agents)-alive), kv("state", "dead"))
	for _, a := range st.Agents {
		e.gauge("pocolo_controller_agent_up", "Per-agent liveness as seen by the controller.", boolValue(a.Alive), kv("agent", a.Name), kv("url", a.URL))
	}
	e.gauge("pocolo_controller_degraded", "1 while serving the last-known-good placement instead of a fresh solve.", boolValue(st.Degraded))
	for _, be := range sortedKeys(st.Placement) {
		e.gauge("pocolo_controller_placement", "Current placement: best-effort app to agent.", 1, kv("be", be), kv("agent", st.Placement[be]))
	}
	e.gauge("pocolo_controller_unplaced_be", "Best-effort apps with no server to run on.", float64(len(st.Unplaced)))
	e.counter("pocolo_controller_rounds_total", "Heartbeat rounds completed.", float64(st.Rounds))
	e.counter("pocolo_controller_solves_total", "Placement re-solves performed.", float64(st.Solves))
	e.counter("pocolo_controller_deaths_total", "Agents declared dead.", float64(st.Deaths))
	e.counter("pocolo_controller_rejoins_total", "Dead agents that came back.", float64(st.Rejoins))

	if s.Frames != 0 || s.Rejects != 0 {
		e.counter("pocolo_controller_heartbeat_frames_total", "Heartbeat frames ingested, by frame type.", float64(s.Fulls), kv("type", "full"))
		e.counter("pocolo_controller_heartbeat_frames_total", "Heartbeat frames ingested, by frame type.", float64(s.Deltas), kv("type", "delta"))
		e.counter("pocolo_controller_heartbeat_stale_total", "Duplicate or reordered frames ignored.", float64(s.Stale))
		e.counter("pocolo_controller_heartbeat_resyncs_total", "Frames answered with a resync demand.", float64(s.Resyncs))
		e.counter("pocolo_controller_heartbeat_rejects_total", "Malformed frames rejected.", float64(s.Rejects))
		e.counter("pocolo_controller_heartbeat_bytes_total", "Heartbeat wire bytes ingested.", float64(s.Bytes))
	}

	if b := st.Budget; b != nil {
		for _, n := range sortedKeys(b.NodeBudgets) {
			e.gauge("pocolo_budget_node_watts", "Current power budget of each tree node, watts.", b.NodeBudgets[n], kv("node", n))
		}
		for _, n := range sortedKeys(b.Shares) {
			e.gauge("pocolo_budget_share_watts", "Per-agent power cap desired by the last rebalance, watts.", b.Shares[n], kv("agent", n))
		}
		e.counter("pocolo_budget_rebalances_total", "Budget divisions installed across the fleet.", float64(b.Rebalances))
		e.counter("pocolo_budget_brownouts_total", "Runtime budget cuts applied to the tree.", float64(b.Brownouts))
	}

	e.add(reg, nil)
	return e.Snapshot
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
