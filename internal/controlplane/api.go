// Package controlplane networks the paper's two-level design: a per-server
// agent wraps one servermgr.Manager behind an HTTP/JSON API, and a cluster
// controller discovers agents from static configuration and hears from
// them every heartbeat, either by polling GET /v1/stats or by ingesting
// the binary delta heartbeats they push to POST /v1/heartbeat. Both
// transports feed one liveness fold. From the reported stats the
// controller keeps the BE×LC placement solved on a warm, pod-sharded
// assignment engine (internal/cluster). It is failure-aware — per-request
// timeouts, a retry budget, capped exponential probe backoff,
// dead-after-K-misses detection — and migrates a dead server's best-effort
// work to the survivors, degrading to the last-known-good placement when
// a solve fails or a majority of agents are unreachable.
//
// Wire types live in this file. All endpoints speak JSON except GET
// /metrics, which emits Prometheus text exposition format (version
// 0.0.4), and POST /v1/heartbeat, whose request is a binary frame
// (codec.go).
package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pocolo/internal/machine"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
)

// API routes served by an agent.
const (
	// RouteAssign (POST) places or evicts a best-effort app.
	RouteAssign = "/v1/assign"
	// RouteStats (GET) reports the agent's full state snapshot.
	RouteStats = "/v1/stats"
	// RouteHealthz (GET) is the liveness probe.
	RouteHealthz = "/v1/healthz"
	// RouteMetrics (GET) is the Prometheus text exposition.
	RouteMetrics = "/metrics"
	// RouteTrace (GET) pages through the agent's decision-trace ring with
	// ?since=SEQ&limit=N cursor pagination.
	RouteTrace = "/v1/trace"
	// RouteCap (POST) installs a cluster-budget power cap on the agent's
	// server manager.
	RouteCap = "/v1/cap"
	// RouteHeartbeat (POST) is served by the controller under the
	// streaming transport: agents push binary delta heartbeat frames
	// (codec.go) and receive a JSON HeartbeatAck.
	RouteHeartbeat = "/v1/heartbeat"
	// RouteTop (GET, controller) is the per-pod fleet rollup pocolo-top
	// renders: solve quantiles, staleness watermarks, budget headroom,
	// and SLO burn.
	RouteTop = "/v1/top"
)

// AssignRequest asks an agent to run a best-effort app (or, with an empty
// BE, to evict whatever is running and park the best-effort partition).
type AssignRequest struct {
	BE string `json:"be"`
}

// AssignResponse acknowledges an assignment change.
type AssignResponse struct {
	Agent      string `json:"agent"`
	AssignedBE string `json:"assigned_be"`
}

// CapRequest asks an agent to enforce a power cap (a budget reallocator
// assigning this server its share of a datacenter budget). Zero clears
// the override, returning the capper to the host's provisioned capacity.
type CapRequest struct {
	CapW float64 `json:"cap_w"`
}

// CapResponse acknowledges a cap change with the cap now enforced.
type CapResponse struct {
	Agent string  `json:"agent"`
	CapW  float64 `json:"cap_w"`
}

// HealthResponse is the liveness probe body.
type HealthResponse struct {
	OK        bool    `json:"ok"`
	Agent     string  `json:"agent"`
	SimSec    float64 `json:"sim_seconds"`
	Ticks     uint64  `json:"ticks"`
	UptimeSec float64 `json:"uptime_seconds"`
}

// StatsResponse is an agent's full state snapshot. It carries everything
// the controller needs to rebuild its performance matrix — the host's
// machine configuration, the LC application's operating envelope, and the
// fitted utility models — so the controller needs no application catalog
// of its own.
type StatsResponse struct {
	Agent   string         `json:"agent"`
	Machine machine.Config `json:"machine"`

	// LC application identity and envelope.
	LC                string  `json:"lc"`
	PeakLoad          float64 `json:"peak_load"`
	ProvisionedPowerW float64 `json:"provisioned_power_w"`

	// Live operating point.
	OfferedLoad  float64 `json:"offered_load_rps"`
	Slack        float64 `json:"slack"`
	P99Ms        float64 `json:"p99_ms"`
	PowerW       float64 `json:"power_w"`
	CapW         float64 `json:"cap_w"`
	BEThroughput float64 `json:"be_throughput_ops"`

	// Assignment state.
	AssignedBE   string   `json:"assigned_be"`
	BECandidates []string `json:"be_candidates"`

	// Cumulative counters.
	LCOps        float64            `json:"lc_ops_total"`
	BEOps        float64            `json:"be_ops_total"`
	BEOpsBy      map[string]float64 `json:"be_ops_by"`
	ControlTicks int                `json:"control_ticks"`
	CapThrottles int                `json:"cap_throttles"`
	CapRestores  int                `json:"cap_restores"`
	// Planner counters: how the manager's allocation lookups were served
	// (precomputed-plan lookups, warm-start cell reuses, exact-search
	// fallbacks). Hits+Warm+Fallbacks ≈ control ticks with load.
	PlannerHits      int `json:"planner_hits"`
	PlannerWarm      int `json:"planner_warm"`
	PlannerFallbacks int `json:"planner_fallbacks"`
	// Knob-movement counters: best-effort throttle/restore actions that
	// actually moved a frequency or duty-cycle knob (a capper intervention
	// with every knob already at its floor counts in CapThrottles but not
	// here).
	BEThrottles int `json:"be_throttles"`
	BERestores  int `json:"be_restores"`
	// PlannerOn reports whether allocation lookups go through the
	// precomputed planner (false = exact per-tick grid search).
	PlannerOn bool    `json:"planner_on"`
	SimSec    float64 `json:"sim_seconds"`

	// Fitted models, for the controller's matrix rebuild.
	LCModel  *utility.Model            `json:"lc_model,omitempty"`
	BEModels map[string]*utility.Model `json:"be_models,omitempty"`
}

// TraceResponse is one page of an agent's (or the controller's) decision
// trace. Next is the cursor to pass as ?since= for the following page; it
// only advances past events actually returned, so a client polling at its
// own pace never skips an event that is still in the ring. Dropped counts
// ring overwrites since startup — a gap the client can report.
type TraceResponse struct {
	Agent   string        `json:"agent"`
	Events  []trace.Event `json:"events"`
	Next    uint64        `json:"next"`
	Dropped uint64        `json:"dropped"`
}

// errorResponse is the JSON body of a non-2xx agent reply.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}
