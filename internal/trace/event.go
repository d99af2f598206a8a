// Package trace is the decision-tracing subsystem: a low-overhead,
// ring-buffered structured event log, threaded through every decision
// site of the two control loops and the cluster layer. Where the
// Prometheus exposition answers "what is the state now", the trace
// answers "why did the controller do that at t=42s" — every control
// tick, capper intervention, placement, migration, degradation, solve,
// and timed phase (span) is recorded as a typed event on a per-host
// timeline that exports to JSONL and to the Chrome trace-event format
// (loadable in Perfetto or chrome://tracing). The package holds events
// only; phase-duration and slack histograms are metrics and live in
// package obs.
//
// The tracer is allocation-conscious: the ring grows geometrically to its
// capacity, recording copies a flat Event value under a mutex, and every
// method is a no-op on a nil *Tracer, so the disabled path costs a nil
// check and zero allocations. Simulated timestamps (t_ns) are deterministic for seeded
// runs; wall-clock fields (wall_ns, span dur_ns) are the only
// nondeterministic content and the canonical JSONL form omits them, which
// is what the deterministic-replay tests compare.
package trace

import (
	"fmt"
	"strconv"
)

// Kind enumerates the typed event payloads.
type Kind uint8

const (
	// KindControl is one server-manager control-loop decision (1 s loop).
	KindControl Kind = iota + 1
	// KindCap is one power-capper intervention (100 ms loop): a DVFS or
	// duty knob movement, or an over-cap tick with both knobs exhausted.
	KindCap
	// KindPlacement is one best-effort app placed on a node.
	KindPlacement
	// KindMigration is a placed best-effort app moving between nodes.
	KindMigration
	// KindDegradation is a controller falling back to its last-known-good
	// placement.
	KindDegradation
	// KindSolve summarizes one assignment solve over the BE×LC matrix.
	KindSolve
	// KindSpan is a timed phase (control_tick, cap_tick, build_matrix,
	// solve); its duration is wall-clock and therefore nondeterministic.
	KindSpan
	// KindBudgetShift is a hierarchical budget reallocator moving one
	// node's (usually a host's) power allocation.
	KindBudgetShift
	// KindBudgetCut is a runtime budget mutation on a tree node — a
	// brownout cutting the DC budget, or its later restore.
	KindBudgetCut
	// KindHeartbeat summarizes one round of streamed delta-heartbeat
	// ingest: how many frames arrived since the previous round, how they
	// decoded (full resyncs vs deltas vs stale duplicates), and how many
	// acks demanded a resync. Batched per round rather than per frame so
	// a 10k-agent round costs one ring slot, and so seeded streaming
	// campaigns stay byte-identical on replay.
	KindHeartbeat
)

var kindNames = [...]string{
	KindControl:     "control",
	KindCap:         "cap",
	KindPlacement:   "placement",
	KindMigration:   "migration",
	KindDegradation: "degradation",
	KindSolve:       "solve",
	KindSpan:        "span",
	KindBudgetShift: "budget-shift",
	KindBudgetCut:   "budget-cut",
	KindHeartbeat:   "heartbeat",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Allocation-search paths a control decision can be served by.
const (
	// PathPlannerHit is a precomputed-plan lookup landing in a cold cell.
	PathPlannerHit = "planner-hit"
	// PathPlannerWarm is a warm-start reuse of the previous tick's cell.
	PathPlannerWarm = "planner-warm"
	// PathExact is the exact per-tick grid search (planner off or plan
	// construction failed).
	PathExact = "exact"
	// PathFullMachine means no feasible allocation met the target and the
	// primary was granted the whole machine.
	PathFullMachine = "full-machine"
	// PathColdStart means no load was observed yet and the primary holds
	// the full machine until the first real observation.
	PathColdStart = "cold-start"
)

// Capper actions a CapAction event can carry.
const (
	// ActionThrottleFreq stepped the best-effort DVFS down.
	ActionThrottleFreq = "throttle-freq"
	// ActionThrottleDuty cut the best-effort duty cycle.
	ActionThrottleDuty = "throttle-duty"
	// ActionRestoreFreq stepped the best-effort DVFS back up.
	ActionRestoreFreq = "restore-freq"
	// ActionRestoreDuty grew the best-effort duty cycle back.
	ActionRestoreDuty = "restore-duty"
	// ActionExhausted means power is over the cap but both knobs are at
	// their floors — physics, not a controller bug.
	ActionExhausted = "exhausted"
)

// ControlDecision is the payload of one 1 s control-loop decision.
type ControlDecision struct {
	// Tick is the control tick index (1-based).
	Tick int
	// Load and Target are the observed offered load and the headroom-
	// inflated model target the allocation was sized for.
	Load   float64
	Target float64
	// SlackIn is the relative p99 slack observed entering the tick.
	SlackIn float64
	// Boost is the feedback integrator after this tick's correction.
	Boost int
	// Cores and Ways are the installed LC allocation (after boost).
	Cores int
	Ways  int
	// FreqGHz is the LC DVFS setting installed by the tick.
	FreqGHz float64
	// Path says how the allocation search was served (Path* constants).
	Path string
	// Feasible reports whether any allocation met the target.
	Feasible bool
}

// CapAction is the payload of one 100 ms capper intervention.
type CapAction struct {
	// PowerW is the power-meter reading the capper acted on.
	PowerW float64
	// CapW is the budget being enforced.
	CapW float64
	// Action says which knob moved (Action* constants).
	Action string
	// BEFreqGHz and BEDuty are the best-effort throttle state after the
	// action.
	BEFreqGHz float64
	BEDuty    float64
}

// Placement is the payload of placement, migration, and degradation
// events.
type Placement struct {
	// BE is the best-effort app (empty for degradation).
	BE string
	// Node is the destination (agent or LC server name).
	Node string
	// From is the origin node of a migration.
	From string
	// Reason carries the degradation reason (or context for placements).
	Reason string
}

// SolveSummary is the payload of one assignment solve.
type SolveSummary struct {
	// Method is the solver ("lp", "hungarian", "exhaustive",
	// "incremental", "sharded").
	Method string
	// Rows and Cols are the matrix dimensions (BE × LC).
	Rows int
	Cols int
	// Total is the solver's predicted total value.
	Total float64
	// Pod names the shard the solve belongs to; empty for whole-cluster
	// solves.
	Pod string
	// CellsComputed and CellsReused count delta-driven matrix
	// construction work for the solve: cells evaluated fresh vs. served
	// from the fingerprint memo. Both zero when construction was not
	// delta-driven.
	CellsComputed int
	CellsReused   int
	// BatchDirty, BatchRounds, and BatchAugments count batch re-solve
	// work since the previous summary: dirty lines handed to
	// ResolveBatch, auction bidding rounds, and multi-source augmenting
	// passes. All zero when every repair took the sequential per-line
	// path.
	BatchDirty    int
	BatchRounds   int
	BatchAugments int
}

// BudgetChange is the payload of budget-shift and budget-cut events: one
// node of the power-budget hierarchy moving from FromW to ToW watts. For
// shifts the node is the host whose installed cap moved; for cuts it is
// the tree node whose budget was mutated.
type BudgetChange struct {
	// Node names the budget-tree node (or host) that changed.
	Node string
	// FromW and ToW are the watts before and after the change. FromW is 0
	// for the first allocation a host receives.
	FromW float64
	ToW   float64
	// Reason carries the mutation context ("rebalance", "brownout", ...).
	Reason string
}

// HeartbeatSummary is the payload of one heartbeat-ingest round summary.
// Frames counts every frame offered to the decoder since the previous
// summary; Fulls, Deltas, and Stale partition the frames that decoded
// (full resync applies, incremental delta applies, and ignored
// duplicates); Resyncs counts acks that demanded a full-frame resync;
// Rejects counts frames refused outright: malformed, or past a batch's
// size limit. Bytes is the total encoded frame volume.
type HeartbeatSummary struct {
	Frames  int
	Fulls   int
	Deltas  int
	Stale   int
	Resyncs int
	Rejects int
	Bytes   int64
}

// SpanInfo is the payload of a timed phase.
type SpanInfo struct {
	// Name is the phase ("control_tick", "cap_tick", "build_matrix",
	// "solve").
	Name string
	// DurNS is the wall-clock phase duration in nanoseconds. It is the
	// one nondeterministic payload field; the canonical JSONL form omits
	// it.
	DurNS int64
}

// Event is one structured trace record. The payload fields are a union:
// only the struct selected by Kind is meaningful. Events are flat values
// so recording one is a copy into a preallocated ring slot, never an
// allocation.
type Event struct {
	// Seq is the per-tracer sequence number (1-based, strictly
	// increasing) — the since-cursor for /v1/trace pagination.
	Seq uint64
	// TNS is the event time in nanoseconds since the Unix epoch. Engine-
	// driven events use simulated time (the engine epoch is Unix(0,0), so
	// TNS is elapsed simulated nanoseconds); controller events use the
	// controller's clock.
	TNS int64
	// WallNS is the wall-clock record time; nondeterministic, omitted
	// from the canonical JSONL form.
	WallNS int64
	// Kind selects the payload.
	Kind Kind
	// Host is the timeline the event belongs to (tracer identity).
	Host string

	Control   ControlDecision
	Cap       CapAction
	Place     Placement
	Solve     SolveSummary
	Span      SpanInfo
	Budget    BudgetChange
	Heartbeat HeartbeatSummary
}

// appendJSON appends the event's JSON object. includeWall selects the
// full wire form (wall_ns and span dur_ns present); the canonical form
// omits both so seeded runs are byte-identical.
func (e *Event) appendJSON(b []byte, includeWall bool) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, e.TNS, 10)
	if includeWall && e.WallNS != 0 {
		b = append(b, `,"wall_ns":`...)
		b = strconv.AppendInt(b, e.WallNS, 10)
	}
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, e.Kind.String())
	if e.Host != "" {
		b = append(b, `,"host":`...)
		b = strconv.AppendQuote(b, e.Host)
	}
	switch e.Kind {
	case KindControl:
		c := &e.Control
		b = appendIntField(b, "tick", int64(c.Tick))
		b = appendFloatField(b, "load", c.Load)
		b = appendFloatField(b, "target", c.Target)
		b = appendFloatField(b, "slack_in", c.SlackIn)
		b = appendIntField(b, "boost", int64(c.Boost))
		b = appendIntField(b, "cores", int64(c.Cores))
		b = appendIntField(b, "ways", int64(c.Ways))
		b = appendFloatField(b, "freq_ghz", c.FreqGHz)
		b = appendStringField(b, "path", c.Path)
		b = append(b, `,"feasible":`...)
		b = strconv.AppendBool(b, c.Feasible)
	case KindCap:
		c := &e.Cap
		b = appendFloatField(b, "power_w", c.PowerW)
		b = appendFloatField(b, "cap_w", c.CapW)
		b = appendStringField(b, "action", c.Action)
		b = appendFloatField(b, "be_freq_ghz", c.BEFreqGHz)
		b = appendFloatField(b, "be_duty", c.BEDuty)
	case KindPlacement, KindMigration, KindDegradation:
		p := &e.Place
		b = appendStringField(b, "be", p.BE)
		b = appendStringField(b, "node", p.Node)
		b = appendStringField(b, "from", p.From)
		b = appendStringField(b, "reason", p.Reason)
	case KindSolve:
		s := &e.Solve
		b = appendStringField(b, "method", s.Method)
		b = appendIntField(b, "rows", int64(s.Rows))
		b = appendIntField(b, "cols", int64(s.Cols))
		b = appendFloatField(b, "total", s.Total)
		// Pod and cell counters are emitted only when set, keeping the
		// canonical form of pre-sharding events byte-identical.
		if s.Pod != "" {
			b = appendStringField(b, "pod", s.Pod)
		}
		if s.CellsComputed != 0 || s.CellsReused != 0 {
			b = appendIntField(b, "cells_computed", int64(s.CellsComputed))
			b = appendIntField(b, "cells_reused", int64(s.CellsReused))
		}
		if s.BatchDirty != 0 || s.BatchRounds != 0 || s.BatchAugments != 0 {
			b = appendIntField(b, "batch_dirty", int64(s.BatchDirty))
			b = appendIntField(b, "batch_rounds", int64(s.BatchRounds))
			b = appendIntField(b, "batch_augments", int64(s.BatchAugments))
		}
	case KindSpan:
		b = appendStringField(b, "name", e.Span.Name)
		if includeWall {
			b = appendIntField(b, "dur_ns", e.Span.DurNS)
		}
	case KindBudgetShift, KindBudgetCut:
		c := &e.Budget
		b = appendStringField(b, "node", c.Node)
		b = appendFloatField(b, "from_w", c.FromW)
		b = appendFloatField(b, "to_w", c.ToW)
		b = appendStringField(b, "reason", c.Reason)
	case KindHeartbeat:
		h := &e.Heartbeat
		b = appendIntField(b, "frames", int64(h.Frames))
		b = appendIntField(b, "fulls", int64(h.Fulls))
		b = appendIntField(b, "deltas", int64(h.Deltas))
		b = appendIntField(b, "stale", int64(h.Stale))
		b = appendIntField(b, "resyncs", int64(h.Resyncs))
		b = appendIntField(b, "rejects", int64(h.Rejects))
		b = appendIntField(b, "bytes", h.Bytes)
	}
	return append(b, '}')
}

func appendIntField(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendStringField(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, v)
}

// MarshalJSON implements json.Marshaler with the full wire form (wall
// clock included) — the form /v1/trace serves.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.appendJSON(nil, true), nil
}

// eventJSON is the flat decode target: the union of every kind's fields.
type eventJSON struct {
	Seq    uint64 `json:"seq"`
	TNS    int64  `json:"t_ns"`
	WallNS int64  `json:"wall_ns"`
	Kind   string `json:"kind"`
	Host   string `json:"host"`

	Tick     int     `json:"tick"`
	Load     float64 `json:"load"`
	Target   float64 `json:"target"`
	SlackIn  float64 `json:"slack_in"`
	Boost    int     `json:"boost"`
	Cores    int     `json:"cores"`
	Ways     int     `json:"ways"`
	FreqGHz  float64 `json:"freq_ghz"`
	Path     string  `json:"path"`
	Feasible bool    `json:"feasible"`

	PowerW    float64 `json:"power_w"`
	CapW      float64 `json:"cap_w"`
	Action    string  `json:"action"`
	BEFreqGHz float64 `json:"be_freq_ghz"`
	BEDuty    float64 `json:"be_duty"`

	BE     string `json:"be"`
	Node   string `json:"node"`
	From   string `json:"from"`
	Reason string `json:"reason"`

	Method        string  `json:"method"`
	Rows          int     `json:"rows"`
	Cols          int     `json:"cols"`
	Total         float64 `json:"total"`
	Pod           string  `json:"pod"`
	CellsComputed int     `json:"cells_computed"`
	CellsReused   int     `json:"cells_reused"`
	BatchDirty    int     `json:"batch_dirty"`
	BatchRounds   int     `json:"batch_rounds"`
	BatchAugments int     `json:"batch_augments"`

	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`

	FromW float64 `json:"from_w"`
	ToW   float64 `json:"to_w"`

	Frames  int   `json:"frames"`
	Fulls   int   `json:"fulls"`
	Deltas  int   `json:"deltas"`
	Stale   int   `json:"stale"`
	Resyncs int   `json:"resyncs"`
	Rejects int   `json:"rejects"`
	Bytes   int64 `json:"bytes"`
}

// event converts the flat decode form back to a typed Event.
func (j *eventJSON) event() (Event, error) {
	kind, err := ParseKind(j.Kind)
	if err != nil {
		return Event{}, err
	}
	ev := Event{Seq: j.Seq, TNS: j.TNS, WallNS: j.WallNS, Kind: kind, Host: j.Host}
	switch kind {
	case KindControl:
		ev.Control = ControlDecision{
			Tick: j.Tick, Load: j.Load, Target: j.Target, SlackIn: j.SlackIn,
			Boost: j.Boost, Cores: j.Cores, Ways: j.Ways, FreqGHz: j.FreqGHz,
			Path: j.Path, Feasible: j.Feasible,
		}
	case KindCap:
		ev.Cap = CapAction{
			PowerW: j.PowerW, CapW: j.CapW, Action: j.Action,
			BEFreqGHz: j.BEFreqGHz, BEDuty: j.BEDuty,
		}
	case KindPlacement, KindMigration, KindDegradation:
		ev.Place = Placement{BE: j.BE, Node: j.Node, From: j.From, Reason: j.Reason}
	case KindSolve:
		ev.Solve = SolveSummary{
			Method: j.Method, Rows: j.Rows, Cols: j.Cols, Total: j.Total,
			Pod: j.Pod, CellsComputed: j.CellsComputed, CellsReused: j.CellsReused,
			BatchDirty: j.BatchDirty, BatchRounds: j.BatchRounds, BatchAugments: j.BatchAugments,
		}
	case KindSpan:
		ev.Span = SpanInfo{Name: j.Name, DurNS: j.DurNS}
	case KindBudgetShift, KindBudgetCut:
		ev.Budget = BudgetChange{Node: j.Node, FromW: j.FromW, ToW: j.ToW, Reason: j.Reason}
	case KindHeartbeat:
		ev.Heartbeat = HeartbeatSummary{
			Frames: j.Frames, Fulls: j.Fulls, Deltas: j.Deltas, Stale: j.Stale,
			Resyncs: j.Resyncs, Rejects: j.Rejects, Bytes: j.Bytes,
		}
	}
	return ev, nil
}
