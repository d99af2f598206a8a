package trace

import (
	"sort"
	"sync"
	"time"
)

// DefaultEvents is the default ring capacity. At one control decision,
// one span, and a handful of cap actions per simulated second, 4096
// events retain on the order of 20 minutes of decisions per host.
const DefaultEvents = 4096

// Tracer records structured events into a bounded ring. It holds events
// only: tick-phase durations and the LC slack distribution are metrics,
// recorded in package obs. The ring grows geometrically up to its
// capacity rather than being preallocated — an Event is ~300
// bytes, and runs that fan out into many short-lived child tracers (one
// per host per trial) would otherwise pay megabytes of zeroed ring per
// child. All methods are safe for concurrent use and are no-ops on a nil
// receiver: code under test holds a possibly-nil *Tracer and calls it
// unconditionally, paying only a nil check when tracing is disabled.
type Tracer struct {
	host string

	// noWall skips the wall-clock stamp on every record. Set children run
	// inside deterministic simulations whose exports always use the
	// canonical (wall-free) form, so the per-event time.Now() would be
	// pure overhead there; standalone tracers on live agents keep it.
	noWall bool
	// coarse drops the fine-grained (per-cap-tick, 10 Hz) spans, keeping
	// only the 1 Hz-and-slower phases. Batch simulations sweep hundreds of
	// host-seconds per wall millisecond, so a 10 Hz span per simulated
	// host dominates tracing cost there while timing nothing but the
	// simulator's own compute; live agents keep every span. Decision
	// events (CapAction etc.) are never dropped.
	coarse bool

	mu       sync.Mutex
	ring     []Event
	capacity int
	head, n  int
	seq      uint64
	dropped  uint64
}

// ringSeed is the initial ring allocation; the ring doubles from here up
// to the tracer's capacity as events arrive.
const ringSeed = 64

// New builds a tracer whose events carry the given host label.
// capacity <= 0 selects DefaultEvents.
func New(host string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	seed := ringSeed
	if seed > capacity {
		seed = capacity
	}
	return &Tracer{
		host:     host,
		ring:     make([]Event, seed),
		capacity: capacity,
	}
}

// Host returns the tracer's host label ("" for nil).
func (t *Tracer) Host() string {
	if t == nil {
		return ""
	}
	return t.host
}

// record stamps and stores one event. The ring overwrites the oldest
// event when full; Dropped counts the overwrites.
func (t *Tracer) record(now time.Time, ev Event) {
	if t == nil {
		return
	}
	ev.TNS = now.UnixNano()
	if !t.noWall {
		ev.WallNS = time.Now().UnixNano()
	}
	ev.Host = t.host
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	if t.n == len(t.ring) && len(t.ring) < t.capacity {
		// Double up to capacity. The ring has never wrapped while it is
		// below capacity (head stays 0 until the first overwrite), so the
		// retained events copy over in place.
		grown := 2 * len(t.ring)
		if grown > t.capacity {
			grown = t.capacity
		}
		next := make([]Event, grown)
		copy(next, t.ring)
		t.ring = next
	}
	if t.n < len(t.ring) {
		t.ring[(t.head+t.n)%len(t.ring)] = ev
		t.n++
	} else {
		t.ring[t.head] = ev
		t.head = (t.head + 1) % len(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// ControlDecision records one control-loop decision.
func (t *Tracer) ControlDecision(now time.Time, d ControlDecision) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindControl, Control: d})
}

// CapAction records one capper intervention.
func (t *Tracer) CapAction(now time.Time, a CapAction) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindCap, Cap: a})
}

// Placement records a best-effort app landing on a node.
func (t *Tracer) Placement(now time.Time, p Placement) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindPlacement, Place: p})
}

// Migration records a best-effort app moving between nodes.
func (t *Tracer) Migration(now time.Time, p Placement) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindMigration, Place: p})
}

// Degradation records a fallback to the last-known-good placement.
func (t *Tracer) Degradation(now time.Time, reason string) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindDegradation, Place: Placement{Reason: reason}})
}

// SolveSummary records one assignment solve.
func (t *Tracer) SolveSummary(now time.Time, s SolveSummary) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindSolve, Solve: s})
}

// BudgetShift records a budget reallocator moving one node's power
// allocation.
func (t *Tracer) BudgetShift(now time.Time, c BudgetChange) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindBudgetShift, Budget: c})
}

// BudgetCut records a runtime budget mutation on a tree node.
func (t *Tracer) BudgetCut(now time.Time, c BudgetChange) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindBudgetCut, Budget: c})
}

// Heartbeat records one round's batched heartbeat-ingest summary.
func (t *Tracer) Heartbeat(now time.Time, h HeartbeatSummary) {
	if t == nil {
		return
	}
	t.record(now, Event{Kind: KindHeartbeat, Heartbeat: h})
}

// Span is an in-flight timed phase. The zero Span (from a nil tracer) is
// valid and End on it is a no-op, so callers never branch.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// StartSpan begins timing a phase. On a nil tracer it returns the zero
// Span without reading the clock.
func (t *Tracer) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// StartFineSpan begins timing a fine-grained (sub-second cadence) phase
// such as the 10 Hz capper tick. On a coarse tracer (a Set child) it
// returns the zero Span without reading the clock, so batch simulations
// skip the per-tick timing cost; live tracers treat it as StartSpan.
func (t *Tracer) StartFineSpan(name string) Span {
	if t == nil || t.coarse {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End stops the span and records a span event at the given (simulated or
// controller) time.
func (s Span) End(now time.Time) {
	if s.t == nil {
		return
	}
	s.t.record(now, Event{Kind: KindSpan, Span: SpanInfo{Name: s.name, DurNS: int64(time.Since(s.start))}})
}

// Events returns a copy of the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(t.head+i)%len(t.ring)]
	}
	return out
}

// EventsSince returns up to limit retained events with Seq > since,
// oldest first, plus the cursor to pass as the next since. limit <= 0
// means no limit. This is the /v1/trace pagination primitive: next only
// advances past events actually returned, so a client polling with the
// returned cursor never misses a retained event.
func (t *Tracer) EventsSince(since uint64, limit int) (events []Event, next uint64) {
	if t == nil {
		return nil, since
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next = since
	for i := 0; i < t.n; i++ {
		ev := t.ring[(t.head+i)%len(t.ring)]
		if ev.Seq <= since {
			continue
		}
		if limit > 0 && len(events) >= limit {
			break
		}
		events = append(events, ev)
		next = ev.Seq
	}
	return events, next
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SortEvents orders events by (time, host, sequence) — the canonical
// cluster-timeline order. Per-host order is preserved because sequence
// numbers increase with time within one tracer, so merging the per-host
// rings of a parallel run yields a deterministic timeline.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.TNS != b.TNS {
			return a.TNS < b.TNS
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Seq < b.Seq
	})
}
