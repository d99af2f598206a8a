package trace

import (
	"strconv"
	"sync"
)

// Set is a family of per-host tracers sharing one capacity. Parallel
// cluster sweeps hand each simulated host its own child tracer (so hosts
// never contend on one ring and per-host event order is independent of
// goroutine scheduling), then merge the rings into one deterministic
// timeline with Events. All methods are no-ops on a nil receiver.
type Set struct {
	capacity int

	mu       sync.Mutex
	children map[string]*Tracer
	runs     map[string]int // Label calls per kind
}

// NewSet builds a tracer set whose children each hold capacity events
// (<= 0 selects DefaultEvents).
func NewSet(capacity int) *Set {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &Set{capacity: capacity, children: make(map[string]*Tracer), runs: make(map[string]int)}
}

// Label returns a key prefix for one run of kind that no earlier Label
// call on the set returned: "kind/" the first time, then "kind#2/",
// "kind#3/", and so on. Runs that key their tracers under it each record
// their own timelines, so repeating a run on one set still merges into
// a valid timeline. Returns "" on a nil set.
func (s *Set) Label(kind string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs[kind]++
	if n := s.runs[kind]; n > 1 {
		return kind + "#" + strconv.Itoa(n) + "/"
	}
	return kind + "/"
}

// Tracer returns the child tracer for key, creating it on first use.
// The key becomes the Host label on the child's events, so callers must
// pick keys unique across the run (e.g. "trial3/memcached"). Returns nil
// on a nil set.
func (s *Set) Tracer(key string) *Tracer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.children[key]
	if t == nil {
		t = New(key, s.capacity)
		// Set traces are deterministic simulation artifacts: exports use
		// the canonical wall-free form (skip the per-event clock read) and
		// fine-grained 10 Hz spans would dominate sweep cost while timing
		// only the simulator's own compute (skip those too — decision
		// events are unaffected).
		t.noWall = true
		t.coarse = true
		s.children[key] = t
	}
	return t
}

// Events merges every child's retained events into one timeline sorted
// by (time, host, sequence). The result is deterministic for seeded runs
// regardless of how many goroutines produced the events.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	children := make([]*Tracer, 0, len(s.children))
	for _, t := range s.children {
		children = append(children, t)
	}
	s.mu.Unlock()
	var out []Event
	for _, t := range children {
		out = append(out, t.Events()...)
	}
	SortEvents(out)
	return out
}

// Dropped sums ring overwrites across all children.
func (s *Set) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	children := make([]*Tracer, 0, len(s.children))
	for _, t := range s.children {
		children = append(children, t)
	}
	s.mu.Unlock()
	var total uint64
	for _, t := range children {
		total += t.Dropped()
	}
	return total
}
