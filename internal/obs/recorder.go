package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"pocolo/internal/trace"
)

// FlightRecorder captures post-hoc diagnostics bundles when something
// goes wrong — a round blowing its deadline, an invariant firing. Each
// trigger atomically writes one timestamped directory holding the recent
// trace-ring events (canonical wall-free JSONL, so seeded runs produce
// byte-identical event logs), an obs snapshot, per-pod counters, and
// goroutine + heap profiles. Triggers are rate-limited on the caller's
// clock (simulated time in deterministic runs) so a sustained breach
// produces one bundle a minute, not one per round.
type FlightRecorder struct {
	dir string

	mu       sync.Mutex
	last     time.Time
	hasLast  bool
	taken    int
	throttle int
}

// The recorder's limits: at most one bundle per minute of caller clock,
// and at most 16 bundles per recorder lifetime.
const (
	bundleInterval = time.Minute
	maxBundles     = 16
)

// NewRecorder builds a flight recorder that writes bundles under dir,
// created on demand. An empty dir yields nil — the no-op recorder — so
// callers wire it unconditionally.
func NewRecorder(dir string) *FlightRecorder {
	if dir == "" {
		return nil
	}
	return &FlightRecorder{dir: dir}
}

// Bundle is the diagnostics payload of one trigger.
type Bundle struct {
	// Reason says what fired ("round-deadline", "invariant", ...).
	Reason string
	// Now is the caller's clock — simulated time in deterministic runs —
	// used for rate limiting and the bundle directory name.
	Now time.Time
	// Events is the recent trace-ring content, written as canonical
	// (wall-free) JSONL so seeded replays produce identical logs.
	Events []trace.Event
	// Obs is the metrics snapshot at trigger time.
	Obs Snapshot
	// Pods carries per-pod dirty/delta/staleness counters (any
	// JSON-marshalable shape; nil omits pods.json).
	Pods any
	// Detail is free-form trigger context stored in meta.json
	// (measured latency, deadline, round index, ...).
	Detail map[string]any
}

// BundleMeta is the meta.json schema. WallNS is the only
// nondeterministic field and lives here, outside the event log.
type BundleMeta struct {
	Reason string         `json:"reason"`
	TNS    int64          `json:"t_ns"`
	WallNS int64          `json:"wall_ns"`
	Seq    int            `json:"seq"`
	Events int            `json:"events"`
	Detail map[string]any `json:"detail,omitempty"`
}

// Trigger writes one bundle unless rate-limited. It returns the bundle
// directory ("" when skipped) and whether a bundle was taken. Write
// errors surface to the caller; a partially written bundle directory is
// removed so pocolo-trace -bundle never sees a torn one.
func (r *FlightRecorder) Trigger(b Bundle) (dir string, taken bool, err error) {
	if r == nil {
		return "", false, nil
	}
	r.mu.Lock()
	if r.taken >= maxBundles || (r.hasLast && b.Now.Sub(r.last) < bundleInterval) {
		r.throttle++
		r.mu.Unlock()
		return "", false, nil
	}
	r.taken++
	seq := r.taken
	r.last = b.Now
	r.hasLast = true
	r.mu.Unlock()

	// Directory names come from the caller clock + trigger sequence, so
	// seeded runs produce identical bundle paths.
	dir = filepath.Join(r.dir, fmt.Sprintf("bundle-%04d-t%d", seq, b.Now.UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, err
	}
	if err := writeBundle(dir, seq, b); err != nil {
		os.RemoveAll(dir)
		return "", false, err
	}
	return dir, true, nil
}

// Throttled reports how many triggers the rate limit or bundle cap
// suppressed.
func (r *FlightRecorder) Throttled() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.throttle
}

// Taken reports how many bundles were written.
func (r *FlightRecorder) Taken() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.taken
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBundle(dir string, seq int, b Bundle) error {
	f, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, b.Events, false); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if err := writeJSONFile(filepath.Join(dir, "obs.json"), b.Obs); err != nil {
		return err
	}
	if b.Pods != nil {
		if err := writeJSONFile(filepath.Join(dir, "pods.json"), b.Pods); err != nil {
			return err
		}
	}
	meta := BundleMeta{
		Reason: b.Reason,
		TNS:    b.Now.UnixNano(),
		WallNS: time.Now().UnixNano(),
		Seq:    seq,
		Events: len(b.Events),
		Detail: b.Detail,
	}
	if err := writeJSONFile(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}

	g, err := os.Create(filepath.Join(dir, "goroutine.txt"))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(g, 1); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	h, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(h); err != nil {
		h.Close()
		return err
	}
	return h.Close()
}
