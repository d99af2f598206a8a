// Package obs is the cluster-wide observability core: a zero-allocation
// metrics substrate (counters, gauges, log-linear latency histograms,
// fixed-bound value histograms) designed for the control plane's hot
// paths, and the one Prometheus writer every /metrics endpoint renders
// through. Where package trace answers "why did the controller do that",
// obs answers "is the fleet healthy" — round latency percentiles,
// heartbeat staleness watermarks, budget headroom, SLO burn rates.
//
// The write path is lock-free and allocation-free: counters and duration
// histograms stripe their state across cache-line-padded shards and pick
// a shard from a hash of the calling goroutine's stack address, so
// concurrent writers on different goroutines land on different cache
// lines with no pinning and no mutex. Reads are snapshot-on-read: a Snapshot sums the shards into
// plain values, and snapshots with identical bucket layouts merge, which
// is how pocolo-top folds many agents' histograms into one fleet view.
//
// Every method is a no-op on a nil receiver, mirroring package trace: a
// caller holds a possibly-nil handle and calls it unconditionally, so the
// disabled path costs one branch and zero allocations.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// nShards is the stripe width shared by every metric: the smallest power
// of two covering GOMAXPROCS at package init, clamped to [1, 16]. Sixteen
// padded shards are enough to keep atomic adds from bouncing one cache
// line between cores while bounding per-histogram memory.
var nShards = func() uint32 {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	s := uint32(1)
	for int(s) < n {
		s <<= 1
	}
	return s
}()

var shardMask = nShards - 1

// shardIndex picks a stripe for the calling goroutine. Goroutine stacks
// live at distinct addresses, so hashing the address of a local variable
// spreads goroutines across shards without runtime pinning; the
// multiplicative mix pushes stack-allocation granularity out of the low
// bits. Collisions only cost a shared cache line, never correctness —
// every shard write is atomic.
func shardIndex() uint32 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)) >> 3)
	h *= 0x9E3779B97F4A7C15
	return uint32(h>>32) & shardMask
}

// cell is one cache-line-padded shard of a counter. 64-byte alignment
// keeps two cores incrementing adjacent shards from false sharing.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Label is one metric label pair.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	shards []cell
}

// Add accrues n. Negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Inc accrues one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.shards[shardIndex()].v.Add(1)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a last-write-wins float64. Sets don't shard (there is no sum
// to stripe); a single atomic word is already contention-free for the
// set-from-one-loop pattern gauges serve.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value loads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one registered metric instance: a family name plus a fixed
// label set, with the concrete metric hanging off exactly one pointer.
type series struct {
	labels []Label
	sig    string // rendered label signature, the dedup + sort key
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	vhist  *ValueHistogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   string // "counter" | "gauge" | "histogram" | "value histogram"
	series []*series
}

// Registry holds registered metrics and renders deterministic snapshots.
// Registration takes a mutex and allocates; the returned handles are
// what hot paths hold. A nil Registry returns nil handles, so wiring obs
// through a subsystem costs nothing when observability is off.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig renders a sorted, unambiguous signature for a label set.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := ""
	for _, l := range ls {
		sig += l.Key + "\x00" + l.Value + "\x00"
	}
	return sig
}

// register finds or creates the series for (name, labels), enforcing one
// kind per family. It returns the series and whether it was just created.
func (r *Registry) register(name, help, kind string, labels []Label) (*series, bool) {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		sort.Strings(r.order)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	sig := labelSig(labels)
	for _, s := range f.series {
		if s.sig == sig {
			return s, false
		}
	}
	s := &series{labels: append([]Label(nil), labels...), sig: sig}
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	return s, true
}

// Counter returns the counter for (name, labels), creating it on first
// use. Counter family names must end in _total (the Prometheus counter
// convention the exposition linter enforces). Nil registries return nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, "counter", labels)
	if s.ctr == nil {
		s.ctr = &Counter{shards: make([]cell, nShards)}
	}
	return s.ctr
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. All obs histograms share the log-linear duration layout, so
// any two snapshots of any two histograms merge.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, "histogram", labels)
	if s.hist == nil {
		s.hist = newHistogram()
	}
	return s.hist
}

// ValueHistogram returns the value histogram for (name, labels), creating
// it over bounds on first use; later calls return the existing series and
// ignore bounds. A value histogram family cannot share its name with a
// duration histogram family.
func (r *Registry) ValueHistogram(name, help string, bounds []float64, labels ...Label) *ValueHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, "value histogram", labels)
	if s.vhist == nil {
		s.vhist = newValueHistogram(bounds)
	}
	return s.vhist
}

// CounterSnapshot is one counter series at read time. Value is a float so
// that exposition-only counters of fractional quantities (operations
// served, simulated seconds) render untruncated; registry counters are
// whole numbers and marshal exactly as integers do.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// GaugeSnapshot is one gauge series at read time.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot is a full registry read: plain values, deterministically
// ordered (families sorted by name, series by label signature), safe to
// marshal, diff, and merge across processes.
type Snapshot struct {
	Counters        []CounterSnapshot        `json:"counters,omitempty"`
	Gauges          []GaugeSnapshot          `json:"gauges,omitempty"`
	Histograms      []HistogramSnapshot      `json:"histograms,omitempty"`
	ValueHistograms []ValueHistogramSnapshot `json:"value_histograms,omitempty"`
}

// Snapshot sums every metric's shards into a point-in-time view. Nil
// registries snapshot empty.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		for _, s := range f.series {
			switch {
			case s.ctr != nil:
				snap.Counters = append(snap.Counters, CounterSnapshot{
					Name: f.name, Help: f.help, Labels: s.labels, Value: float64(s.ctr.Value()),
				})
			case s.gauge != nil:
				snap.Gauges = append(snap.Gauges, GaugeSnapshot{
					Name: f.name, Help: f.help, Labels: s.labels, Value: s.gauge.Value(),
				})
			case s.hist != nil:
				hs := s.hist.Snapshot()
				hs.Name, hs.Help, hs.Labels = f.name, f.help, s.labels
				snap.Histograms = append(snap.Histograms, hs)
			case s.vhist != nil:
				vs := s.vhist.Snapshot()
				vs.Name, vs.Help, vs.Labels = f.name, f.help, s.labels
				snap.ValueHistograms = append(snap.ValueHistograms, vs)
			}
		}
	}
	return snap
}
