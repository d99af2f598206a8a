// Package telemetry provides the lightweight measurement plumbing the
// simulated cluster exports: append-only time series with time-weighted
// aggregation and monotonic counters. Private datacenters collect exactly
// this kind of per-application performance and power telemetry at fine
// granularity (the paper cites Dynamo and WSMeter); the experiments harness
// reads these series to regenerate the paper's figures, and the control
// plane's agents expose them over HTTP in Prometheus text format.
package telemetry

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one time-series observation.
type Point struct {
	Time  time.Time
	Value float64
}

// Series is an append-only time series. It is safe for concurrent use.
//
// A series is unbounded by default — the experiments harness reads the
// whole timeline back. Long-running producers (the control-plane agents)
// use NewBoundedSeries instead, which retains only the most recent
// observations in a fixed-size ring.
type Series struct {
	mu sync.Mutex
	// Unbounded mode (cap == 0): pts grows by append.
	// Bounded mode (cap > 0): pts is a ring of size cap; head indexes the
	// oldest retained point and n counts the points held.
	pts  []Point
	cap  int
	head int
	n    int
}

// NewSeries creates an unbounded series.
func NewSeries() *Series {
	return &Series{}
}

// NewBoundedSeries creates a series retaining only the most recent
// capacity observations (a ring buffer). A capacity below one falls back
// to an unbounded series.
func NewBoundedSeries(capacity int) *Series {
	if capacity < 1 {
		return NewSeries()
	}
	return &Series{cap: capacity}
}

// Reserve grows an unbounded series' backing array so at least n points
// can be appended without reallocating. Producers that know their run
// length (the evaluation harness appends one point per engine tick) call
// this once so the per-tick append path allocates nothing. No-op for
// bounded series and for capacities already reserved.
func (s *Series) Reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap > 0 || n <= cap(s.pts) {
		return
	}
	pts := make([]Point, len(s.pts), n)
	copy(pts, s.pts)
	s.pts = pts
}

// size returns the number of retained points. Callers must hold s.mu.
func (s *Series) size() int {
	if s.cap > 0 {
		return s.n
	}
	return len(s.pts)
}

// at returns the i-th oldest retained point. Callers must hold s.mu.
func (s *Series) at(i int) Point {
	if s.cap > 0 {
		return s.pts[(s.head+i)%s.cap]
	}
	return s.pts[i]
}

// Append adds an observation. Timestamps should be non-decreasing; callers
// appending out of order get an error and the point is dropped. A bounded
// series evicts its oldest point once full.
func (s *Series) Append(t time.Time, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.size(); n > 0 && t.Before(s.at(n-1).Time) {
		return errors.New("telemetry: out-of-order append")
	}
	if s.cap == 0 {
		s.pts = append(s.pts, Point{Time: t, Value: v})
		return nil
	}
	if s.pts == nil {
		s.pts = make([]Point, s.cap)
	}
	if s.n < s.cap {
		s.pts[(s.head+s.n)%s.cap] = Point{Time: t, Value: v}
		s.n++
		return nil
	}
	s.pts[s.head] = Point{Time: t, Value: v}
	s.head = (s.head + 1) % s.cap
	return nil
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size()
}

// At returns the i-th oldest retained point (0 = oldest). The index is
// in retained positions: after a bounded series wraps, At(0) is the
// oldest point still held, not the first ever appended.
func (s *Series) At(i int) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.size() {
		return Point{}, false
	}
	return s.at(i), true
}

// Points returns a copy of the retained observations, oldest first.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, s.size())
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

// Values returns a copy of the retained observation values, oldest first.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, s.size())
	for i := range out {
		out[i] = s.at(i).Value
	}
	return out
}

// TimeWeightedMean returns the mean of the retained window weighting each
// value by the time it held (piecewise-constant, left-continuous). A series
// with fewer than two points returns the plain mean of what it has.
func (s *Series) TimeWeightedMean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.size()
	switch n {
	case 0:
		return 0
	case 1:
		return s.at(0).Value
	}
	var weighted, total float64
	for i := 0; i < n-1; i++ {
		dt := s.at(i + 1).Time.Sub(s.at(i).Time).Seconds()
		if dt <= 0 {
			continue
		}
		weighted += s.at(i).Value * dt
		total += dt
	}
	if total == 0 {
		// All points share one timestamp; fall back to the plain mean.
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.at(i).Value
		}
		return sum / float64(n)
	}
	return weighted / total
}

// Counter is a monotonically increasing accumulator (e.g. completed
// best-effort operations). It is safe for concurrent use; Add is a
// lock-free CAS loop over a single atomic word, so hot producers never
// serialize on a mutex, and because there is exactly one cell the
// accumulation order — hence the float64 rounding — is identical to the
// sequential sum a mutex-guarded total produces. (A striped counter
// would be faster under heavy contention but sums its stripes in stripe
// order, not add order, which perturbs low-order float bits and breaks
// the simulator's bit-identical replay guarantee.)
type Counter struct {
	bits atomic.Uint64
}

// Add accrues a non-negative amount; negative and NaN amounts are
// ignored.
func (c *Counter) Add(v float64) {
	if v < 0 || v != v {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Total returns the accumulated value.
func (c *Counter) Total() float64 {
	return math.Float64frombits(c.bits.Load())
}
