// Package latency provides tail-latency instrumentation for the simulated
// cluster: an HDR-style logarithmic-bucket histogram. Pocolo's server
// manager consumes the p99 latency of the primary latency-critical
// application from a one-second observation window (Section IV-C of the
// paper); this package is that telemetry substrate.
package latency

import (
	"errors"
	"fmt"
	"math"
)

// Histogram is an HDR-style histogram with logarithmically spaced buckets.
// It records values in milliseconds with a configurable dynamic range and a
// bounded relative error per bucket. The zero value is not usable; use
// NewHistogram.
type Histogram struct {
	minTrackable float64 // lowest value with full resolution, ms
	maxTrackable float64 // values above are clamped into the last bucket
	growth       float64 // per-bucket multiplicative growth factor
	logGrowth    float64
	counts       []uint64
	total        uint64
	sum          float64
	maxSeen      float64
	minSeen      float64
}

// NewHistogram creates a histogram covering [minTrackable, maxTrackable]
// milliseconds with the given relative precision (e.g. 0.01 means bucket
// boundaries grow by 1%). Values below minTrackable go into bucket 0;
// values above maxTrackable are clamped.
func NewHistogram(minTrackable, maxTrackable, precision float64) (*Histogram, error) {
	if minTrackable <= 0 || maxTrackable <= minTrackable {
		return nil, errors.New("latency: invalid trackable range")
	}
	if precision <= 0 || precision > 1 {
		return nil, errors.New("latency: precision must be in (0, 1]")
	}
	growth := 1 + precision
	n := int(math.Ceil(math.Log(maxTrackable/minTrackable)/math.Log(growth))) + 2
	return &Histogram{
		minTrackable: minTrackable,
		maxTrackable: maxTrackable,
		growth:       growth,
		logGrowth:    math.Log(growth),
		counts:       make([]uint64, n),
		minSeen:      math.Inf(1),
		maxSeen:      math.Inf(-1),
	}, nil
}

// MustNewHistogram is NewHistogram but panics on invalid configuration; it
// is intended for package-level defaults with constant arguments.
func MustNewHistogram(minTrackable, maxTrackable, precision float64) *Histogram {
	h, err := NewHistogram(minTrackable, maxTrackable, precision)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.minTrackable {
		return 0
	}
	if v >= h.maxTrackable {
		return len(h.counts) - 1
	}
	idx := int(math.Log(v/h.minTrackable)/h.logGrowth) + 1
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// bucketValue returns a representative value (geometric midpoint) for a
// bucket index.
func (h *Histogram) bucketValue(idx int) float64 {
	if idx <= 0 {
		return h.minTrackable
	}
	lo := h.minTrackable * math.Pow(h.growth, float64(idx-1))
	return lo * math.Sqrt(h.growth)
}

// Record adds a single latency observation in milliseconds. Negative and
// NaN values are rejected.
func (h *Histogram) Record(ms float64) error {
	if math.IsNaN(ms) || ms < 0 {
		return fmt.Errorf("latency: cannot record %v", ms)
	}
	h.counts[h.bucketIndex(ms)]++
	h.total++
	h.sum += ms
	if ms > h.maxSeen {
		h.maxSeen = ms
	}
	if ms < h.minSeen {
		h.minSeen = ms
	}
	return nil
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of recorded observations (tracked outside the
// buckets, so it has no quantization error).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.maxSeen
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.minSeen
}

// Percentile returns the latency at the given percentile (0–100]. For an
// empty histogram it returns 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.minSeen
	}
	if p >= 100 {
		return h.maxSeen
	}
	target := uint64(math.Ceil(p / 100 * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for idx, c := range h.counts {
		cum += c
		if cum >= target {
			v := h.bucketValue(idx)
			// Clamp the representative value to the observed extremes so
			// quantization never reports beyond the real data range.
			if v > h.maxSeen {
				v = h.maxSeen
			}
			if v < h.minSeen {
				v = h.minSeen
			}
			return v
		}
	}
	return h.maxSeen
}

// Reset clears all recorded observations, keeping the configuration.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.maxSeen = math.Inf(-1)
	h.minSeen = math.Inf(1)
}

// Snapshot summarizes the histogram.
type Snapshot struct {
	Count uint64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

// Snapshot returns the common tail statistics in one call.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}
