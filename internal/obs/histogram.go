package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear over nanoseconds: each power-of-two octave
// splits into four linear sub-buckets, so any recorded duration lands in
// a bucket whose bounds are within 12.5% of the true value — tight enough
// for p50/p99 while keeping the layout fixed and mergeable. Values below
// subCount nanoseconds index directly; values above maxExp octaves go to
// one overflow bucket. Every histogram shares this layout, so snapshots
// merge by adding counts — no bound negotiation, ever.
const (
	subBits  = 2
	subCount = 1 << subBits // linear sub-buckets per octave
	// maxExp caps the top octave at 2^35 ns ≈ 34 s; control-plane rounds,
	// solves, and staleness watermarks all live far below it.
	maxExp = 35
	// numBuckets: direct buckets for the first two octaves (values 0..3),
	// then four per octave for exponents 2..maxExp, plus one overflow.
	numBuckets = subCount*maxExp - subCount + subCount + 1
)

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	if exp > maxExp {
		return numBuckets - 1
	}
	sub := (u >> (uint(exp) - subBits)) & (subCount - 1)
	return subCount*(exp-1) + int(sub)
}

// BucketBound returns the inclusive upper bound of bucket i in seconds;
// the last bucket is +Inf. Bounds are strictly increasing, which the
// exposition linter checks on every scrape.
func BucketBound(i int) float64 {
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	if i < subCount {
		return float64(i) / 1e9
	}
	exp := i/subCount + 1
	sub := i % subCount
	// Bucket i holds u in [(subCount+sub)<<(exp-subBits), (subCount+sub+1)<<(exp-subBits)),
	// so the inclusive nanosecond bound is one below the next bucket's floor.
	upper := uint64(subCount+sub+1)<<(uint(exp)-subBits) - 1
	return float64(upper) / 1e9
}

// NumBuckets is the fixed bucket count every obs histogram shares.
func NumBuckets() int { return numBuckets }

// histShard is one stripe of histogram state. The bucket array dominates
// the struct, so per-field padding would buy nothing; shards are
// allocated individually to land on separate cache lines.
type histShard struct {
	counts [numBuckets]atomic.Uint64
	sumNS  atomic.Int64
}

// Histogram is a striped log-linear duration histogram.
type Histogram struct {
	shards []*histShard
}

func newHistogram() *Histogram {
	h := &Histogram{shards: make([]*histShard, nShards)}
	for i := range h.shards {
		h.shards[i] = &histShard{}
	}
	return h
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s := h.shards[shardIndex()]
	s.counts[bucketOf(ns)].Add(1)
	s.sumNS.Add(ns)
}

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	h.ObserveDuration(time.Duration(seconds * 1e9))
}

// HistogramSnapshot is one histogram series at read time. Counts are
// per-bucket (not cumulative); the bucket layout is the package-wide
// log-linear ladder, so any two snapshots merge.
type HistogramSnapshot struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	// Counts holds one entry per bucket; trailing zero buckets are
	// truncated to keep marshaled snapshots small.
	Counts     []uint64 `json:"counts"`
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
}

// Snapshot sums the shards. The result carries no name/labels; the
// registry stamps those.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	if h == nil {
		return snap
	}
	counts := make([]uint64, numBuckets)
	var sumNS int64
	for _, s := range h.shards {
		for i := range counts {
			counts[i] += s.counts[i].Load()
		}
		sumNS += s.sumNS.Load()
	}
	last := -1
	for i, c := range counts {
		snap.Count += c
		if c != 0 {
			last = i
		}
	}
	snap.Counts = counts[:last+1]
	snap.SumSeconds = float64(sumNS) / 1e9
	return snap
}

// Merge returns the bucket-wise sum of two snapshots. All obs histograms
// share one layout, so merging never fails; name/help/labels follow the
// receiver.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	n := len(s.Counts)
	if len(o.Counts) > n {
		n = len(o.Counts)
	}
	counts := make([]uint64, n)
	copy(counts, s.Counts)
	for i, c := range o.Counts {
		counts[i] += c
	}
	out.Counts = counts
	out.Count = s.Count + o.Count
	out.SumSeconds = s.SumSeconds + o.SumSeconds
	return out
}

// Quantile estimates the q-th quantile in seconds (q in [0,1]) by linear
// interpolation within the landing bucket. Empty snapshots return 0; an
// overflow-bucket landing returns the top finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			if i >= numBuckets-1 {
				return BucketBound(numBuckets - 2)
			}
			lo := 0.0
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			frac := 0.0
			if c > 0 {
				frac = (rank - prev) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
	}
	if n := len(s.Counts); n > 0 {
		return BucketBound(n - 1)
	}
	return 0
}

// Timer times one call into a duration histogram, like trace.Span: Start
// reads the clock, Stop records the elapsed time. The zero Timer (from a
// nil histogram) reads no clock and records nothing.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins timing one call.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the time since Start.
func (t Timer) Stop() {
	if t.h != nil {
		t.h.ObserveDuration(time.Since(t.start))
	}
}

// ValueHistogram is a fixed-bound histogram over plain float64 values —
// ratios, watts — that the nanosecond ladder does not fit. Each bucket
// counts observations at or below its upper bound, and one overflow
// bucket counts the rest. Bounds are fixed at registration, so Observe is
// a short scan plus two atomic updates and never allocates. It is not
// striped: its callers observe at control-loop rates, not per frame.
type ValueHistogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow bucket
	sum    atomic.Uint64   // float64 bits
}

func newValueHistogram(bounds []float64) *ValueHistogram {
	return &ValueHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *ValueHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ValueHistogramSnapshot is one value histogram series at read time.
// Counts are per bucket, not cumulative: Counts[i] holds the observations
// in (Bounds[i-1], Bounds[i]], and the final entry the ones above the last
// bound.
type ValueHistogramSnapshot struct {
	Name   string    `json:"name"`
	Help   string    `json:"help,omitempty"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the bucket counts and sum. The result carries no
// name/labels; the registry stamps those.
func (h *ValueHistogram) Snapshot() ValueHistogramSnapshot {
	if h == nil {
		return ValueHistogramSnapshot{}
	}
	snap := ValueHistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Count += snap.Counts[i]
	}
	return snap
}
