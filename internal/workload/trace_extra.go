package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TwoPeakTrace models the double-humped daily load shape common to
// user-facing services (a morning and an evening peak with a midday sag
// and a deep night trough).
type TwoPeakTrace struct {
	Low    float64       // night trough load fraction
	Mid    float64       // midday sag load fraction
	High   float64       // peak load fraction
	Period time.Duration // one day
}

// NewTwoPeakTrace validates and builds a two-peak diurnal trace.
func NewTwoPeakTrace(low, mid, high float64, period time.Duration) (*TwoPeakTrace, error) {
	if !fracOK(low) || !fracOK(mid) || !fracOK(high) || low > mid || mid > high {
		return nil, fmt.Errorf("workload: two-peak levels must satisfy 0 ≤ low ≤ mid ≤ high ≤ 1, got %v/%v/%v", low, mid, high)
	}
	if period <= 0 {
		return nil, errors.New("workload: two-peak period must be positive")
	}
	return &TwoPeakTrace{Low: low, Mid: mid, High: high, Period: period}, nil
}

// LoadFraction implements Trace: peaks at 40% and 80% of the cycle, sag at
// 60%, trough at 10%.
func (tp *TwoPeakTrace) LoadFraction(t time.Duration) float64 {
	frac := math.Mod(t.Seconds()/tp.Period.Seconds(), 1)
	if frac < 0 {
		frac += 1
	}
	// Piecewise-cosine through the anchor points.
	anchors := []struct{ at, level float64 }{
		{0.0, tp.Low},
		{0.10, tp.Low},
		{0.40, tp.High},
		{0.60, tp.Mid},
		{0.80, tp.High},
		{1.0, tp.Low},
	}
	for i := 1; i < len(anchors); i++ {
		if frac <= anchors[i].at {
			lo, hi := anchors[i-1], anchors[i]
			span := hi.at - lo.at
			if span == 0 {
				return hi.level
			}
			// Cosine easing between the two anchor levels.
			u := (frac - lo.at) / span
			w := (1 - math.Cos(math.Pi*u)) / 2
			return lo.level + (hi.level-lo.level)*w
		}
	}
	return tp.Low
}

// Duration implements Trace.
func (tp *TwoPeakTrace) Duration() time.Duration { return tp.Period }

// String implements fmt.Stringer.
func (tp *TwoPeakTrace) String() string {
	return fmt.Sprintf("two-peak[%.0f%%/%.0f%%/%.0f%%/%v]", tp.Low*100, tp.Mid*100, tp.High*100, tp.Period)
}

// FlashCrowdTrace holds a baseline load with one sudden spike — the load
// surprise that forces the server manager to reclaim resources from the
// co-runner in a hurry.
type FlashCrowdTrace struct {
	Base   float64
	Spike  float64
	At     time.Duration
	SpikeD time.Duration
	Span   time.Duration
	RampD  time.Duration // spike onset ramp (0 = instantaneous)
}

// NewFlashCrowdTrace validates and builds a flash-crowd trace.
func NewFlashCrowdTrace(base, spike float64, at, spikeDur, span time.Duration) (*FlashCrowdTrace, error) {
	if !fracOK(base) || !fracOK(spike) {
		return nil, errors.New("workload: flash-crowd levels outside [0, 1]")
	}
	if spike <= base {
		return nil, errors.New("workload: spike must exceed the baseline")
	}
	if at <= 0 || spikeDur <= 0 || at+spikeDur > span {
		return nil, errors.New("workload: flash-crowd timing must satisfy 0 < at, at+dur ≤ span")
	}
	return &FlashCrowdTrace{Base: base, Spike: spike, At: at, SpikeD: spikeDur, Span: span, RampD: 2 * time.Second}, nil
}

// LoadFraction implements Trace.
func (f *FlashCrowdTrace) LoadFraction(t time.Duration) float64 {
	if t < f.At || t >= f.At+f.SpikeD {
		return f.Base
	}
	if f.RampD > 0 && t < f.At+f.RampD {
		u := float64(t-f.At) / float64(f.RampD)
		return f.Base + (f.Spike-f.Base)*u
	}
	return f.Spike
}

// Duration implements Trace.
func (f *FlashCrowdTrace) Duration() time.Duration { return f.Span }

// String implements fmt.Stringer.
func (f *FlashCrowdTrace) String() string {
	return fmt.Sprintf("flash-crowd[%.0f%%→%.0f%% at %v for %v]", f.Base*100, f.Spike*100, f.At, f.SpikeD)
}

// NoisyTrace perturbs an inner trace with seeded multiplicative noise,
// re-sampled per interval, modelling short-term demand jitter on top of a
// macro shape. The perturbation is deterministic for a (seed, interval)
// pair so simulations stay reproducible.
type NoisyTrace struct {
	Inner    Trace
	RelStd   float64
	Interval time.Duration
	seed     int64
}

// NewNoisyTrace wraps inner with relative jitter of standard deviation
// relStd, held constant within each interval.
func NewNoisyTrace(inner Trace, relStd float64, interval time.Duration, seed int64) (*NoisyTrace, error) {
	if inner == nil {
		return nil, errors.New("workload: nil inner trace")
	}
	if relStd < 0 || relStd > 0.5 {
		return nil, errors.New("workload: noise std outside [0, 0.5]")
	}
	if interval <= 0 {
		return nil, errors.New("workload: noise interval must be positive")
	}
	return &NoisyTrace{Inner: inner, RelStd: relStd, Interval: interval, seed: seed}, nil
}

// LoadFraction implements Trace.
func (n *NoisyTrace) LoadFraction(t time.Duration) float64 {
	base := n.Inner.LoadFraction(t)
	if n.RelStd == 0 {
		return base
	}
	slot := int64(t / n.Interval)
	// Derive a per-slot deterministic jitter from the seed and slot index.
	rng := rand.New(rand.NewSource(n.seed ^ (slot * 0x9E3779B9)))
	v := base * (1 + rng.NormFloat64()*n.RelStd)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Duration implements Trace.
func (n *NoisyTrace) Duration() time.Duration { return n.Inner.Duration() }

// String implements fmt.Stringer.
func (n *NoisyTrace) String() string {
	return fmt.Sprintf("noisy[%v ±%.0f%%/%v]", n.Inner, n.RelStd*100, n.Interval)
}

// ReplayTrace replays recorded (time, load fraction) points with linear
// interpolation, wrapping at the end — the hook for driving simulations
// from production load traces.
type ReplayTrace struct {
	times []time.Duration
	loads []float64
	span  time.Duration
	name  string
}

// NewReplayTrace builds a replay trace from parallel slices of offsets and
// load fractions. Offsets must be strictly increasing and start at or
// after zero; fractions must be in [0, 1].
func NewReplayTrace(name string, offsets []time.Duration, loads []float64) (*ReplayTrace, error) {
	if len(offsets) < 2 {
		return nil, errors.New("workload: replay needs at least two points")
	}
	if len(offsets) != len(loads) {
		return nil, errors.New("workload: replay offsets/loads length mismatch")
	}
	for i, off := range offsets {
		if !fracOK(loads[i]) {
			return nil, fmt.Errorf("workload: replay load %v outside [0, 1]", loads[i])
		}
		if i == 0 {
			if off < 0 {
				return nil, errors.New("workload: replay offsets must start at or after zero")
			}
			continue
		}
		if off <= offsets[i-1] {
			return nil, errors.New("workload: replay offsets must be strictly increasing")
		}
	}
	if name == "" {
		name = "replay"
	}
	return &ReplayTrace{
		times: append([]time.Duration(nil), offsets...),
		loads: append([]float64(nil), loads...),
		span:  offsets[len(offsets)-1],
		name:  name,
	}, nil
}

// ParseCSVTrace reads a two-column CSV of "seconds,load-fraction" rows
// (header row optional) into a ReplayTrace.
func ParseCSVTrace(name string, r io.Reader) (*ReplayTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.TrimLeadingSpace = true
	var offsets []time.Duration
	var loads []float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv trace: %w", err)
		}
		line++
		secs, err1 := strconv.ParseFloat(rec[0], 64)
		frac, err2 := strconv.ParseFloat(rec[1], 64)
		if err1 != nil || err2 != nil {
			if line == 1 {
				continue // tolerate a header row
			}
			return nil, fmt.Errorf("workload: csv trace line %d: non-numeric row %v", line, rec)
		}
		// Reject offsets the duration conversion cannot represent:
		// converting NaN, ±Inf, or an out-of-range float to int64 is
		// implementation-defined in Go and would silently corrupt the
		// trace. Load fractions are range-checked by NewReplayTrace.
		if math.IsNaN(secs) || secs < 0 || secs > float64(math.MaxInt64)/float64(time.Second) {
			return nil, fmt.Errorf("workload: csv trace line %d: offset %v seconds out of range", line, rec[0])
		}
		offsets = append(offsets, time.Duration(secs*float64(time.Second)))
		loads = append(loads, frac)
	}
	return NewReplayTrace(name, offsets, loads)
}

// LoadFraction implements Trace with linear interpolation and wrapping.
func (rt *ReplayTrace) LoadFraction(t time.Duration) float64 {
	if rt.span > 0 {
		t = time.Duration(math.Mod(float64(t), float64(rt.span)))
		if t < 0 {
			t += rt.span
		}
	}
	i := sort.Search(len(rt.times), func(i int) bool { return rt.times[i] >= t })
	if i == 0 {
		return rt.loads[0]
	}
	if i == len(rt.times) {
		return rt.loads[len(rt.loads)-1]
	}
	lo, hi := rt.times[i-1], rt.times[i]
	u := float64(t-lo) / float64(hi-lo)
	return rt.loads[i-1] + (rt.loads[i]-rt.loads[i-1])*u
}

// Duration implements Trace.
func (rt *ReplayTrace) Duration() time.Duration { return rt.span }

// String implements fmt.Stringer.
func (rt *ReplayTrace) String() string {
	return fmt.Sprintf("%s[%d points/%v]", rt.name, len(rt.times), rt.span)
}

// NamedTrace builds the load trace a command line names: constant (at
// level), diurnal, two-peak, sweep, step and flash (periodic shapes
// spanning period), or csv:FILE to replay a two-column
// "seconds,load-fraction" file.
func NamedTrace(kind string, level float64, period time.Duration) (Trace, error) {
	switch {
	case kind == "constant":
		return NewConstantTrace(level)
	case kind == "diurnal":
		return NewDiurnalTrace(0.1, 0.9, period)
	case kind == "two-peak":
		return NewTwoPeakTrace(0.1, 0.5, 0.9, period)
	case kind == "sweep":
		return UniformSweep(period / 9), nil
	case kind == "step":
		return NewStepTrace(0.5, 0.8, period/2, period)
	case kind == "flash":
		return NewFlashCrowdTrace(0.2, 0.9, period/3, period/6, period)
	case strings.HasPrefix(kind, "csv:"):
		path := strings.TrimPrefix(kind, "csv:")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseCSVTrace(path, f)
	default:
		return nil, fmt.Errorf("unknown trace %q", kind)
	}
}
