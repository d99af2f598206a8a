package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pocolo/internal/trace"
)

func TestCounterConcurrentSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pocolo_obs_test_total", "test")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter sum = %d, want %d", got, workers*per)
	}
	if float64(c.Value()) != reg.Snapshot().Counters[0].Value {
		t.Fatalf("snapshot disagrees with Value")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	c := NewRegistry().Counter("pocolo_obs_neg_total", "test")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestRegistryIdentityAndLabels(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("pocolo_obs_id_total", "test", Label{"pod", "p0"})
	b := reg.Counter("pocolo_obs_id_total", "test", Label{"pod", "p0"})
	if a != b {
		t.Fatalf("same (name, labels) returned distinct counters")
	}
	if c := reg.Counter("pocolo_obs_id_total", "test", Label{"pod", "p1"}); c == a {
		t.Fatalf("distinct labels returned the same counter")
	}
	a.Inc()
	snap := reg.Snapshot()
	if len(snap.Counters) != 2 {
		t.Fatalf("snapshot has %d counters, want 2", len(snap.Counters))
	}
	// Series are ordered by label signature: p0 before p1.
	if snap.Counters[0].Labels[0].Value != "p0" || snap.Counters[0].Value != 1 {
		t.Fatalf("unexpected first series: %+v", snap.Counters[0])
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pocolo_obs_conflict_total", "test")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter family as a gauge did not panic")
		}
	}()
	reg.Gauge("pocolo_obs_conflict_total", "test")
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "h")
	g := reg.Gauge("x", "h")
	h := reg.Histogram("x", "h")
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("nil metrics not inert")
	}
	if got := reg.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
	var slo *SLO
	if slo.Observe(time.Hour) {
		t.Fatalf("nil SLO reported a breach")
	}
	var rec *FlightRecorder
	if _, taken, err := rec.Trigger(Bundle{}); taken || err != nil {
		t.Fatalf("nil recorder triggered")
	}
}

func TestBucketLayout(t *testing.T) {
	// Bounds strictly ascending.
	prev := -1.0
	for i := 0; i < NumBuckets()-1; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("bucket %d bound %g not above previous %g", i, b, prev)
		}
		prev = b
	}
	if !math.IsInf(BucketBound(NumBuckets()-1), 1) {
		t.Fatalf("last bucket bound is not +Inf")
	}
	// Every value lands in a bucket whose bound brackets it.
	for _, ns := range []int64{0, 1, 3, 4, 7, 8, 1000, 999_999, 1_000_000, 123_456_789, 5_000_000_000} {
		i := bucketOf(ns)
		sec := float64(ns) / 1e9
		if hi := BucketBound(i); sec > hi {
			t.Fatalf("value %dns above its bucket %d bound %g", ns, i, hi)
		}
		if i > 0 {
			if lo := BucketBound(i - 1); sec <= lo {
				t.Fatalf("value %dns at or below bucket %d's lower bound %g", ns, i, lo)
			}
		}
	}
	// Monotone: larger values never land in earlier buckets.
	last := 0
	for ns := int64(1); ns < int64(1)<<40; ns *= 3 {
		i := bucketOf(ns)
		if i < last {
			t.Fatalf("bucketOf(%d)=%d below previous %d", ns, i, last)
		}
		last = i
	}
	if got := bucketOf(int64(1) << 62); got != NumBuckets()-1 {
		t.Fatalf("huge value in bucket %d, want overflow %d", got, NumBuckets()-1)
	}
}

func TestHistogramQuantileAndMerge(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pocolo_obs_lat_seconds", "test")
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Millisecond) // 1e6 ns
	}
	h.ObserveDuration(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1001 {
		t.Fatalf("count = %d", s.Count)
	}
	if p50 := s.Quantile(0.50); p50 < 0.8e-3 || p50 > 1.3e-3 {
		t.Fatalf("p50 = %g, want ~1ms", p50)
	}
	if p999 := s.Quantile(0.9995); p999 < 0.08 || p999 > 0.15 {
		t.Fatalf("p99.95 = %g, want ~100ms", p999)
	}
	sum := s.SumSeconds
	if want := 1.1; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", sum, want)
	}

	m := s.Merge(s)
	if m.Count != 2002 || math.Abs(m.SumSeconds-2*sum) > 1e-9 {
		t.Fatalf("merge: count=%d sum=%g", m.Count, m.SumSeconds)
	}
	var total uint64
	for _, c := range m.Counts {
		total += c
	}
	if total != m.Count {
		t.Fatalf("merged bucket counts %d != count %d", total, m.Count)
	}
	// Merging with an empty snapshot is the identity.
	if id := s.Merge(HistogramSnapshot{}); id.Count != s.Count || id.SumSeconds != s.SumSeconds {
		t.Fatalf("identity merge changed the snapshot")
	}
}

func TestWritePromShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pocolo_obs_rounds_total", "Rounds.").Add(3)
	reg.Gauge("pocolo_obs_headroom_watts", "Headroom.", Label{"pod", "p0"}).Set(12.5)
	reg.Histogram("pocolo_obs_round_seconds", "Round latency.").Observe(0.002)
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE pocolo_obs_rounds_total counter",
		"pocolo_obs_rounds_total 3",
		`pocolo_obs_headroom_watts{pod="p0"} 12.5`,
		"# TYPE pocolo_obs_round_seconds histogram",
		`le="+Inf"`,
		"pocolo_obs_round_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Empty histograms are omitted entirely.
	reg2 := NewRegistry()
	reg2.Histogram("pocolo_obs_empty_seconds", "Empty.")
	buf.Reset()
	if err := WriteProm(&buf, reg2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty histogram produced output:\n%s", buf.String())
	}
}

func TestWritePromGroupsFamilies(t *testing.T) {
	snap := Snapshot{
		Counters: []CounterSnapshot{
			{Name: "pocolo_obs_b_total", Help: "B.", Labels: []Label{{"x", "1"}}, Value: 2.5},
			{Name: "pocolo_obs_a_total", Help: "A.", Value: 1},
			{Name: "pocolo_obs_b_total", Help: "B.", Labels: []Label{{"x", "2"}}, Value: 3},
		},
		Gauges: []GaugeSnapshot{{Name: "pocolo_obs_g", Help: "G.", Value: 4}},
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, snap); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pocolo_obs_b_total B.
# TYPE pocolo_obs_b_total counter
pocolo_obs_b_total{x="1"} 2.5
pocolo_obs_b_total{x="2"} 3
# HELP pocolo_obs_a_total A.
# TYPE pocolo_obs_a_total counter
pocolo_obs_a_total 1
# HELP pocolo_obs_g G.
# TYPE pocolo_obs_g gauge
pocolo_obs_g 4
`
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestValueHistogram(t *testing.T) {
	reg := NewRegistry()
	bounds := []float64{-0.25, 0, 0.25}
	h := reg.ValueHistogram("pocolo_obs_slack_ratio", "Slack.", bounds, Label{"host", "h0"})
	if again := reg.ValueHistogram("pocolo_obs_slack_ratio", "Slack.", []float64{1}, Label{"host", "h0"}); again != h {
		t.Fatal("same (name, labels) returned a distinct value histogram")
	}
	for _, v := range []float64{-0.5, -0.25, 0.125, 0.25, 0.25, 1} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	if len(snap.ValueHistograms) != 1 || len(snap.Histograms) != 0 {
		t.Fatalf("snapshot holds %d value and %d duration histograms", len(snap.ValueHistograms), len(snap.Histograms))
	}
	s := snap.ValueHistograms[0]
	if s.Name != "pocolo_obs_slack_ratio" || len(s.Labels) != 1 || s.Labels[0].Value != "h0" {
		t.Fatalf("series identity = %+v", s)
	}
	if want := []uint64{2, 0, 3, 1}; !reflect.DeepEqual(s.Counts, want) || !reflect.DeepEqual(s.Bounds, bounds) {
		t.Fatalf("bounds %v counts %v, want %v %v", s.Bounds, s.Counts, bounds, want)
	}
	if s.Count != 6 || s.Sum != 0.875 {
		t.Fatalf("count=%d sum=%g, want 6 and 0.875", s.Count, s.Sum)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, snap); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pocolo_obs_slack_ratio Slack.
# TYPE pocolo_obs_slack_ratio histogram
pocolo_obs_slack_ratio_bucket{host="h0",le="-0.25"} 2
pocolo_obs_slack_ratio_bucket{host="h0",le="0"} 2
pocolo_obs_slack_ratio_bucket{host="h0",le="0.25"} 5
pocolo_obs_slack_ratio_bucket{host="h0",le="+Inf"} 6
pocolo_obs_slack_ratio_sum{host="h0"} 0.875
pocolo_obs_slack_ratio_count{host="h0"} 6
`
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Empty value histograms render nothing; nil ones record nothing.
	buf.Reset()
	empty := NewRegistry()
	empty.ValueHistogram("pocolo_obs_empty_ratio", "Empty.", bounds)
	if err := WriteProm(&buf, empty.Snapshot()); err != nil || buf.Len() != 0 {
		t.Fatalf("empty value histogram rendered %q (err %v)", buf.String(), err)
	}
	var nilReg *Registry
	nh := nilReg.ValueHistogram("x", "h", bounds)
	nh.Observe(1)
	if nh != nil || nh.Snapshot().Count != 0 {
		t.Fatal("nil value histogram not inert")
	}
}

// TestValueHistogramConcurrent races Observe against Snapshot. CI runs
// it under -race -count=10.
func TestValueHistogramConcurrent(t *testing.T) {
	h := NewRegistry().ValueHistogram("pocolo_obs_race_ratio", "Race.", []float64{0, 1, 2})
	const writers, per = 4, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Counts {
				total += c
			}
			if total != s.Count {
				t.Errorf("snapshot bucket total %d != count %d", total, s.Count)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w)) // writer w lands in bucket w (3 overflows)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if want := []uint64{per, per, per, per}; !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if want := float64(per * (0 + 1 + 2 + 3)); s.Count != writers*per || s.Sum != want {
		t.Fatalf("count=%d sum=%g, want %d and %g", s.Count, s.Sum, writers*per, want)
	}
}

func TestSLOBurn(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, Objective{Name: "round", Target: 10 * time.Millisecond})
	for i := 0; i < 99; i++ {
		if s.Observe(time.Millisecond) {
			t.Fatalf("fast observation breached")
		}
	}
	if !s.Observe(time.Second) {
		t.Fatalf("slow observation did not breach")
	}
	// 1 breach / 100 observations / 0.01 budget = burn 1.0.
	if burn := s.Burn(); math.Abs(burn-1.0) > 1e-9 {
		t.Fatalf("burn = %g, want 1.0", burn)
	}
}

func bundleEvents() []trace.Event {
	tr := trace.New("ctl", 64)
	now := time.Unix(1_700_000_000, 0)
	tr.ControlDecision(now, trace.ControlDecision{Tick: 1, Load: 100, Path: trace.PathExact})
	tr.SolveSummary(now.Add(time.Second), trace.SolveSummary{Method: "sharded", Rows: 2, Cols: 2, Total: 7})
	return tr.Events()
}

func TestRecorderRateLimitAndBundle(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(dir)
	now := time.Unix(1_700_000_000, 0)
	b := Bundle{
		Reason: "round-deadline",
		Now:    now,
		Events: bundleEvents(),
		Pods:   map[string]int{"p0": 3},
		Detail: map[string]any{"round": 7},
	}
	got, taken, err := rec.Trigger(b)
	if err != nil || !taken {
		t.Fatalf("first trigger: taken=%v err=%v", taken, err)
	}
	for _, f := range []string{"events.jsonl", "obs.json", "pods.json", "meta.json", "goroutine.txt", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(got, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}
	// Within a minute: suppressed.
	b.Now = now.Add(30 * time.Second)
	if _, taken, _ := rec.Trigger(b); taken {
		t.Fatalf("trigger inside a minute was not suppressed")
	}
	if rec.Throttled() != 1 {
		t.Fatalf("throttled = %d, want 1", rec.Throttled())
	}
	// Past a minute: taken again.
	b.Now = now.Add(2 * time.Minute)
	if _, taken, _ := rec.Trigger(b); !taken {
		t.Fatalf("trigger past a minute was suppressed")
	}
	if rec.Taken() != 2 {
		t.Fatalf("taken = %d, want 2", rec.Taken())
	}
	// Bundle event logs are byte-identical across identical triggers
	// (canonical wall-free JSONL), the seeded-replay contract.
	ents, err := filepath.Glob(filepath.Join(dir, "bundle-*"))
	if err != nil || len(ents) != 2 {
		t.Fatalf("bundles = %v (err %v)", ents, err)
	}
	log1, err1 := os.ReadFile(filepath.Join(ents[0], "events.jsonl"))
	log2, err2 := os.ReadFile(filepath.Join(ents[1], "events.jsonl"))
	if err1 != nil || err2 != nil || !bytes.Equal(log1, log2) {
		t.Fatalf("identical triggers produced different event logs")
	}
	evs, err := trace.ParseJSONL(bytes.NewReader(log1))
	if err != nil {
		t.Fatalf("bundle events unparsable: %v", err)
	}
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("bundle events invalid: %v", err)
	}
}

func TestRecorderMaxBundles(t *testing.T) {
	rec := NewRecorder(t.TempDir())
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < maxBundles; i++ {
		if _, taken, err := rec.Trigger(Bundle{Reason: "x", Now: now.Add(time.Duration(i) * time.Hour)}); !taken || err != nil {
			t.Fatalf("trigger %d failed: %v", i, err)
		}
	}
	if _, taken, _ := rec.Trigger(Bundle{Reason: "x", Now: now.Add(maxBundles * time.Hour)}); taken {
		t.Fatalf("maxBundles not enforced")
	}
	if rec.Taken() != maxBundles || rec.Throttled() != 1 {
		t.Fatalf("taken = %d, throttled = %d, want %d and 1", rec.Taken(), rec.Throttled(), maxBundles)
	}
}

// The enabled hot path must not allocate: that is the whole point of the
// striped design. The disabled (nil-handle) path must not either.
func TestZeroAllocHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pocolo_obs_alloc_total", "test")
	h := reg.Histogram("pocolo_obs_alloc_seconds", "test")
	g := reg.Gauge("pocolo_obs_alloc", "test")
	var nilC *Counter
	var nilH *Histogram
	checks := []struct {
		name string
		fn   func()
	}{
		{"counter-on", func() { c.Add(1) }},
		{"counter-off", func() { nilC.Add(1) }},
		{"gauge-on", func() { g.Set(4.2) }},
		{"hist-on", func() { h.ObserveDuration(time.Millisecond) }},
		{"hist-off", func() { nilH.ObserveDuration(time.Millisecond) }},
	}
	for _, ck := range checks {
		if allocs := testing.AllocsPerRun(200, ck.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", ck.name, allocs)
		}
	}
}
