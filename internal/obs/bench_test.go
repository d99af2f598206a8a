package obs

import (
	"testing"
	"time"
)

// The Off/On pairs below are the CI-gated overhead contract: the
// disabled path is a nil-receiver branch, and the enabled path is a
// shard pick plus one or two atomic adds — both zero allocs/op.

func BenchmarkObsCounterOff(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsCounterOn(b *testing.B) {
	c := NewRegistry().Counter("pocolo_obs_bench_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != int64(b.N) {
		b.Fatalf("lost increments: %d != %d", c.Value(), b.N)
	}
}

func BenchmarkObsCounterOnParallel(b *testing.B) {
	c := NewRegistry().Counter("pocolo_obs_bench_par_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkObsHistogramOff(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i))
	}
}

func BenchmarkObsHistogramOn(b *testing.B) {
	h := NewRegistry().Histogram("pocolo_obs_bench_seconds", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i))
	}
	if got := h.Snapshot().Count; got != uint64(b.N) {
		b.Fatalf("lost observations: %d != %d", got, b.N)
	}
}

func BenchmarkObsHistogramOnParallel(b *testing.B) {
	h := NewRegistry().Histogram("pocolo_obs_bench_par_seconds", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.ObserveDuration(time.Duration(i))
			i++
		}
	})
}

// benchSlackBounds is the server manager's slack ladder, the value
// histogram's production layout.
var benchSlackBounds = []float64{-0.5, -0.25, -0.1, -0.05, 0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5}

func BenchmarkObsValueHistogramOff(b *testing.B) {
	var h *ValueHistogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&15)*0.05 - 0.2)
	}
}

func BenchmarkObsValueHistogramOn(b *testing.B) {
	h := NewRegistry().ValueHistogram("pocolo_obs_bench_ratio", "bench", benchSlackBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&15)*0.05 - 0.2)
	}
	if got := h.Snapshot().Count; got != uint64(b.N) {
		b.Fatalf("lost observations: %d != %d", got, b.N)
	}
}

func BenchmarkObsValueHistogramOnParallel(b *testing.B) {
	h := NewRegistry().ValueHistogram("pocolo_obs_bench_par_ratio", "bench", benchSlackBounds)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i&15)*0.05 - 0.2)
			i++
		}
	})
}

func BenchmarkObsSnapshot(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Histogram("pocolo_obs_bench_snap_seconds", "bench",
			Label{"pod", string(rune('a' + i))}).Observe(0.001)
		reg.Counter("pocolo_obs_bench_snap_total", "bench",
			Label{"pod", string(rune('a' + i))}).Inc()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := reg.Snapshot(); len(s.Histograms) != 16 {
			b.Fatal("bad snapshot")
		}
	}
}
