package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"pocolo/internal/obs"
)

// quantile returns the q-quantile of xs by nearest rank, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTime is the part of a Round the benchmark does not attribute to a
// timed phase: liveness fold, re-solve, push derivation and bookkeeping.
func selfTime(round, probe, budget, push time.Duration) time.Duration {
	return round - probe - budget - push
}

// reconciles reports whether the disjoint phases timed inside a Round fit
// within its wall time.
func reconciles(round, probe, budget, push time.Duration) bool {
	return selfTime(round, probe, budget, push) >= 0
}

// histDelta is the bucket-wise difference of two snapshots of one
// histogram, so quantiles cover only what was observed in between.
func histDelta(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Counts:     append([]uint64(nil), after.Counts...),
		Count:      after.Count - before.Count,
		SumSeconds: after.SumSeconds - before.SumSeconds,
	}
	for i, c := range before.Counts {
		d.Counts[i] -= c
	}
	return d
}

// histogram returns the named histogram from a registry snapshot, with
// every labelled series of the family merged.
func histogram(snap obs.Snapshot, name string) obs.HistogramSnapshot {
	var h obs.HistogramSnapshot
	for _, s := range snap.Histograms {
		if s.Name == name {
			h = h.Merge(s)
		}
	}
	return h
}

// The shared hosts this benchmark runs on change speed by up to 2×, for
// seconds or minutes at a time. So the benchmark reports its own timings
// in reference time: each round's wall and CPU times are multiplied by
// calibRef ÷ the mean run time of a fixed probe run right before and right
// after the round's controller calls, raised to the workload's
// sensitivity. The probe is an RPC fan-out like the
// controller's push phase: a 32-goroutine pool that JSON-encodes and
// decodes 256 small messages. Of the probes tried (a single-core loop, the
// same loop on every core, a cache-missing loop) it tracked the
// controller's slowdowns best. calibRef is the probe's run time on the
// development host (2 vCPUs, GOMAXPROCS 2) when uncontended, so there a
// reference millisecond is a wall millisecond of a quiet machine.
const calibRef = 470 * time.Microsecond

type probeMsg struct {
	CapW float64 `json:"cap_w"`
}

// calibrate runs the probe once and returns its wall time.
func calibrate() time.Duration {
	const jobs, workers = 256, 32
	start := time.Now()
	next := make(chan int, jobs) // holds every job, so filling it never blocks
	for i := 0; i < jobs; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A probeMsg always encodes and decodes; errors cannot occur.
				body, _ := json.Marshal(probeMsg{CapW: float64(i)})
				var req probeMsg
				_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
				reply, _ := json.Marshal(probeMsg{CapW: req.CapW + 1})
				_ = json.Unmarshal(reply, &req)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// speed is the factor that turns time measured between two probe runs
// into reference time, for work whose slowdowns are the probe's raised to
// the given sensitivity.
func speed(before, after time.Duration, sensitivity float64) float64 {
	return math.Pow(2*float64(calibRef)/float64(before+after), sensitivity)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample is reused so reading it allocates nothing inside a measured
// window; only the round loop's goroutine reads it.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
