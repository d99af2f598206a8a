// Package des is a request-level discrete-event simulator: Poisson
// arrivals into a FIFO queue served by k parallel servers with exponential
// service times (M/M/k). It exists to validate the fluid latency law used
// by internal/sim — the analytic p99 curve must behave like a real queue
// (monotone in load, explosive near saturation, tail far above the mean).
package des

import (
	"container/heap"
	"errors"
	"math/rand"
	"time"

	"pocolo/internal/latency"
	"pocolo/internal/machine"
	"pocolo/internal/workload"
)

// Config parameterizes one queueing run.
type Config struct {
	// ArrivalRate is the Poisson arrival rate in requests/s.
	ArrivalRate float64
	// Servers is the number of parallel servers (cores).
	Servers int
	// ServiceRate is the aggregate service capacity in requests/s; each of
	// the k servers completes work at ServiceRate/k.
	ServiceRate float64
	// Duration is the simulated time span.
	Duration time.Duration
	// Seed makes the run reproducible.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Completed uint64
	Dropped   uint64 // arrivals after the horizon cut-off (not simulated)
	Hist      *latency.Histogram
	// Utilization is the offered load ρ = ArrivalRate/ServiceRate.
	Utilization float64
}

// FromAlloc derives a queueing configuration from a workload model: the
// allocation's capacity becomes the aggregate service rate and its cores
// become the parallel servers.
func FromAlloc(spec *workload.Spec, a machine.Alloc, load float64, d time.Duration, seed int64) Config {
	return Config{
		ArrivalRate: load,
		Servers:     a.Cores,
		ServiceRate: spec.Capacity(a),
		Duration:    d,
		Seed:        seed,
	}
}

// warmupFrac is the leading fraction of the run whose latencies are
// discarded, so the measured tail reflects steady state.
const warmupFrac = 0.1

type eventKind int

const (
	evArrival eventKind = iota
	evDeparture
)

type event struct {
	at   float64 // seconds since start
	kind eventKind
	// arrivedAt is the arrival time of the request departing (departures
	// only).
	arrivedAt float64
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run executes the queueing simulation.
func Run(cfg Config) (Result, error) {
	if cfg.ArrivalRate <= 0 {
		return Result{}, errors.New("des: arrival rate must be positive")
	}
	if cfg.Servers < 1 {
		return Result{}, errors.New("des: need at least one server")
	}
	if cfg.ServiceRate <= 0 {
		return Result{}, errors.New("des: service rate must be positive")
	}
	if cfg.Duration <= 0 {
		return Result{}, errors.New("des: duration must be positive")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := cfg.Duration.Seconds()
	warmupEnd := horizon * warmupFrac
	perServerRate := cfg.ServiceRate / float64(cfg.Servers)
	meanSvc := 1 / perServerRate

	// service draws one exponential service time.
	service := func() float64 { return rng.ExpFloat64() * meanSvc }

	hist, err := latency.NewHistogram(0.001, 1e7, 0.01)
	if err != nil {
		return Result{}, err
	}

	var h eventHeap
	heap.Init(&h)
	heap.Push(&h, event{at: rng.ExpFloat64() / cfg.ArrivalRate, kind: evArrival})

	busy := 0
	var queue []float64 // arrival times of queued requests
	res := Result{Hist: hist, Utilization: cfg.ArrivalRate / cfg.ServiceRate}

	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		if ev.at > horizon {
			if ev.kind == evArrival {
				res.Dropped++
			}
			continue
		}
		switch ev.kind {
		case evArrival:
			// Schedule the next arrival.
			heap.Push(&h, event{at: ev.at + rng.ExpFloat64()/cfg.ArrivalRate, kind: evArrival})
			if busy < cfg.Servers {
				busy++
				heap.Push(&h, event{at: ev.at + service(), kind: evDeparture, arrivedAt: ev.at})
			} else {
				queue = append(queue, ev.at)
			}
		case evDeparture:
			res.Completed++
			if ev.at >= warmupEnd {
				sojournMs := (ev.at - ev.arrivedAt) * 1000
				if err := hist.Record(sojournMs); err != nil {
					return Result{}, err
				}
			}
			if len(queue) > 0 {
				arrived := queue[0]
				queue = queue[1:]
				heap.Push(&h, event{at: ev.at + service(), kind: evDeparture, arrivedAt: arrived})
			} else {
				busy--
			}
		}
	}
	return res, nil
}
