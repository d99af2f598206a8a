// Package power provides the power-telemetry substrate: a RAPL-like
// sampled power meter with measurement noise, an energy integrator, and a
// power-cap tracker. The paper's prototype reads Intel socket/DRAM power
// meters every 100 ms and throttles the best-effort application whenever
// the draw exceeds the provisioned capacity (Section IV-C); this package is
// the simulated equivalent of that measurement path.
package power

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Source produces the instantaneous true power draw in watts. The
// simulation engine implements it by summing the idle floor and each
// tenant's dynamic power.
type Source func() float64

// Reading is one meter sample.
type Reading struct {
	Time  time.Time
	Watts float64
}

// Meter samples a Source the way RAPL energy counters are read on the
// paper's testbed: at a fixed period, with a small relative measurement
// error. Meter is safe for concurrent use.
type Meter struct {
	src      Source
	noiseRel float64 // relative std-dev of measurement error
	period   time.Duration

	mu   sync.Mutex
	rng  *rand.Rand
	last Reading
}

// NewMeter builds a meter over src sampling every period, with Gaussian
// relative measurement noise of the given standard deviation (0.01 = 1%).
// seed makes the noise stream reproducible.
func NewMeter(src Source, period time.Duration, noiseRel float64, seed int64) (*Meter, error) {
	if src == nil {
		return nil, errors.New("power: nil source")
	}
	if period <= 0 {
		return nil, errors.New("power: sampling period must be positive")
	}
	if noiseRel < 0 || noiseRel > 0.5 {
		return nil, errors.New("power: noise std-dev outside [0, 0.5]")
	}
	return &Meter{
		src:      src,
		noiseRel: noiseRel,
		period:   period,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Sample reads the source at the given simulated time and returns a noisy
// reading. Samples requested faster than the meter period return the
// previous reading, mimicking a hardware counter that updates at a fixed
// rate.
func (m *Meter) Sample(now time.Time) Reading {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.last.Time.IsZero() && now.Sub(m.last.Time) < m.period {
		return m.last
	}
	truth := m.src()
	noisy := truth * (1 + m.rng.NormFloat64()*m.noiseRel)
	if noisy < 0 {
		noisy = 0
	}
	m.last = Reading{Time: now, Watts: noisy}
	return m.last
}

// EnergyCounter integrates power over simulated time.
type EnergyCounter struct {
	mu     sync.Mutex
	joules float64
	lastT  time.Time
	seen   bool
}

// Observe accrues energy assuming the given power held since the previous
// observation. The first observation only anchors the clock.
func (e *EnergyCounter) Observe(now time.Time, watts float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen {
		dt := now.Sub(e.lastT).Seconds()
		if dt > 0 {
			e.joules += watts * dt
		}
	}
	e.lastT = now
	e.seen = true
}

// Joules returns the accumulated energy.
func (e *EnergyCounter) Joules() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.joules
}

// KWh returns the accumulated energy in kilowatt-hours.
func (e *EnergyCounter) KWh() float64 {
	return e.Joules() / 3.6e6
}

// CapTracker accumulates statistics about power-cap compliance: how much
// of the observation time the draw exceeded the cap and the number of
// excursions (the paper reports "frequent power capping" under the Random
// baseline).
type CapTracker struct {
	capW float64

	mu        sync.Mutex
	lastT     time.Time
	lastOver  bool
	seen      bool
	totalDur  time.Duration
	overDur   time.Duration
	events    int
	sumW      float64
	sumWCount int
	peakW     float64
}

// NewCapTracker creates a tracker for the given power capacity.
func NewCapTracker(capW float64) (*CapTracker, error) {
	if capW <= 0 {
		return nil, errors.New("power: cap must be positive")
	}
	return &CapTracker{capW: capW}, nil
}

// Observe records the draw at the given time. Observations must be
// time-ordered.
func (c *CapTracker) Observe(now time.Time, watts float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	over := watts > c.capW
	if c.seen {
		dt := now.Sub(c.lastT)
		if dt > 0 {
			c.totalDur += dt
			if c.lastOver {
				c.overDur += dt
			}
		}
	}
	if over && (!c.seen || !c.lastOver) {
		c.events++
	}
	c.lastT = now
	c.lastOver = over
	c.seen = true
	c.sumW += watts
	c.sumWCount++
	if watts > c.peakW {
		c.peakW = watts
	}
}

// Stats summarizes cap compliance.
type Stats struct {
	CapW        float64
	MeanW       float64
	PeakW       float64
	Utilization float64 // mean draw / cap
	OverFrac    float64 // fraction of observed time above the cap
	Events      int     // number of distinct excursions above the cap
}

// Stats returns the accumulated compliance statistics.
func (c *CapTracker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{CapW: c.capW, PeakW: c.peakW, Events: c.events}
	if c.sumWCount > 0 {
		s.MeanW = c.sumW / float64(c.sumWCount)
		s.Utilization = s.MeanW / c.capW
	}
	if c.totalDur > 0 {
		s.OverFrac = float64(c.overDur) / float64(c.totalDur)
	}
	return s
}
