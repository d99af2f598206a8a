// Package sim provides the cluster simulation runtime. Each Host binds a
// simulated machine (internal/machine) to one latency-critical tenant, an
// optional best-effort tenant, a load trace, and a power meter; an Engine
// advances a set of hosts through simulated time in fixed ticks and fires
// periodic controller tasks (the 1 s server manager and the 100 ms power
// capper from Section IV-C run as such tasks).
//
// The fluid model used here computes tail latency, throughput, and power
// analytically from the ground-truth workload models each tick. The
// request-level discrete-event engine in internal/sim/des validates that
// the fluid latency law behaves like a real queue.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/power"
	"pocolo/internal/telemetry"
	"pocolo/internal/workload"
)

// HostConfig assembles one simulated server.
type HostConfig struct {
	Name    string
	Machine machine.Config
	// LC is the primary latency-critical application; required.
	LC *workload.Spec
	// Trace drives the LC application's offered load; required.
	Trace workload.Trace
	// BE is the co-located best-effort application; may be nil for a
	// dedicated server.
	BE *workload.Spec
	// ExtraBE holds additional best-effort tenants beyond BE, for the
	// multi-co-runner extensions (time-sharing and spatial sharing,
	// Section V-G). They start with no resources.
	ExtraBE []*workload.Spec
	// CapW is the provisioned power capacity; defaults to the LC app's
	// ProvisionedPowerW when zero.
	CapW float64
	// Seed makes the host's noise streams reproducible.
	Seed int64
	// SeriesCap bounds each telemetry series to the most recent SeriesCap
	// points (ring buffer). Zero keeps the series unbounded — the
	// experiments harness reads whole timelines back; long-running
	// control-plane agents set a cap so memory stays flat.
	SeriesCap int
	// SeriesHint preallocates each unbounded telemetry series for the
	// expected number of points (one per engine tick), so a fixed-length
	// run's hot path appends without reallocating. Ignored when SeriesCap
	// bounds the series.
	SeriesHint int
}

// meterPeriod is the power meter's sampling period, the paper's 100 ms
// RAPL setting.
const meterPeriod = 100 * time.Millisecond

// The host's observation noise, relative to the true value.
const (
	// meterNoise is the power meter's measurement noise.
	meterNoise = 0.01
	// latencyNoise is the tail-latency observation noise: real p99
	// measurements over one-second windows jitter.
	latencyNoise = 0.03
)

// Host is one simulated server in the cluster.
type Host struct {
	name   string
	cfg    machine.Config
	server *machine.Server
	lc     *workload.Spec
	bes    []*workload.Spec
	trace  workload.Trace
	capW   float64

	meter    *power.Meter
	energy   power.EnergyCounter
	capTrack *power.CapTracker
	rng      *rand.Rand

	// Live state updated each tick.
	elapsed      time.Duration
	curLoad      float64 // offered LC load, requests/s
	curGoodput   float64 // LC load actually served within capacity
	curP95       float64 // observed (noisy) p95, ms
	curP99       float64 // observed (noisy) p99, ms
	curPower     float64 // true instantaneous server power, W
	curBEThr     float64 // instantaneous BE throughput, ops/s
	sloViolDur   time.Duration
	totalDur     time.Duration
	beOps        telemetry.Counter
	beOpsBy      map[string]*telemetry.Counter
	lcOps        telemetry.Counter
	powerSeries  *telemetry.Series
	p95Series    *telemetry.Series
	p99Series    *telemetry.Series
	loadSeries   *telemetry.Series
	beThrSeries  *telemetry.Series
	slackSeries  *telemetry.Series
	lastReading  power.Reading
	beFullPowerW float64 // BE power if duty/freq were unthrottled (diagnostic)
}

// NewHost validates the configuration and builds the host with the LC
// tenant (and BE tenant, if any) registered on the machine. The LC tenant
// starts with the full machine; the BE tenant starts with nothing.
func NewHost(hc HostConfig) (*Host, error) {
	if hc.Name == "" {
		return nil, errors.New("sim: host needs a name")
	}
	if hc.LC == nil || hc.LC.Class != workload.LatencyCritical {
		return nil, fmt.Errorf("sim: host %q needs a latency-critical primary", hc.Name)
	}
	var bes []*workload.Spec
	if hc.BE != nil {
		bes = append(bes, hc.BE)
	}
	bes = append(bes, hc.ExtraBE...)
	seen := map[string]bool{hc.LC.Name: true}
	for _, be := range bes {
		if be == nil {
			return nil, fmt.Errorf("sim: host %q: nil co-runner", hc.Name)
		}
		if be.Class != workload.BestEffort {
			return nil, fmt.Errorf("sim: host %q: co-runner %q is not best-effort", hc.Name, be.Name)
		}
		if seen[be.Name] {
			return nil, fmt.Errorf("sim: host %q: duplicate tenant %q", hc.Name, be.Name)
		}
		seen[be.Name] = true
	}
	if hc.Trace == nil {
		return nil, fmt.Errorf("sim: host %q needs a load trace", hc.Name)
	}
	srv, err := machine.NewServer(hc.Machine)
	if err != nil {
		return nil, err
	}
	if err := srv.AddTenant(hc.LC.Name); err != nil {
		return nil, err
	}
	if err := srv.SetAlloc(hc.LC.Name, hc.Machine.Full()); err != nil {
		return nil, err
	}
	for _, be := range bes {
		if err := srv.AddTenant(be.Name); err != nil {
			return nil, err
		}
	}
	capW := hc.CapW
	if capW == 0 {
		capW = hc.LC.ProvisionedPowerW
	}
	if capW <= hc.Machine.IdlePowerW {
		return nil, fmt.Errorf("sim: host %q: power cap %v W does not clear the idle floor", hc.Name, capW)
	}
	capTrack, err := power.NewCapTracker(capW)
	if err != nil {
		return nil, err
	}
	newSeries := func() *telemetry.Series {
		s := telemetry.NewBoundedSeries(hc.SeriesCap)
		if hc.SeriesHint > 0 {
			s.Reserve(hc.SeriesHint)
		}
		return s
	}
	h := &Host{
		name:        hc.Name,
		cfg:         hc.Machine,
		server:      srv,
		lc:          hc.LC,
		bes:         bes,
		trace:       hc.Trace,
		capW:        capW,
		capTrack:    capTrack,
		rng:         rand.New(rand.NewSource(hc.Seed)),
		powerSeries: newSeries(),
		p95Series:   newSeries(),
		p99Series:   newSeries(),
		loadSeries:  newSeries(),
		beThrSeries: newSeries(),
		slackSeries: newSeries(),
		beOpsBy:     make(map[string]*telemetry.Counter, len(bes)),
	}
	for _, be := range bes {
		h.beOpsBy[be.Name] = &telemetry.Counter{}
	}
	h.meter, err = power.NewMeter(h.truePower, meterPeriod, meterNoise, hc.Seed+1)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Machine returns the machine configuration.
func (h *Host) Machine() machine.Config { return h.cfg }

// Server exposes the allocation knobs, exactly like the prototype's root
// access to taskset/CAT/cpupower.
func (h *Host) Server() *machine.Server { return h.server }

// LC returns the primary application's spec.
func (h *Host) LC() *workload.Spec { return h.lc }

// BE returns the first co-located best-effort spec, or nil.
func (h *Host) BE() *workload.Spec {
	if len(h.bes) == 0 {
		return nil
	}
	return h.bes[0]
}

// BEs returns all co-located best-effort specs in registration order.
func (h *Host) BEs() []*workload.Spec { return append([]*workload.Spec(nil), h.bes...) }

// CapW returns the provisioned power capacity.
func (h *Host) CapW() float64 { return h.capW }

// OfferedLoad returns the LC application's current offered load in
// requests/s.
func (h *Host) OfferedLoad() float64 { return h.curLoad }

// ObservedP95 returns the latest (noisy) p95 latency observation in ms.
func (h *Host) ObservedP95() float64 { return h.curP95 }

// ObservedP99 returns the latest (noisy) p99 latency observation in ms.
func (h *Host) ObservedP99() float64 { return h.curP99 }

// Slack returns the relative p99 latency slack: (SLO − p99)/SLO. Negative
// slack means the SLO is being violated.
func (h *Host) Slack() float64 {
	return (h.lc.SLO.P99Ms - h.curP99) / h.lc.SLO.P99Ms
}

// MeterReading returns the latest power-meter sample.
func (h *Host) MeterReading() power.Reading { return h.lastReading }

// TruePowerW returns the instantaneous ground-truth server power in watts,
// bypassing meter noise and the meter's sampling period. The invariant
// harness checks physics against truth; controllers must keep using the
// noisy meter.
func (h *Host) TruePowerW() float64 { return h.truePower() }

// AppPowerW returns a per-application power measurement in watts (the
// application's dynamic draw, excluding the idle floor), with the same
// relative noise as the server meter. The paper's prototype gets this
// signal from an application-level power meter (power containers) that
// apportions the socket draw; the simulator reads it from ground truth
// plus measurement noise.
func (h *Host) AppPowerW(name string) (float64, error) {
	a, err := h.server.Alloc(name)
	if err != nil {
		return 0, err
	}
	var truth float64
	switch {
	case name == h.lc.Name:
		truth = h.lc.Power(a, h.curLoad)
	default:
		for _, be := range h.bes {
			if be.Name == name {
				truth = be.Power(a, 0)
				break
			}
		}
	}
	noisy := truth * (1 + h.rng.NormFloat64()*0.02)
	if noisy < 0 {
		noisy = 0
	}
	return noisy, nil
}

// truePower computes the instantaneous ground-truth server power.
func (h *Host) truePower() float64 {
	p := h.cfg.IdlePowerW
	if a, err := h.server.Alloc(h.lc.Name); err == nil {
		p += h.lc.Power(a, h.curLoad)
	}
	for _, be := range h.bes {
		if a, err := h.server.Alloc(be.Name); err == nil {
			p += be.Power(a, 0)
		}
	}
	return p
}

// step advances the host's workload state by dt ending at now; start is
// the simulation origin used to index the trace.
func (h *Host) step(start, now time.Time, dt time.Duration) {
	h.elapsed = now.Sub(start)
	// Sanitize the trace output: traces are user-provided, and a buggy one
	// must not corrupt the power/energy accounting.
	frac := h.trace.LoadFraction(h.elapsed)
	switch {
	case math.IsNaN(frac) || frac < 0:
		frac = 0
	case frac > 1:
		frac = 1
	}
	h.curLoad = frac * h.lc.PeakLoad

	lcAlloc, err := h.server.Alloc(h.lc.Name)
	if err != nil {
		lcAlloc = machine.Alloc{}
	}
	h.curP95 = h.observe(h.lc.P95(lcAlloc, h.curLoad), h.lc.SLO.P95Ms)
	h.curP99 = h.observe(h.lc.P99(lcAlloc, h.curLoad), h.lc.SLO.P99Ms)

	// Goodput: the queue serves at most its SLO-compliant capacity.
	maxLoad := h.lc.MaxLoadSLO(lcAlloc)
	h.curGoodput = h.curLoad
	if h.curGoodput > maxLoad {
		h.curGoodput = maxLoad
	}
	h.lcOps.Add(h.curGoodput * dt.Seconds())

	// BE throughput on whatever each co-runner currently holds.
	h.curBEThr = 0
	h.beFullPowerW = 0
	for _, be := range h.bes {
		a, err := h.server.Alloc(be.Name)
		if err != nil {
			continue
		}
		thr := be.Throughput(a)
		h.curBEThr += thr
		h.beOpsBy[be.Name].Add(thr * dt.Seconds())
		unthrottled := a
		unthrottled.Duty = 1
		unthrottled.FreqGHz = h.cfg.MaxFreqGHz
		h.beFullPowerW += be.Power(unthrottled, 0)
	}
	h.beOps.Add(h.curBEThr * dt.Seconds())

	// Power accounting from ground truth; the meter adds sampling noise on
	// top for whoever reads it.
	h.curPower = h.truePower()
	h.lastReading = h.meter.Sample(now)
	h.energy.Observe(now, h.curPower)
	h.capTrack.Observe(now, h.curPower)

	h.totalDur += dt
	if h.curP99 > h.lc.SLO.P99Ms {
		h.sloViolDur += dt
	}

	// Telemetry.
	_ = h.powerSeries.Append(now, h.curPower)
	_ = h.p95Series.Append(now, h.curP95)
	_ = h.p99Series.Append(now, h.curP99)
	_ = h.loadSeries.Append(now, h.curLoad)
	_ = h.beThrSeries.Append(now, h.curBEThr)
	_ = h.slackSeries.Append(now, h.Slack())
}

// observe adds measurement noise to a ground-truth tail latency. Saturated
// measurements report a latency far beyond the SLO rather than +Inf so
// controllers see a huge-but-finite signal, as a timeout-bounded
// measurement would. (A method, not a per-step closure: step is the
// simulation's hot path and must not allocate.)
func (h *Host) observe(truth, slo float64) float64 {
	if isInf(truth) {
		return slo * 10
	}
	v := truth * (1 + h.rng.NormFloat64()*latencyNoise)
	if v < 0 {
		return 0
	}
	return v
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }

// Metrics summarizes a finished run on one host.
type Metrics struct {
	Host            string
	DurationSec     float64
	BEOps           float64 // total best-effort operations completed
	BEOpsBy         map[string]float64
	BEMeanThr       float64 // mean BE throughput, ops/s
	LCOps           float64 // total LC requests served
	MeanPowerW      float64
	PeakPowerW      float64
	PowerUtil       float64 // mean power / provisioned cap
	EnergyKWh       float64
	CapOverFrac     float64 // fraction of time above the cap
	CapEvents       int
	SLOViolFrac     float64 // fraction of time p99 exceeded the SLO
	MeanSlack       float64
	ProvisionedCapW float64
}

// Metrics returns the host's accumulated run statistics.
func (h *Host) Metrics() Metrics {
	capStats := h.capTrack.Stats()
	dur := h.totalDur.Seconds()
	perBE := make(map[string]float64, len(h.beOpsBy))
	for name, c := range h.beOpsBy {
		perBE[name] = c.Total()
	}
	m := Metrics{
		Host:            h.name,
		DurationSec:     dur,
		BEOps:           h.beOps.Total(),
		BEOpsBy:         perBE,
		LCOps:           h.lcOps.Total(),
		MeanPowerW:      capStats.MeanW,
		PeakPowerW:      capStats.PeakW,
		PowerUtil:       capStats.Utilization,
		EnergyKWh:       h.energy.KWh(),
		CapOverFrac:     capStats.OverFrac,
		CapEvents:       capStats.Events,
		MeanSlack:       h.slackSeries.TimeWeightedMean(),
		ProvisionedCapW: h.capW,
	}
	if dur > 0 {
		m.BEMeanThr = m.BEOps / dur
		m.SLOViolFrac = h.sloViolDur.Seconds() / dur
	}
	return m
}

// PowerSeries returns the per-tick true power series.
func (h *Host) PowerSeries() *telemetry.Series { return h.powerSeries }

// P95Series returns the per-tick observed p95 series.
func (h *Host) P95Series() *telemetry.Series { return h.p95Series }

// P99Series returns the per-tick observed p99 series.
func (h *Host) P99Series() *telemetry.Series { return h.p99Series }

// LoadSeries returns the per-tick offered load series.
func (h *Host) LoadSeries() *telemetry.Series { return h.loadSeries }

// BEThroughputSeries returns the per-tick BE throughput series.
func (h *Host) BEThroughputSeries() *telemetry.Series { return h.beThrSeries }

// BEThroughput returns the instantaneous best-effort throughput in ops/s.
func (h *Host) BEThroughput() float64 { return h.curBEThr }
