// Package online implements runtime model adaptation: the paper notes that
// applications "either provide their fitted parameters using historical
// knowledge or they are sampled online during execution" (Section IV-A).
// A Collector accumulates (allocation, performance, power) observations
// from live telemetry, and an Adapter periodically refits the Cobb-Douglas
// indirect utility model and swaps it into the server manager — so a
// manager that starts from a stale or borrowed model converges to the
// application actually running.
//
// The performance observation for a latency-critical application is
// recovered from live telemetry by inverting the tail-latency law: given
// the offered load and the observed p99, the utilization, capacity, and
// hence the max load at the profiler's SlackGuard follow in closed form —
// the same metric the offline profiler measures. Power observations come
// from the per-application power meter. The loop's timing is fixed: one
// observation per 1 s control period, a refit attempt every 10 s, over
// the last 240 observations.
package online

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Collector accumulates runtime observations for one application in a
// bounded ring and refits its utility model on demand.
type Collector struct {
	app       string
	resources []string
	capacity  int
	samples   []utility.Sample
	next      int
}

// NewCollector creates a collector keeping at most window samples.
func NewCollector(app string, resources []string, window int) (*Collector, error) {
	if app == "" {
		return nil, errors.New("online: collector needs an app name")
	}
	if len(resources) == 0 {
		return nil, errors.New("online: collector needs resource names")
	}
	if window < len(resources)+2 {
		return nil, fmt.Errorf("online: window %d too small to ever fit %d resources", window, len(resources))
	}
	return &Collector{
		app:       app,
		resources: append([]string(nil), resources...),
		capacity:  window,
		samples:   make([]utility.Sample, 0, window),
	}, nil
}

// Observe appends one runtime observation. Non-positive performance or
// allocation entries are rejected (the log-space fit cannot use them).
func (c *Collector) Observe(alloc []float64, perf, powerW float64) error {
	if len(alloc) != len(c.resources) {
		return fmt.Errorf("online: observation has %d resources, want %d", len(alloc), len(c.resources))
	}
	if perf <= 0 || powerW < 0 || math.IsNaN(perf) || math.IsNaN(powerW) {
		return fmt.Errorf("online: unusable observation perf=%v power=%v", perf, powerW)
	}
	for _, r := range alloc {
		if r <= 0 {
			return fmt.Errorf("online: unusable allocation %v", alloc)
		}
	}
	s := utility.Sample{Alloc: append([]float64(nil), alloc...), Perf: perf, Power: powerW}
	if len(c.samples) < c.capacity {
		c.samples = append(c.samples, s)
	} else {
		c.samples[c.next] = s
	}
	c.next = (c.next + 1) % c.capacity
	return nil
}

// Len returns the number of stored observations.
func (c *Collector) Len() int { return len(c.samples) }

// ResourceRange returns the smallest and largest observed value of
// resource j, or (0, 0) with no observations.
func (c *Collector) ResourceRange(j int) (lo, hi float64) {
	if len(c.samples) == 0 || j < 0 || j >= len(c.resources) {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.samples {
		if s.Alloc[j] < lo {
			lo = s.Alloc[j]
		}
		if s.Alloc[j] > hi {
			hi = s.Alloc[j]
		}
	}
	return lo, hi
}

// DistinctAllocs counts the distinct allocation vectors observed — the
// diversity the regression needs.
func (c *Collector) DistinctAllocs() int {
	seen := make(map[string]bool, len(c.samples))
	for _, s := range c.samples {
		key := fmt.Sprint(s.Alloc)
		seen[key] = true
	}
	return len(seen)
}

// MinDiversity is the number of distinct allocations required before a
// refit is attempted; fewer points leave the regression ill-conditioned.
const MinDiversity = 6

// MinSpread is the required max/min ratio per resource across the
// observations. A model fitted from a narrow band of allocations
// extrapolates wildly outside it; demanding 2× coverage on every resource
// keeps the controller's operating range inside the fitted region.
const MinSpread = 2.0

// Refit fits a fresh Cobb-Douglas model from the stored observations. It
// fails when the data lacks diversity or range coverage, or when the
// fitted model is degenerate.
func (c *Collector) Refit() (*utility.Model, error) {
	if c.DistinctAllocs() < MinDiversity {
		return nil, fmt.Errorf("online: only %d distinct allocations observed, need %d", c.DistinctAllocs(), MinDiversity)
	}
	for j, name := range c.resources {
		lo, hi := c.ResourceRange(j)
		if hi < lo*MinSpread {
			return nil, fmt.Errorf("online: %s observations span only [%v, %v]; refusing to extrapolate", name, lo, hi)
		}
	}
	m, err := utility.Fit(c.app, c.resources, c.samples)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// EstimateLCPerf inverts the latency law to recover the profiler's
// performance metric (max load at the slack guard) from one live
// observation of (offered load, p99) for the given SLO. It returns false
// when the observation carries no usable signal: the queue is so lightly
// loaded that the p99 sits at the latency floor, or so overloaded that
// the estimate would be extrapolation.
func EstimateLCPerf(load, p99, sloP99, slackGuard float64) (float64, bool) {
	if load <= 0 || p99 <= 0 || sloP99 <= 0 {
		return 0, false
	}
	l0 := 0.3 * sloP99
	b := (sloP99 - l0) * (1 - workload.SLOUtilization) / workload.SLOUtilization
	if p99 <= l0*1.02 || p99 >= sloP99*3 {
		return 0, false
	}
	x := (p99 - l0) / b // ρ/(1−ρ)
	rho := x / (1 + x)
	if rho <= 0.03 || rho >= 0.995 {
		return 0, false
	}
	capacity := load / rho
	// Max load at the slack guard, mirroring Spec.MaxLoadWithSlack.
	target := 1 - slackGuard
	xg := (target - 0.3) / ((1 - 0.3) * (1 - workload.SLOUtilization) / workload.SLOUtilization)
	rhoGuard := xg / (1 + xg)
	return rhoGuard * capacity, true
}

// The adaptation loop's timing: one observation per control period, a
// refit attempt every ten, and a ring holding the last four minutes of
// observations.
const (
	observePeriod     = time.Second
	refitPeriod       = 10 * time.Second
	observationWindow = 240
)

// Adapter wires a Collector to a host's telemetry and its manager.
type Adapter struct {
	host      *sim.Host
	mgr       *servermgr.Manager
	collector *Collector

	observations int
	rejected     int
	refits       int
	refitErrs    int
}

// NewAdapter builds the online adaptation loop for one host and the
// server manager whose model it refreshes; both are required.
func NewAdapter(host *sim.Host, mgr *servermgr.Manager) (*Adapter, error) {
	if host == nil {
		return nil, errors.New("online: nil host")
	}
	if mgr == nil {
		return nil, errors.New("online: nil manager")
	}
	collector, err := NewCollector(host.LC().Name, []string{"cores", "llc-ways"}, observationWindow)
	if err != nil {
		return nil, err
	}
	return &Adapter{host: host, mgr: mgr, collector: collector}, nil
}

// Attach registers the observation and refit loops on the engine.
func (a *Adapter) Attach(e *sim.Engine) error {
	if e == nil {
		return errors.New("online: nil engine")
	}
	if err := e.Every(observePeriod, a.ObserveTick); err != nil {
		return err
	}
	return e.Every(refitPeriod, a.RefitTick)
}

// ObserveTick ingests one telemetry observation.
func (a *Adapter) ObserveTick(time.Time) {
	lc := a.host.LC()
	alloc, err := a.host.Server().Alloc(lc.Name)
	if err != nil || alloc.Cores == 0 || alloc.Ways == 0 {
		a.rejected++
		return
	}
	perf, ok := EstimateLCPerf(a.host.OfferedLoad(), a.host.ObservedP99(), lc.SLO.P99Ms, profiler.SlackGuard)
	if !ok {
		a.rejected++
		return
	}
	powerW, err := a.host.AppPowerW(lc.Name)
	if err != nil {
		a.rejected++
		return
	}
	// Normalize the power observation to the saturated draw the profiler
	// measures: at runtime utilization u the meter reads u·(Σ rⱼ pⱼ);
	// dividing by u recovers the allocation's marginal cost.
	maxLoad, ok := EstimateLCPerf(a.host.OfferedLoad(), a.host.ObservedP99(), lc.SLO.P99Ms, 0)
	if !ok || maxLoad <= 0 {
		a.rejected++
		return
	}
	util := a.host.OfferedLoad() / maxLoad
	if util <= 0.05 || util > 1.05 {
		a.rejected++
		return
	}
	if util > 1 {
		util = 1
	}
	if err := a.collector.Observe([]float64{float64(alloc.Cores), float64(alloc.Ways)}, perf, powerW/util); err != nil {
		a.rejected++
		return
	}
	a.observations++
}

// ConservativeMargin shrinks the adapted model's performance scale before
// it drives allocation decisions: under-predicting capacity makes the
// controller over-allocate slightly (safe), the same one-sided bias the
// paper's 10% slack guard encodes.
const ConservativeMargin = 0.95

// BlendWeight is the weight of a fresh refit against the model currently
// in use. Online observations cluster along the controller's own
// trajectory, so a raw refit identifies the surface only near that ray and
// extrapolates badly off it; shrinking each refit halfway toward the prior
// keeps the exponents anchored to a full-surface shape while repeated
// refits converge the scale and preferences toward the live application.
const BlendWeight = 0.5

// blend interpolates two models: exponents and power coefficients
// linearly, the multiplicative scale geometrically.
func blend(prior, fresh *utility.Model, w float64) *utility.Model {
	out := &utility.Model{
		App:       fresh.App,
		Resources: append([]string(nil), fresh.Resources...),
		Alpha0:    math.Exp((1-w)*math.Log(prior.Alpha0) + w*math.Log(fresh.Alpha0)),
		Alpha:     make([]float64, len(fresh.Alpha)),
		PStatic:   (1-w)*prior.PStatic + w*fresh.PStatic,
		P:         make([]float64, len(fresh.P)),
		PerfR2:    fresh.PerfR2,
		PowerR2:   fresh.PowerR2,
		N:         fresh.N,
	}
	for j := range out.Alpha {
		out.Alpha[j] = (1-w)*prior.Alpha[j] + w*fresh.Alpha[j]
		out.P[j] = (1-w)*prior.P[j] + w*fresh.P[j]
	}
	return out
}

// CoverageFrac is the fraction of the machine each resource's observations
// must reach before a refit model may drive allocation: a Cobb-Douglas fit
// from small allocations overestimates large ones (it cannot see the
// contention that sets in near machine scale), so the adapter waits until
// the controller has actually operated near the top of the range.
const CoverageFrac = 0.6

// RefitTick attempts a refit and swaps the manager's model on success.
func (a *Adapter) RefitTick(time.Time) {
	cfg := a.host.Machine()
	if _, hiC := a.collector.ResourceRange(0); hiC < CoverageFrac*float64(cfg.Cores) {
		a.refitErrs++
		return
	}
	if _, hiW := a.collector.ResourceRange(1); hiW < CoverageFrac*float64(cfg.LLCWays) {
		a.refitErrs++
		return
	}
	fresh, err := a.collector.Refit()
	if err != nil {
		a.refitErrs++
		return
	}
	// Blend toward the model in use, undoing the previous margin first so
	// repeated blending does not compound it.
	prior := *a.mgr.Model()
	prior.Alpha = append([]float64(nil), prior.Alpha...)
	prior.P = append([]float64(nil), prior.P...)
	if a.refits > 0 {
		prior.Alpha0 /= ConservativeMargin
	}
	model := blend(&prior, fresh, BlendWeight)
	model.Alpha0 *= ConservativeMargin
	if err := a.mgr.SetModel(model); err != nil {
		a.refitErrs++
		return
	}
	a.refits++
}

// Stats reports the adapter's activity: ingested and rejected
// observations, successful refits, and refit failures.
func (a *Adapter) Stats() (observations, rejected, refits, refitErrs int) {
	return a.observations, a.rejected, a.refits, a.refitErrs
}
