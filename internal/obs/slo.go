package obs

import "time"

// An Objective is one service-level objective over an observed duration:
// values at or under Target are good, values over it breach. Every
// objective tolerates a breach fraction of sloBudget (99% of
// observations must meet the target); the burn rate gauge reports
// observed breach fraction divided by that budget, so burn > 1 means the
// error budget is being spent faster than allowed — the standard SLO
// alerting signal.
type Objective struct {
	// Name labels the objective's metric series ("round", "staleness").
	Name string
	// Target is the deadline or threshold observations are held to.
	Target time.Duration
}

// sloBudget is the breach fraction every objective tolerates.
const sloBudget = 0.01

// SLO tracks one objective: good/breach counters plus a burn-rate gauge,
// all registered under pocolo_obs_slo_*. A nil SLO is a no-op tracker.
type SLO struct {
	target time.Duration
	good   *Counter
	breach *Counter
	burn   *Gauge
}

// NewSLO registers the objective's series in reg. A nil registry yields
// a nil (no-op) tracker.
func NewSLO(reg *Registry, o Objective) *SLO {
	if reg == nil {
		return nil
	}
	l := Label{Key: "slo", Value: o.Name}
	s := &SLO{
		target: o.Target,
		good:   reg.Counter("pocolo_obs_slo_good_total", "Observations meeting their SLO target.", l),
		breach: reg.Counter("pocolo_obs_slo_breach_total", "Observations exceeding their SLO target.", l),
		burn:   reg.Gauge("pocolo_obs_slo_burn", "Error-budget burn rate: breach fraction over budget; >1 means the budget is being overspent.", l),
	}
	reg.Gauge("pocolo_obs_slo_target_seconds", "Configured SLO target.", l).Set(o.Target.Seconds())
	return s
}

// Observe classifies one observation against the target, updates the
// burn gauge, and reports whether this observation breached. The update
// is lock-free: counters stripe, and the gauge is last-write-wins over a
// ratio that converges regardless of write order.
func (s *SLO) Observe(d time.Duration) (breached bool) {
	if s == nil {
		return false
	}
	breached = d > s.target
	if breached {
		s.breach.Inc()
	} else {
		s.good.Inc()
	}
	g, b := s.good.Value(), s.breach.Value()
	if total := g + b; total > 0 {
		s.burn.Set(float64(b) / float64(total) / sloBudget)
	}
	return breached
}

// Burn returns the current burn-rate gauge value.
func (s *SLO) Burn() float64 {
	if s == nil {
		return 0
	}
	return s.burn.Value()
}
