// Package workload defines ground-truth application models for the four
// latency-critical (LC) primaries — img-dnn, sphinx, xapian, TPC-C — and
// the four best-effort (BE) secondaries — LSTM, RNN, Graph (PageRank),
// Pbzip — that the paper evaluates (Section V-A, Table II).
//
// The paper runs the real applications on hardware; offline we substitute
// analytic ground-truth models with the same observable surface: given an
// allocation of cores, LLC ways, frequency, and duty cycle, each model
// produces a service capacity, tail latency under load (LC), saturated
// throughput (BE), and dynamic power draw. The models are Cobb-Douglas in
// cores and ways — the family the paper fits — *plus* deliberate deviations
// (resource contention at high allocations, super-linear core power) so the
// fitted model is good but imperfect, matching the paper's reported R² of
// 0.8–0.98 rather than a tautological 1.0.
package workload

import (
	"fmt"
	"math"

	"pocolo/internal/machine"
)

// Class distinguishes latency-critical primaries from best-effort
// secondaries.
type Class int

const (
	// LatencyCritical applications own the cluster: the infrastructure is
	// provisioned for their peak and they have absolute resource priority.
	LatencyCritical Class = iota
	// BestEffort applications harvest spare resources and may be throttled
	// at any time to keep the server inside its power capacity.
	BestEffort
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case LatencyCritical:
		return "latency-critical"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// SLO holds the latency service-level objectives of an LC application
// (Table II), in milliseconds.
type SLO struct {
	P95Ms float64
	P99Ms float64
}

// SLOUtilization is the queue utilization ρ = load/capacity at which the
// p99 latency model exactly meets the SLO; loads above it violate the SLO.
// The latency curves are calibrated around this constant.
const SLOUtilization = 0.85

// Spec is the ground-truth model of one application. Specs are immutable
// after construction; all methods are safe for concurrent use.
type Spec struct {
	Name   string
	Class  Class
	Domain string

	// Cobb-Douglas capacity exponents for cores and LLC ways, plus the
	// frequency sensitivity exponent (performance ∝ (f/fmax)^FreqExp).
	AlphaCores float64
	AlphaWays  float64
	FreqExp    float64

	// Contention coefficients: capacity is multiplied by
	// (1 − EtaCores·(c/Cmax)²)·(1 − EtaWays·(w/Wmax)²), a mild
	// super-Cobb-Douglas penalty that keeps the fitted R² below 1.
	EtaCores float64
	EtaWays  float64

	// Ground-truth marginal dynamic power, watts per core (at max
	// frequency, fully utilized) and per LLC way.
	PowerPerCoreW float64
	PowerPerWayW  float64
	// PowerKappa adds a super-linear core-power term: the per-core power
	// is multiplied by (1 + PowerKappa·c/Cmax), modelling shared uncore
	// activity the linear fit cannot capture exactly.
	PowerKappa float64

	// PeakLoad is the Table II peak: for LC apps, the maximum load
	// (requests/s) sustainable within the SLO on the full machine; for BE
	// apps, the saturated throughput (normalized ops/s) on the full
	// machine.
	PeakLoad float64

	// SLO holds the tail-latency targets (LC apps only).
	SLO SLO

	// ProvisionedPowerW is the right-sized server power capacity for a
	// cluster dedicated to this LC application (Table II "peak server
	// power"); zero for BE apps.
	ProvisionedPowerW float64

	ref    machine.Config // platform the spec was calibrated against
	alpha0 float64        // capacity scale, computed by calibrate
}

// Alpha0 returns the calibrated Cobb-Douglas scale constant.
func (s *Spec) Alpha0() float64 { return s.alpha0 }

// calibrate fixes alpha0 so that the full-machine operating point matches
// PeakLoad: for LC apps the max SLO-compliant load on the full machine is
// PeakLoad; for BE apps the saturated full-machine throughput is PeakLoad.
func (s *Spec) calibrate(cfg machine.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !(s.PeakLoad > 0) || math.IsInf(s.PeakLoad, 0) {
		return fmt.Errorf("workload %q: peak load must be positive and finite", s.Name)
	}
	if !(s.AlphaCores > 0) || !(s.AlphaWays > 0) {
		return fmt.Errorf("workload %q: Cobb-Douglas exponents must be positive", s.Name)
	}
	if math.IsNaN(s.PowerPerCoreW) || math.IsInf(s.PowerPerCoreW, 0) || s.PowerPerCoreW < 0 ||
		math.IsNaN(s.PowerPerWayW) || math.IsInf(s.PowerPerWayW, 0) || s.PowerPerWayW < 0 {
		return fmt.Errorf("workload %q: degenerate power model", s.Name)
	}
	s.ref = cfg
	s.alpha0 = 1
	full := cfg.Full()
	raw := s.Capacity(full)
	// The positive-form check rejects NaN too; an infinite raw capacity
	// (overflow from extreme catalog inputs) would otherwise calibrate
	// alpha0 to zero and yield a silently dead application.
	if !(raw > 0) || math.IsInf(raw, 0) {
		return fmt.Errorf("workload %q: degenerate capacity model", s.Name)
	}
	switch s.Class {
	case LatencyCritical:
		// MaxLoadSLO = SLOUtilization × capacity; make it equal PeakLoad.
		s.alpha0 = s.PeakLoad / (SLOUtilization * raw)
	case BestEffort:
		s.alpha0 = s.PeakLoad / raw
	default:
		return fmt.Errorf("workload %q: unknown class %v", s.Name, s.Class)
	}
	if !(s.alpha0 > 0) || math.IsInf(s.alpha0, 0) {
		return fmt.Errorf("workload %q: degenerate capacity scale", s.Name)
	}
	return nil
}

// contention returns the super-Cobb-Douglas capacity penalty at an
// allocation.
func (s *Spec) contention(a machine.Alloc) float64 {
	cFrac := float64(a.Cores) / float64(s.ref.Cores)
	wFrac := float64(a.Ways) / float64(s.ref.LLCWays)
	return (1 - s.EtaCores*cFrac*cFrac) * (1 - s.EtaWays*wFrac*wFrac)
}

// Capacity returns the raw service capacity (requests/s for LC apps,
// normalized ops/s for BE apps) of an allocation. Zero cores or zero ways
// yield zero capacity: every application needs at least one of each to run.
func (s *Spec) Capacity(a machine.Alloc) float64 {
	if a.Cores <= 0 || a.Ways <= 0 {
		return 0
	}
	duty := a.Duty
	if duty <= 0 || duty > 1 {
		duty = 1
	}
	fRel := a.FreqGHz / s.ref.MaxFreqGHz
	if fRel <= 0 {
		return 0
	}
	cd := math.Pow(float64(a.Cores), s.AlphaCores) * math.Pow(float64(a.Ways), s.AlphaWays)
	return s.alpha0 * cd * math.Pow(fRel, s.FreqExp) * s.contention(a) * duty
}

// MaxLoadSLO returns the highest load the LC application can sustain on the
// allocation while meeting its p99 SLO exactly (the paper's "maximum
// achievable application load within the target latency" metric).
func (s *Spec) MaxLoadSLO(a machine.Alloc) float64 {
	return SLOUtilization * s.Capacity(a)
}

// MaxLoadWithSlack returns the highest load sustainable while keeping at
// least the given relative p99 slack (slack 0.1 = p99 ≤ 90% of the SLO).
// The paper profiles and controls against a ≥10% slack guard; this inverts
// the latency law for that target.
func (s *Spec) MaxLoadWithSlack(a machine.Alloc, slack float64) float64 {
	if slack >= 0.7 {
		// The latency floor is 30% of the SLO; more slack than that is
		// unreachable at any load.
		return 0
	}
	if slack < 0 {
		slack = 0
	}
	// Invert L0 + B·ρ/(1−ρ) = (1−slack)·SLO with L0 = 0.3·SLO and B set by
	// the SLOUtilization calibration (see latencyCurve).
	l0 := 0.3
	b := (1 - l0) * (1 - SLOUtilization) / SLOUtilization
	target := 1 - slack
	x := (target - l0) / b // ρ/(1−ρ)
	rho := x / (1 + x)
	return rho * s.Capacity(a)
}

// latencyCurve evaluates L0 + B·ρ/(1−ρ), the open-queueing-flavoured tail
// latency law, calibrated so that latency == slo exactly at ρ ==
// SLOUtilization. Loads at or beyond capacity return +Inf.
func latencyCurve(slo, rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho < 0 {
		rho = 0
	}
	l0 := 0.3 * slo
	// Solve l0 + B·ρs/(1−ρs) = slo for B at ρs = SLOUtilization.
	b := (slo - l0) * (1 - SLOUtilization) / SLOUtilization
	return l0 + b*rho/(1-rho)
}

// P99 returns the ground-truth 99th-percentile latency (ms) of the LC
// application at the given load on the given allocation.
func (s *Spec) P99(a machine.Alloc, load float64) float64 {
	cap := s.Capacity(a)
	if cap <= 0 {
		return math.Inf(1)
	}
	return latencyCurve(s.SLO.P99Ms, load/cap)
}

// P95 returns the ground-truth 95th-percentile latency (ms).
func (s *Spec) P95(a machine.Alloc, load float64) float64 {
	cap := s.Capacity(a)
	if cap <= 0 {
		return math.Inf(1)
	}
	return latencyCurve(s.SLO.P95Ms, load/cap)
}

// MeetsSLO reports whether the allocation sustains the load with at least
// the given relative p99 slack (slack 0.1 = latency ≤ 90% of the SLO).
func (s *Spec) MeetsSLO(a machine.Alloc, load, slack float64) bool {
	return s.P99(a, load) <= s.SLO.P99Ms*(1-slack)
}

// Throughput returns the saturated throughput of a BE application on the
// allocation (equal to Capacity; BE apps are work-conserving and always
// saturate their grant).
func (s *Spec) Throughput(a machine.Alloc) float64 {
	return s.Capacity(a)
}

// freqPowerFactor is the dynamic-power scaling with frequency: a cube-law
// dynamic component over a static floor. At f == fmax it is exactly 1.
func (s *Spec) freqPowerFactor(f float64) float64 {
	fRel := f / s.ref.MaxFreqGHz
	if fRel < 0 {
		fRel = 0
	}
	return 0.3 + 0.7*fRel*fRel*fRel
}

// Power returns the application's dynamic power draw (watts, excluding the
// server's static/idle floor) on the allocation at the given load.
//
// For LC apps utilization scales the draw: u = min(1, load/MaxLoadSLO),
// reaching the Table II peak power exactly at peak load. For BE apps the
// load argument is ignored and utilization is 1 (saturating); pass any
// value.
func (s *Spec) Power(a machine.Alloc, load float64) float64 {
	if a.Cores <= 0 && a.Ways <= 0 {
		return 0
	}
	util := 1.0
	if s.Class == LatencyCritical {
		maxLoad := s.MaxLoadSLO(a)
		if maxLoad <= 0 {
			return 0
		}
		util = load / maxLoad
		if util > 1 {
			util = 1
		}
		if util < 0 {
			util = 0
		}
	}
	duty := a.Duty
	if duty <= 0 || duty > 1 {
		duty = 1
	}
	cFrac := float64(a.Cores) / float64(s.ref.Cores)
	corePart := float64(a.Cores) * s.PowerPerCoreW * (1 + s.PowerKappa*cFrac) * s.freqPowerFactor(a.FreqGHz)
	wayPart := float64(a.Ways) * s.PowerPerWayW
	return duty * util * (corePart + wayPart)
}

// PreferenceTruth returns the ground-truth indirect-utility preference of
// the application for cores vs ways: (αc/pc, αw/pw) normalized to sum to 1.
// This is the quantity the paper's fitted preference vector estimates.
func (s *Spec) PreferenceTruth() (cores, ways float64) {
	rc := s.AlphaCores / s.PowerPerCoreW
	rw := s.AlphaWays / s.PowerPerWayW
	sum := rc + rw
	return rc / sum, rw / sum
}

// DirectPreferenceTruth returns the ground-truth direct-utility preference
// (αc, αw) normalized to sum to 1 — the power-unaware ranking.
func (s *Spec) DirectPreferenceTruth() (cores, ways float64) {
	sum := s.AlphaCores + s.AlphaWays
	return s.AlphaCores / sum, s.AlphaWays / sum
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, %s)", s.Name, s.Class, s.Domain)
}
