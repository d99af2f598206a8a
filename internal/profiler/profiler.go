// Package profiler sweeps an application across the server's allocation
// grid and collects (allocation, performance, power) samples for utility
// model fitting — the paper's Section IV-A profiling step.
//
// For latency-critical applications the performance metric is the maximum
// achievable load within the target latency, and only samples taken with at
// least SlackGuard tail-latency slack are kept ("as an initial guard
// against model inaccuracies, we use samples where the tail latency of the
// primary application has at least 10% slack with respect to its SLO").
// For best-effort applications the metric is saturated throughput.
// Measurement noise models the telemetry path (application counters and
// the per-application power meter).
package profiler

import (
	"errors"
	"fmt"
	"math/rand"

	"pocolo/internal/machine"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// ResourceNames are the direct resources the prototype profiles and
// manages (Section IV: CPU cores and LLC cache ways).
var ResourceNames = []string{"cores", "llc-ways"}

// Config parameterizes one profiling sweep.
type Config struct {
	// Spec is the application to profile; required.
	Spec *workload.Spec
	// Machine is the platform to profile on; required.
	Machine machine.Config
	// CoreStep and WayStep set the grid stride (default 1: every
	// allocation). Coarser strides model cheaper profiling.
	CoreStep int
	WayStep  int
	// Seed makes the sweep reproducible.
	Seed int64
}

// SlackGuard is the minimum relative p99 slack an LC sample must have to
// be kept: the paper's 10% guard against model inaccuracies. The online
// adapter recovers its performance observations at the same guard.
const SlackGuard = 0.10

// The sweep's relative measurement noise: application counters and the
// per-application power meter.
const (
	perfNoise  = 0.04
	powerNoise = 0.02
)

// Profile is the result of a sweep.
type Profile struct {
	App       string
	Resources []string
	Samples   []utility.Sample
	// Kept and Swept count the samples retained vs grid points visited
	// (LC samples failing the slack guard are dropped).
	Kept  int
	Swept int
}

// Run executes the profiling sweep.
func Run(cfg Config) (*Profile, error) {
	if cfg.Spec == nil {
		return nil, errors.New("profiler: nil spec")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	coreStep := cfg.CoreStep
	if coreStep == 0 {
		coreStep = 1
	}
	wayStep := cfg.WayStep
	if wayStep == 0 {
		wayStep = 1
	}
	if coreStep < 1 || wayStep < 1 {
		return nil, fmt.Errorf("profiler: invalid grid strides %d/%d", coreStep, wayStep)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Profile{App: cfg.Spec.Name, Resources: append([]string(nil), ResourceNames...)}
	for c := 1; c <= cfg.Machine.Cores; c += coreStep {
		for w := 1; w <= cfg.Machine.LLCWays; w += wayStep {
			p.Swept++
			alloc := machine.Alloc{Cores: c, Ways: w, FreqGHz: cfg.Machine.MaxFreqGHz, Duty: 1}
			var perf, powerW float64
			switch cfg.Spec.Class {
			case workload.LatencyCritical:
				// Load the app to the highest level that preserves the
				// slack guard, and measure there.
				load := cfg.Spec.MaxLoadWithSlack(alloc, SlackGuard)
				if load <= 0 {
					continue
				}
				perf = load
				powerW = cfg.Spec.Power(alloc, load)
			case workload.BestEffort:
				perf = cfg.Spec.Throughput(alloc)
				powerW = cfg.Spec.Power(alloc, 0)
			default:
				return nil, fmt.Errorf("profiler: unknown class %v", cfg.Spec.Class)
			}
			perf *= 1 + rng.NormFloat64()*perfNoise
			powerW *= 1 + rng.NormFloat64()*powerNoise
			if perf <= 0 || powerW < 0 {
				continue
			}
			p.Samples = append(p.Samples, utility.Sample{
				Alloc: []float64{float64(c), float64(w)},
				Perf:  perf,
				Power: powerW,
			})
			p.Kept++
		}
	}
	if len(p.Samples) == 0 {
		return nil, fmt.Errorf("profiler: sweep for %s produced no usable samples", cfg.Spec.Name)
	}
	return p, nil
}

// Fit fits the Cobb-Douglas indirect utility model to the profile.
func (p *Profile) Fit() (*utility.Model, error) {
	return utility.Fit(p.App, p.Resources, p.Samples)
}

// ProfileAndFit runs the sweep and fits the model in one step, validating
// the fitted parameters.
func ProfileAndFit(cfg Config) (*utility.Model, error) {
	p, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	m, err := p.Fit()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// FitAll profiles and fits every application in the list on the same
// platform, returning models keyed by application name. Per-app seeds are
// derived from the base seed.
func FitAll(cfgMachine machine.Config, specs []*workload.Spec, seed int64) (map[string]*utility.Model, error) {
	models := make(map[string]*utility.Model, len(specs))
	for i, s := range specs {
		m, err := ProfileAndFit(Config{
			Spec:    s,
			Machine: cfgMachine,
			Seed:    seed + int64(i)*101,
		})
		if err != nil {
			return nil, fmt.Errorf("profiler: %s: %w", s.Name, err)
		}
		models[s.Name] = m
	}
	return models, nil
}
