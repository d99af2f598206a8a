// Package servermgr implements the paper's server-level resource manager
// (Section IV-C). Once per second it sizes the primary latency-critical
// application's allocation for the current load — the power-optimized
// manager (POM) walks the fitted Cobb-Douglas model's least-power
// configurations, while the baseline walks the indifference curve without
// differentiating resources by power, as the Heracles-style feedback
// controller does. Spare resources go to the best-effort co-runner. Every
// 100 ms a power capper compares the power-meter reading against the
// provisioned capacity and throttles the best-effort application — per-core
// DVFS first, CPU duty-cycling second — to keep the server inside its
// budget.
package servermgr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// LCPolicy selects how the manager picks the primary application's
// allocation among the feasible (SLO-preserving) configurations.
type LCPolicy int

const (
	// PowerUnaware picks the feasible allocation holding the fewest
	// resources overall, without regard to its power draw — the paper's
	// baseline ("resources are not differentiated by their power use").
	PowerUnaware LCPolicy = iota
	// PowerOptimized picks the feasible allocation drawing the least
	// power under the fitted model — the POM policy.
	PowerOptimized
)

// String implements fmt.Stringer.
func (p LCPolicy) String() string {
	switch p {
	case PowerUnaware:
		return "power-unaware"
	case PowerOptimized:
		return "power-optimized"
	default:
		return fmt.Sprintf("LCPolicy(%d)", int(p))
	}
}

// Config assembles a manager for one host.
type Config struct {
	// Host is the managed server; required.
	Host *sim.Host
	// Model is the fitted utility model of the host's LC application;
	// required (both policies search its feasible set; only POM uses its
	// power coefficients).
	Model *utility.Model
	// Policy selects the LC allocation strategy (default PowerUnaware).
	Policy LCPolicy
	// TargetSlack is the minimum relative p99 slack the controller defends
	// (default 0.10, the paper's guard).
	TargetSlack float64
	// Seed drives the power-unaware baseline's arbitrary choice among
	// feasible allocations; POM ignores it.
	Seed int64
	// BEModels optionally maps co-runner names to their fitted utility
	// models. With two or more co-runners on the host, the manager uses
	// them to split the spare resources spatially (the paper's Section
	// V-G extension); without models the spare is split evenly.
	BEModels map[string]*utility.Model
	// DutyFirst reverses the power capper's knob order: duty-cycling
	// before frequency scaling. The paper's order (frequency first) is the
	// default; the ablation experiments exercise both.
	DutyFirst bool
	// Tracer, when non-nil, receives one ControlDecision per control tick,
	// one CapAction per capper knob movement, and tick-phase span events.
	// A nil tracer disables tracing at the cost of a nil check per site.
	Tracer *trace.Tracer
	// Obs, when non-nil, receives the tick-phase duration histograms
	// pocolo_tick_duration_seconds{phase="control_tick"|"cap_tick"} and
	// the LC slack distribution pocolo_lc_slack_ratio_distribution (one
	// observation per control tick, over fixed slack bounds). A
	// controlplane agent passes its own registry here and renders both on
	// its /metrics. The duration histograms merge across managers, giving
	// fleet-wide phase timing. A nil registry records nothing and reads no
	// clock.
	Obs *obs.Registry
}

// Manager runs the two control loops for one host.
type Manager struct {
	host  *sim.Host
	model *utility.Model

	policy      LCPolicy
	targetSlack float64

	// boost is the feedback integrator: extra resource units granted on
	// top of the model's allocation when observed slack runs low.
	boost int
	// lcFreq is the primary's current DVFS setting (POM trims it when
	// slack is abundant).
	lcFreq float64
	// beFreq/beDuty are the capper's throttle state, applied uniformly to
	// the host's whole best-effort partition.
	beFreq float64
	beDuty float64
	// beModels and dutyFirst configure the multi-co-runner spare split and
	// the capper knob order.
	beModels  map[string]*utility.Model
	dutyFirst bool
	// activeBE, when non-empty, restricts the spare resources to a single
	// co-runner (the temporal-sharing scheduler's hook); the others idle.
	activeBE string
	// beParked, when set, withholds the spare resources from every
	// co-runner — the control plane's eviction state for a server whose
	// best-effort tenant has been migrated elsewhere.
	beParked bool
	// capOverrideW replaces the host's provisioned capacity as the capper's
	// budget when positive — the hook a cluster-level power budgeter uses
	// to assign dynamic per-server budgets.
	capOverrideW float64
	// rng drives the baseline's arbitrary frontier choice.
	rng *rand.Rand

	// lastTarget is the load target the previous control tick sized the
	// allocation for; violations observed at an unchanged target mean the
	// sizing itself is wrong, not merely stale.
	lastTarget float64

	// plan is the precomputed allocation planner for (model, machine caps),
	// resolved from the process-wide utility.Plans cache; nil means
	// utility.Plans refused the grid and every lookup takes the exact
	// per-tick grid search. planCell is the frontier cell the previous
	// lookup landed in (-1 none) — the warm start: when the target stays
	// inside the same quantization cell the answer is reused in O(1).
	plan     *utility.Plan
	planCell int
	caps     [2]int

	// Scratch buffers reused across ticks: the grid scans in feasibleAlloc
	// and bestPairSplit run every control period on every host and must not
	// allocate per candidate.
	vecA     [2]float64
	frontier []utility.GridPoint
	splitA   splitTables
	splitB   splitTables

	// tracer records decisions and tick-phase spans (nil = disabled);
	// lastPath remembers which search path served the latest
	// feasibleAlloc call so ControlTick can stamp it on the decision
	// event.
	tracer   *trace.Tracer
	lastPath string

	// tick-phase duration histograms and the slack distribution (nil =
	// disabled, zero cost)
	obsControl *obs.Histogram
	obsCap     *obs.Histogram
	obsSlack   *obs.ValueHistogram

	// counters for introspection and tests
	controlTicks int
	capThrottles int
	capRestores  int
	// beThrottles/beRestores count capper interventions that actually
	// moved a knob, unlike capThrottles/capRestores which also count
	// over/under-budget ticks with the knobs already at their limits.
	beThrottles  int
	beRestores   int
	plannerHits  int
	plannerWarm  int
	planFallback int
}

const maxBoost = 4

// CapPeriod is the power capper's period, the paper's 100 ms (Section
// IV-C). It is also the tick every simulation engine steps at, so the
// capper acts on every step.
const CapPeriod = 100 * time.Millisecond

// The manager's other fixed loop parameters: the paper's 1 s allocation
// loop, and this implementation's model headroom and capper hysteresis.
const (
	// controlPeriod is the LC allocation loop period.
	controlPeriod = time.Second
	// loadHeadroom inflates the model's load target to absorb model error.
	loadHeadroom float64 = 1.05
	// capGuard is the relative hysteresis band under the cap within which
	// the capper neither throttles nor restores.
	capGuard float64 = 0.03
)

// The tick-phase duration family, shared with the controller's own
// build_matrix and solve phases.
const (
	tickMetric = "pocolo_tick_duration_seconds"
	tickHelp   = "Wall-clock duration of control-plane phases, by phase span."
)

// slackBounds are the upper bounds of the LC slack distribution's
// buckets. Negative slack is an SLO violation; the target region is
// ~[0, 0.2].
var slackBounds = []float64{-0.5, -0.25, -0.1, -0.05, 0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5}

// DutyFloor is the lowest duty cycle the power capper will impose on the
// best-effort partition. At the floor (and at the platform's minimum
// frequency) the capper has exhausted its knobs; the invariant harness
// treats sustained over-cap power beyond that point as physics, not a
// controller bug.
const DutyFloor = 0.05

const dutyFloor = DutyFloor

// New validates the configuration and builds a manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Host == nil {
		return nil, errors.New("servermgr: nil host")
	}
	if cfg.Model == nil {
		return nil, errors.New("servermgr: nil utility model")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Model.Alpha) != 2 {
		return nil, fmt.Errorf("servermgr: need a 2-resource (cores, ways) model, have %d", len(cfg.Model.Alpha))
	}
	m := &Manager{
		host:        cfg.Host,
		model:       cfg.Model,
		policy:      cfg.Policy,
		targetSlack: cfg.TargetSlack,
		lcFreq:      cfg.Host.Machine().MaxFreqGHz,
		beFreq:      cfg.Host.Machine().MaxFreqGHz,
		beDuty:      1,
		beModels:    cfg.BEModels,
		dutyFirst:   cfg.DutyFirst,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		tracer:      cfg.Tracer,
	}
	if cfg.Obs != nil {
		m.obsControl = cfg.Obs.Histogram(tickMetric, tickHelp, obs.Label{Key: "phase", Value: "control_tick"})
		m.obsCap = cfg.Obs.Histogram(tickMetric, tickHelp, obs.Label{Key: "phase", Value: "cap_tick"})
		m.obsSlack = cfg.Obs.ValueHistogram("pocolo_lc_slack_ratio_distribution",
			"Distribution of the primary's per-control-tick latency slack.", slackBounds)
	}
	if m.targetSlack == 0 {
		m.targetSlack = 0.10
	}
	if m.targetSlack < 0 || m.targetSlack >= 0.5 {
		return nil, fmt.Errorf("servermgr: target slack %v outside [0, 0.5)", m.targetSlack)
	}
	mc := cfg.Host.Machine()
	m.caps = [2]int{mc.Cores, mc.LLCWays}
	m.rebindPlan()
	return m, nil
}

// rebindPlan resolves the planner for the current (model, caps) pair
// through utility.SharedPlan. A construction failure (hostile model, a grid over
// utility.MaxPlanPoints) leaves the plan nil and the manager on the exact
// search — never an error.
func (m *Manager) rebindPlan() {
	m.plan = nil
	m.planCell = -1
	if plan, err := utility.SharedPlan(m.model, m.caps[:]); err == nil {
		m.plan = plan
	}
}

// Attach registers the manager's control loops on the engine and applies
// an initial allocation.
func (m *Manager) Attach(e *sim.Engine) error {
	if e == nil {
		return errors.New("servermgr: nil engine")
	}
	m.ControlTick(e.Now())
	if err := e.Every(controlPeriod, m.ControlTick); err != nil {
		return err
	}
	return e.Every(CapPeriod, m.CapTick)
}

// Start brings up one managed server on e: it builds the host hc
// describes, builds a manager from cfg over that host, registers the host
// on e and attaches the manager there, so a manager always runs on the
// engine that steps its own host. cfg.Host must be nil; Start fills it.
func Start(e *sim.Engine, hc sim.HostConfig, cfg Config) (*sim.Host, *Manager, error) {
	if e == nil {
		return nil, nil, errors.New("servermgr: nil engine")
	}
	if cfg.Host != nil {
		return nil, nil, errors.New("servermgr: Start builds the host; cfg.Host must be nil")
	}
	host, err := sim.NewHost(hc)
	if err != nil {
		return nil, nil, err
	}
	cfg.Host = host
	mgr, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := e.AddHost(host); err != nil {
		return nil, nil, err
	}
	if err := mgr.Attach(e); err != nil {
		return nil, nil, err
	}
	return host, mgr, nil
}

// feasibleAlloc picks the LC allocation for the load target according to
// the policy. Returns false when no allocation within the machine meets
// the target (the controller then grants the full machine).
func (m *Manager) feasibleAlloc(target float64) (cores, ways int, ok bool) {
	cfg := m.host.Machine()
	switch m.policy {
	case PowerOptimized:
		if m.plan != nil {
			// Planner path: O(1) warm-start re-check of last tick's cell,
			// O(log cells) binary search otherwise. Bit-identical to the
			// exact search below.
			c, w, cell, feasible := m.plan.MinPower2(target, m.planCell)
			if feasible && cell == m.planCell {
				m.plannerWarm++
				m.lastPath = trace.PathPlannerWarm
			} else {
				m.plannerHits++
				m.lastPath = trace.PathPlannerHit
			}
			m.planCell = cell
			return c, w, feasible
		}
		m.planFallback++
		m.lastPath = trace.PathExact
		alloc, err := m.model.IntegerMinPowerAlloc(target, m.caps[:])
		if err != nil {
			return 0, 0, false
		}
		return alloc[0], alloc[1], true
	default:
		// Power-unaware: any point on the feasible frontier of the
		// indifference curve — the paper's baseline does not differentiate
		// resources by their power use, so the choice among minimal
		// feasible allocations is arbitrary (uniformly random here). The
		// planner reproduces the same frontier from its precomputed perf
		// tables, so the RNG draw (and thus the whole run) is unchanged.
		if m.plan != nil {
			m.plannerHits++
			m.lastPath = trace.PathPlannerHit
			m.frontier = m.plan.AppendUnawareFrontier(target, m.frontier[:0])
		} else {
			m.planFallback++
			m.lastPath = trace.PathExact
			frontier := m.frontier[:0]
			for c := 1; c <= cfg.Cores; c++ {
				w := -1
				m.vecA[0] = float64(c)
				for cand := 1; cand <= cfg.LLCWays; cand++ {
					m.vecA[1] = float64(cand)
					if m.model.Perf(m.vecA[:]) >= target {
						w = cand
						break
					}
				}
				if w == -1 {
					continue
				}
				// Drop dominated points: a frontier point must not use both
				// more cores and at least as many ways as a previous one.
				if n := len(frontier); n > 0 && frontier[n-1].W == w {
					continue
				}
				frontier = append(frontier, utility.GridPoint{C: c, W: w})
			}
			m.frontier = frontier
		}
		if len(m.frontier) == 0 {
			return 0, 0, false
		}
		p := m.frontier[m.rng.Intn(len(m.frontier))]
		return p.C, p.W, true
	}
}

// ControlTick runs one iteration of the 1 s LC allocation loop.
func (m *Manager) ControlTick(now time.Time) {
	defer m.obsControl.Start().Stop()
	sp := m.tracer.StartSpan("control_tick")
	m.controlTicks++
	cfg := m.host.Machine()
	load := m.host.OfferedLoad()
	slack := m.host.Slack()
	m.obsSlack.Observe(slack)

	// Feedback integrator: starve → boost, comfortable → relax. The model
	// target already encodes the slack guard (profiling measured max load
	// AT the guard), so boost only corrects residual model error. An
	// outright SLO violation jumps the boost to its maximum at once — the
	// paper's manager "quickly changes the allocation configuration" on a
	// significant slack change rather than creeping toward it.
	if m.controlTicks > 1 {
		switch {
		case slack < 0 && sameTarget(load*loadHeadroom, m.lastTarget):
			// Still violating at the operating point the previous tick
			// already sized for: the model is off here, jump straight to
			// the maximum correction ("quickly changes the allocation
			// configuration"). A violation right after a load change is
			// just staleness — the per-tick resize below handles it.
			m.boost = maxBoost
		case slack < m.targetSlack && m.boost < maxBoost:
			m.boost++
		case slack > m.targetSlack+0.15 && m.boost > 0:
			m.boost--
		}
	}

	target := load * loadHeadroom
	m.lastTarget = target
	var cores, ways int
	feasible := false
	if target <= 0 {
		// No load observed yet (cold start): keep the primary safe with
		// the full machine until the first real observation arrives.
		cores, ways = cfg.Cores, cfg.LLCWays
		m.lastPath = trace.PathColdStart
	} else if c, w, ok := m.feasibleAlloc(target); ok {
		cores, ways = c, w
		feasible = true
	} else {
		cores, ways = cfg.Cores, cfg.LLCWays
		m.lastPath = trace.PathFullMachine
	}
	cores = clampInt(cores+m.boost, 1, cfg.Cores)
	ways = clampInt(ways+m.boost, 1, cfg.LLCWays)

	// LC frequency: POM trims the clock when slack is abundant and snaps
	// back when it tightens; the baseline always runs at max.
	if m.policy == PowerOptimized && m.controlTicks > 1 {
		switch {
		case slack < m.targetSlack+0.10:
			m.lcFreq = cfg.MaxFreqGHz
		case slack > m.targetSlack+0.30 && m.lcFreq > cfg.MinFreqGHz:
			m.lcFreq = cfg.ClampFreq(m.lcFreq - cfg.FreqStepGHz)
		}
	} else if m.policy != PowerOptimized {
		m.lcFreq = cfg.MaxFreqGHz
	}

	m.apply(cores, ways)
	m.tracer.ControlDecision(now, trace.ControlDecision{
		Tick: m.controlTicks, Load: load, Target: target, SlackIn: slack,
		Boost: m.boost, Cores: cores, Ways: ways, FreqGHz: m.lcFreq,
		Path: m.lastPath, Feasible: feasible,
	})
	sp.End(now)
}

// apply installs the LC allocation and hands every remaining resource to
// the best-effort co-runner(s), preserving the capper's throttle state.
func (m *Manager) apply(lcCores, lcWays int) {
	srv := m.host.Server()
	lc := m.host.LC().Name
	bes := m.host.BEs()
	// Release the co-runners first so the primary's grant can always be
	// satisfied (the primary has absolute priority).
	for _, be := range bes {
		_ = srv.SetCores(be.Name, 0)
		_ = srv.SetWays(be.Name, 0)
	}
	_ = srv.SetAlloc(lc, machine.Alloc{Cores: lcCores, Ways: lcWays, FreqGHz: m.lcFreq, Duty: 1})
	if len(bes) == 0 {
		return
	}
	freeCores, freeWays := srv.Free()
	for name, a := range m.splitSpare(bes, freeCores, freeWays) {
		if a.Cores == 0 && a.Ways == 0 {
			continue
		}
		a.FreqGHz = m.beFreq
		a.Duty = m.beDuty
		_ = srv.SetAlloc(name, a)
	}
}

// splitSpare distributes the spare resources among the co-runners:
// everything to the single co-runner (or the temporal scheduler's active
// one); for two spatially-shared co-runners, the split maximizing the
// model-estimated combined throughput under the power headroom; otherwise
// an even split.
func (m *Manager) splitSpare(bes []*workload.Spec, freeCores, freeWays int) map[string]machine.Alloc {
	out := make(map[string]machine.Alloc, len(bes))
	if m.beParked {
		for _, be := range bes {
			out[be.Name] = machine.Alloc{}
		}
		return out
	}
	if m.activeBE != "" {
		for _, be := range bes {
			if be.Name == m.activeBE {
				out[be.Name] = machine.Alloc{Cores: freeCores, Ways: freeWays}
			} else {
				out[be.Name] = machine.Alloc{}
			}
		}
		return out
	}
	switch len(bes) {
	case 1:
		out[bes[0].Name] = machine.Alloc{Cores: freeCores, Ways: freeWays}
	case 2:
		a, b := m.beModels[bes[0].Name], m.beModels[bes[1].Name]
		if a != nil && b != nil && a.Validate() == nil && b.Validate() == nil {
			c1, w1 := m.bestPairSplit(a, b, freeCores, freeWays)
			out[bes[0].Name] = machine.Alloc{Cores: c1, Ways: w1}
			out[bes[1].Name] = machine.Alloc{Cores: freeCores - c1, Ways: freeWays - w1}
			return out
		}
		fallthrough
	default:
		// Even split, remainder to the earlier co-runners.
		n := len(bes)
		for i, be := range bes {
			c := freeCores / n
			w := freeWays / n
			if i < freeCores%n {
				c++
			}
			if i < freeWays%n {
				w++
			}
			out[be.Name] = machine.Alloc{Cores: c, Ways: w}
		}
	}
	return out
}

// splitTables caches one co-runner model's per-axis terms for the pair
// split: perfC[c] = α₀·c^α₁ and perfW[w] = w^α₂, so Perf((c,w)) =
// perfC[c]·perfW[w] multiplies in exactly Model.Perf's order (left to
// right over resources) and every score is bit-identical to the direct
// call; likewise dynC[c]+dynW[w] sums the dynamic-power terms in
// Model.DynamicPower's order. Filling the tables costs O(cores+ways) Pow
// calls per tick instead of O(cores·ways) in the split loop.
type splitTables struct {
	perfC, perfW, dynC, dynW []float64
}

func (t *splitTables) fill(mod *utility.Model, maxC, maxW int) {
	t.perfC = t.perfC[:0]
	t.perfW = t.perfW[:0]
	t.dynC = t.dynC[:0]
	t.dynW = t.dynW[:0]
	for c := 0; c <= maxC; c++ {
		t.perfC = append(t.perfC, mod.Alpha0*math.Pow(float64(c), mod.Alpha[0]))
		t.dynC = append(t.dynC, float64(c)*mod.P[0])
	}
	for w := 0; w <= maxW; w++ {
		t.perfW = append(t.perfW, math.Pow(float64(w), mod.Alpha[1]))
		t.dynW = append(t.dynW, float64(w)*mod.P[1])
	}
}

// perf mirrors Model.Perf, including its zero on any nonpositive input.
func (t *splitTables) perf(c, w int) float64 {
	if c <= 0 || w <= 0 {
		return 0
	}
	return t.perfC[c] * t.perfW[w]
}

func (t *splitTables) dyn(c, w int) float64 {
	return t.dynC[c] + t.dynW[w]
}

// bestPairSplit enumerates integer splits of the spare resources between
// two modelled co-runners, scoring each by the combined Cobb-Douglas
// throughput scaled down when the pair's estimated dynamic power exceeds
// the headroom (the capper would throttle both uniformly). The Pow terms
// are loop-invariant per axis, so they are hoisted into per-axis tables;
// every score still evaluates bit-identically to the direct model calls.
func (m *Manager) bestPairSplit(a, b *utility.Model, freeCores, freeWays int) (cores, ways int) {
	headroom := m.host.CapW() - m.host.Machine().IdlePowerW - m.model.DynamicPower(m.lcAllocVector())
	m.splitA.fill(a, freeCores, freeWays)
	m.splitB.fill(b, freeCores, freeWays)
	bestScore := -1.0
	for c1 := 0; c1 <= freeCores; c1++ {
		for w1 := 0; w1 <= freeWays; w1++ {
			c2, w2 := freeCores-c1, freeWays-w1
			perf := m.splitA.perf(c1, w1) + m.splitB.perf(c2, w2)
			if headroom > 0 {
				if p := m.splitA.dyn(c1, w1) + m.splitB.dyn(c2, w2); p > headroom {
					perf *= headroom / p
				}
			}
			if perf > bestScore {
				bestScore = perf
				cores, ways = c1, w1
			}
		}
	}
	return cores, ways
}

// lcAllocVector returns the primary's current allocation as a model input
// vector.
func (m *Manager) lcAllocVector() []float64 {
	a, err := m.host.Server().Alloc(m.host.LC().Name)
	if err != nil {
		return []float64{0, 0}
	}
	return []float64{float64(a.Cores), float64(a.Ways)}
}

// SetActiveBE restricts the spare resources to a single co-runner (used by
// the temporal-sharing scheduler); an empty name restores sharing among
// all co-runners. The change takes effect immediately.
func (m *Manager) SetActiveBE(name string) error {
	if name != "" {
		found := false
		for _, be := range m.host.BEs() {
			if be.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("servermgr: no co-runner %q on host %s", name, m.host.Name())
		}
	}
	m.activeBE = name
	// Re-apply the current split without waiting for the next control
	// tick: job switches should not waste a whole control period.
	if a, err := m.host.Server().Alloc(m.host.LC().Name); err == nil {
		m.apply(a.Cores, a.Ways)
	}
	return nil
}

// ActiveBE returns the co-runner currently granted the spare resources
// exclusively, or "" when all co-runners share.
func (m *Manager) ActiveBE() string { return m.activeBE }

// SetBEParked withholds (parked) or restores (unparked) the spare
// resources for the host's whole best-effort partition. A cluster
// controller parks a server's co-runners after migrating their work
// elsewhere; the primary keeps its allocation either way. The change takes
// effect immediately.
func (m *Manager) SetBEParked(parked bool) {
	if m.beParked == parked {
		return
	}
	m.beParked = parked
	if a, err := m.host.Server().Alloc(m.host.LC().Name); err == nil {
		m.apply(a.Cores, a.Ways)
	}
}

// BEParked reports whether the best-effort partition is parked.
func (m *Manager) BEParked() bool { return m.beParked }

// CapTick runs one iteration of the 100 ms power capper. The throttle
// state is shared by the host's whole best-effort partition: every
// co-runner is clocked and duty-cycled together.
func (m *Manager) CapTick(now time.Time) {
	bes := m.host.BEs()
	if len(bes) == 0 {
		return
	}
	defer m.obsCap.Start().Stop()
	sp := m.tracer.StartFineSpan("cap_tick")
	cfg := m.host.Machine()
	srv := m.host.Server()
	reading := m.host.MeterReading().Watts
	capW := m.CapW()

	throttleFreq := func() bool {
		if m.beFreq <= cfg.MinFreqGHz {
			return false
		}
		m.beFreq = cfg.ClampFreq(m.beFreq - cfg.FreqStepGHz)
		return true
	}
	// The duty cut is proportional to the excess so a large overshoot
	// converges in a few ticks instead of oscillating around the cap.
	throttleDuty := func() bool {
		if m.beDuty <= dutyFloor {
			return false
		}
		cut := math.Max(0.5, capW*(1-capGuard/2)/reading)
		m.beDuty = math.Max(dutyFloor, m.beDuty*cut)
		return true
	}
	// The duty restore targets just inside the guard band so it does not
	// immediately re-trip the throttle.
	restoreDuty := func() bool {
		if m.beDuty >= 1 {
			return false
		}
		grow := math.Min(1.1, capW*(1-capGuard/2)/reading)
		m.beDuty = math.Min(1, m.beDuty*grow)
		return true
	}
	restoreFreq := func() bool {
		if m.beFreq >= cfg.MaxFreqGHz {
			return false
		}
		m.beFreq = cfg.ClampFreq(m.beFreq + cfg.FreqStepGHz)
		return true
	}

	switch {
	case reading > capW:
		// Over budget: fine knob first (the paper's order is frequency
		// then duty; DutyFirst flips it for the ablation).
		m.capThrottles++
		action := ""
		if m.dutyFirst {
			if throttleDuty() {
				action = trace.ActionThrottleDuty
			} else if throttleFreq() {
				action = trace.ActionThrottleFreq
			}
		} else if throttleFreq() {
			action = trace.ActionThrottleFreq
		} else if throttleDuty() {
			action = trace.ActionThrottleDuty
		}
		if action != "" {
			m.beThrottles++
		} else {
			// Both knobs at their floors: physics, not a controller bug,
			// but worth a trace record — sustained exhaustion is exactly
			// what a power-budget post-mortem looks for.
			action = trace.ActionExhausted
		}
		m.tracer.CapAction(now, trace.CapAction{
			PowerW: reading, CapW: capW, Action: action,
			BEFreqGHz: m.beFreq, BEDuty: m.beDuty,
		})
	case reading < capW*(1-capGuard):
		// Comfortable headroom: restore in reverse order.
		m.capRestores++
		action := ""
		if m.dutyFirst {
			if restoreFreq() {
				action = trace.ActionRestoreFreq
			} else if restoreDuty() {
				action = trace.ActionRestoreDuty
			}
		} else if restoreDuty() {
			action = trace.ActionRestoreDuty
		} else if restoreFreq() {
			action = trace.ActionRestoreFreq
		}
		// Fully restored ticks are the idle steady state; recording them
		// would flood the ring with no information, so only actual knob
		// movements produce events here.
		if action != "" {
			m.beRestores++
			m.tracer.CapAction(now, trace.CapAction{
				PowerW: reading, CapW: capW, Action: action,
				BEFreqGHz: m.beFreq, BEDuty: m.beDuty,
			})
		}
	}
	for _, be := range bes {
		if a, err := srv.Alloc(be.Name); err == nil && (a.Cores > 0 || a.Ways > 0) {
			a.FreqGHz = m.beFreq
			a.Duty = m.beDuty
			_ = srv.SetAlloc(be.Name, a)
		}
	}
	sp.End(now)
}

// CapW returns the power budget the capper currently enforces: the
// cluster budgeter's override when set, the host's provisioned capacity
// otherwise.
func (m *Manager) CapW() float64 {
	if m.capOverrideW > 0 {
		return m.capOverrideW
	}
	return m.host.CapW()
}

// SetCapW overrides the capper's power budget (a cluster-level budgeter
// assigning this server a share of a datacenter budget). The budget must
// clear the platform's idle floor; zero clears the override.
func (m *Manager) SetCapW(w float64) error {
	if w == 0 {
		m.capOverrideW = 0
		return nil
	}
	if w <= m.host.Machine().IdlePowerW {
		return fmt.Errorf("servermgr: budget %v W does not clear the %v W idle floor", w, m.host.Machine().IdlePowerW)
	}
	m.capOverrideW = w
	return nil
}

// SetModel swaps the primary application's utility model — the hook the
// online refitting adapter uses when runtime observations produce a better
// fit than the model the manager started with.
func (m *Manager) SetModel(model *utility.Model) error {
	if model == nil {
		return errors.New("servermgr: nil utility model")
	}
	if err := model.Validate(); err != nil {
		return err
	}
	if len(model.Alpha) != 2 {
		return fmt.Errorf("servermgr: need a 2-resource model, have %d", len(model.Alpha))
	}
	m.model = model
	// The plan is model-specific: re-resolve it (or drop to the exact
	// search if the new model defeats plan construction).
	m.rebindPlan()
	return nil
}

// Model returns the manager's current utility model for the primary.
func (m *Manager) Model() *utility.Model { return m.model }

// ControlPeriod returns the LC allocation loop period.
func (m *Manager) ControlPeriod() time.Duration { return controlPeriod }

// CapPeriod returns the power-capper period.
func (m *Manager) CapPeriod() time.Duration { return CapPeriod }

// TargetSlack returns the relative p99 slack guard the manager defends.
func (m *Manager) TargetSlack() float64 { return m.targetSlack }

// BEThrottle reports the capper's current frequency and duty setting for
// the co-runner.
func (m *Manager) BEThrottle() (freqGHz, duty float64) { return m.beFreq, m.beDuty }

// Boost returns the feedback integrator's current value.
func (m *Manager) Boost() int { return m.boost }

// Counters returns the number of control ticks, cap throttle actions and
// cap restore actions so far.
func (m *Manager) Counters() (control, throttles, restores int) {
	return m.controlTicks, m.capThrottles, m.capRestores
}

// KnobCounters returns the number of capper interventions that actually
// moved a best-effort knob (DVFS step or duty change), in each
// direction. Unlike Counters' throttle/restore tallies, ticks where the
// knobs were already at their limits are excluded.
func (m *Manager) KnobCounters() (throttles, restores int) {
	return m.beThrottles, m.beRestores
}

// PlannerCounters reports how the control loop's allocation lookups were
// served: hits (planner table lookup, cold cell), warm (warm start — the
// target stayed in the previous tick's quantization cell), and fallbacks
// (exact grid search: utility.Plans refused the grid).
func (m *Manager) PlannerCounters() (hits, warm, fallbacks int) {
	return m.plannerHits, m.plannerWarm, m.planFallback
}

// PlannerEnabled reports whether the manager resolved a precomputed plan
// for its current model.
func (m *Manager) PlannerEnabled() bool { return m.plan != nil }

// sameTarget reports whether two load targets describe the same operating
// point (within 10%).
func sameTarget(a, b float64) bool {
	if b <= 0 {
		return false
	}
	return math.Abs(a-b) <= 0.1*b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
